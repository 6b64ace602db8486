"""Kernel-scaling Sinkhorn, entropic values, and the unbalanced variant."""

import numpy as np
import pytest

from conftest import random_transport_instance
from oracles import lse_scaling_loop, sinkhorn_loop, unbalanced_loop
from otecon import (
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    EntropicSolution,
    eot_value,
    sinkhorn,
    solve_discrete_ot,
    unbalanced_sinkhorn,
)
from otecon import entropic

SWAP_COST = CostMatrix([[0.0, 1.0], [1.0, 0.0]])


def coin():
    return DiscreteMeasure([0.5, 0.5]), DiscreteMeasure([0.5, 0.5])


@pytest.fixture
def plain_sweeps(monkeypatch):
    """Plain sweeps only: no measured rate calls for an omega of at most 1."""
    monkeypatch.setattr(entropic, "OMEGA_CAP", 1.0)


def relaxation(history):
    """(sweep after which relaxation began, its omega), or None, by the
    documented rule, replayed on a solve's residual history."""
    for it in range(entropic.WARMUP, len(history)):
        theta = (history[it - 1] / history[it - 1 - entropic.WINDOW]) ** (
            1.0 / entropic.WINDOW
        )
        omega = 2.0 / (1.0 + max(1.0 - theta, 0.0) ** 0.5)
        if omega <= entropic.OMEGA_CAP:
            return it, omega
    return None


def first_order_residual(sol, w_mu, w_nu, lam_mu, lam_nu):
    """phi + lam_mu log(pi 1 / mu) and its column twin, from the returned plan."""
    return max(
        np.max(np.abs(sol.phi + lam_mu * np.log(sol.plan.sum(axis=1) / w_mu))),
        np.max(np.abs(sol.psi + lam_nu * np.log(sol.plan.sum(axis=0) / w_nu))),
    )


class TestSinkhorn:
    def test_zero_cost_gives_product_coupling(self):
        mu = DiscreteMeasure([0.2, 0.3, 0.5])
        nu = DiscreteMeasure([0.6, 0.4])
        sol = sinkhorn(mu, nu, CostMatrix(np.zeros((3, 2))), eps=0.7)
        assert np.allclose(sol.plan, np.outer(mu.weights, nu.weights), atol=1e-12)

    def test_large_eps_independence_limit(self):
        mu, nu = coin()
        sol = sinkhorn(mu, nu, SWAP_COST, eps=1e6)
        assert np.allclose(sol.plan, 0.25, atol=1e-6)

    def test_small_eps_recovers_lp_plan(self):
        mu, nu = coin()
        sol = sinkhorn(mu, nu, SWAP_COST, eps=0.01)
        lp_plan, _, _ = solve_discrete_ot(mu, nu, SWAP_COST)
        assert np.allclose(sol.plan, lp_plan.mass, atol=1e-4)

    @pytest.mark.usefixtures("plain_sweeps")
    def test_residual_history_nonincreasing(self, rng):
        for _ in range(5):
            mu, nu, cost = random_transport_instance(rng, 4, 4)
            sol = sinkhorn(mu, nu, cost, eps=0.1)
            errs = np.array(sol.history)
            assert np.all(np.diff(errs) <= 1e-15)
            assert sol.residual == errs[-1]

    def test_report_is_required(self):
        # only results that can be observed or built by hand default it
        with pytest.raises(TypeError, match="iterations"):
            EntropicSolution(plan=np.ones((1, 1)), phi=[0.0], psi=[0.0], eps=1.0)

    def test_gauge_phi0_and_plan_invariance(self, rng):
        mu, nu, cost = random_transport_instance(rng, 3, 5)
        sol = sinkhorn(mu, nu, cost, eps=0.5)
        assert sol.phi[0] == 0.0
        t = 1.7
        shifted = np.outer(mu.weights, nu.weights) * np.exp(
            ((sol.phi + t)[:, None] + (sol.psi - t)[None, :] - cost.entries) / sol.eps
        )
        assert np.allclose(shifted, sol.plan, rtol=1e-12)

    def test_plan_closed_form_from_potentials(self, rng):
        mu, nu, cost = random_transport_instance(rng, 4, 3)
        sol = sinkhorn(mu, nu, cost, eps=0.3)
        rebuilt = np.outer(mu.weights, nu.weights) * np.exp(
            (sol.phi[:, None] + sol.psi[None, :] - cost.entries) / sol.eps
        )
        assert np.allclose(rebuilt, sol.plan, rtol=1e-9)

    def test_nonconvergence_flag(self):
        mu = DiscreteMeasure([0.3, 0.7])
        nu = DiscreteMeasure([0.6, 0.4])
        sol = sinkhorn(mu, nu, SWAP_COST, eps=0.5, tol=1e-15, max_iter=2)
        assert not sol.converged and sol.stop_reason == "max_iter"
        assert sol.iterations == 2

    def test_parameter_validation(self):
        mu, nu = coin()
        with pytest.raises(DomainError):
            sinkhorn(mu, nu, SWAP_COST, eps=0.0)
        with pytest.raises(DomainError):
            sinkhorn(mu, nu, SWAP_COST, eps=1.0, tol=0.0)
        for cap in (2.5, True):
            with pytest.raises(DomainError, match="max_iter must be an integer"):
                sinkhorn(mu, nu, SWAP_COST, eps=1.0, max_iter=cap)
        with pytest.raises(DomainError):
            sinkhorn(DiscreteMeasure([0.4, 0.4]), nu, SWAP_COST, eps=1.0)
        with pytest.raises(DomainError, match="nu must have strictly positive weights"):
            sinkhorn(mu, DiscreteMeasure([1.0, 0.0]), SWAP_COST, eps=1.0)

    @pytest.mark.usefixtures("plain_sweeps")
    @pytest.mark.parametrize("m, n, eps", [(3, 5, 0.5), (8, 8, 0.05), (12, 7, 0.1)])
    def test_matches_plan_per_sweep_loop(self, rng, m, n, eps):
        for _ in range(3):
            mu, nu, cost = random_transport_instance(rng, m, n)
            sol = sinkhorn(mu, nu, cost, eps=eps)
            phi, psi, iterations, errors, converged = sinkhorn_loop(
                mu.weights, nu.weights, cost.entries, eps
            )
            assert sol.converged and converged
            assert sol.iterations == iterations
            assert np.allclose(sol.phi, phi, rtol=0.0, atol=1e-12)
            assert np.allclose(sol.psi, psi, rtol=0.0, atol=1e-12)
            recomputed = max(
                np.max(np.abs(sol.plan.sum(axis=1) - mu.weights)),
                np.max(np.abs(sol.plan.sum(axis=0) - nu.weights)),
            )
            assert sol.history[-1] == pytest.approx(recomputed, abs=1e-15)
            assert sol.history[-1] == pytest.approx(errors[-1], abs=1e-15)
            capped = sinkhorn(mu, nu, cost, eps=eps, max_iter=3)
            phi, psi, *_ = sinkhorn_loop(
                mu.weights, nu.weights, cost.entries, eps, max_iter=3
            )
            assert np.allclose(capped.phi, phi, rtol=0.0, atol=1e-12)
            assert np.allclose(capped.psi, psi, rtol=0.0, atol=1e-12)

    @pytest.mark.usefixtures("plain_sweeps")
    def test_underflowing_start_kernel_column(self):
        # the start kernel's column 2 is exp(-800) = 0, so the first column
        # half-sweep has to run in the log domain
        cost = np.random.default_rng(0).random((5, 5))
        cost[:, 2] += 40.0
        w = np.full(5, 0.2)
        eps = 0.05
        f = -eps * np.log(np.exp(-cost / eps) @ w)
        assert np.all(np.exp((f - cost[:, 2]) / eps) == 0.0)
        sol = sinkhorn(DiscreteMeasure(w), DiscreteMeasure(w), CostMatrix(cost), eps=eps)
        plan, _, _, iterations, _, converged = lse_scaling_loop(w, w, cost, eps)
        assert sol.converged and converged
        assert sol.iterations == iterations
        assert np.all(np.isfinite(sol.plan))
        assert np.max(np.abs(sol.plan - plan)) <= 1e-12 * plan.max()
        scaled = sinkhorn(
            DiscreteMeasure(w), DiscreteMeasure(w), CostMatrix(cost * 1e6), eps=eps * 1e6
        )
        assert scaled.converged and scaled.iterations == sol.iterations
        assert np.allclose(scaled.plan, sol.plan, rtol=1e-12, atol=0.0)

    def test_cost_monotone_in_eps_with_gap_bound(self, rng):
        for _ in range(5):
            mu, nu, cost = random_transport_instance(rng, 4, 4)
            _, _, lp_value = solve_discrete_ot(mu, nu, cost)
            costs = []
            for eps in (0.01, 0.1, 1.0):
                sol = sinkhorn(mu, nu, cost, eps=eps, max_iter=200000)
                assert sol.converged
                transport, _ = eot_value(sol, cost)
                assert abs(transport - lp_value) <= eps * np.log(16.0) + 1e-8
                costs.append(transport)
            assert costs[0] <= costs[1] + 1e-12 and costs[1] <= costs[2] + 1e-12


class TestLseLoopParity:
    """Kernel scaling against the log-sum-exp loop it replaced, step for step.

    Both loops run the same updates, so they take the same sweeps and stop
    at the same one.  Plans agree to 1e-12 of their largest entry: entries
    are exponents of size C / eps rounded differently.  The balanced
    residuals are marginal masses rounded in sums of such entries, known to
    about 1e-15 * max(1, max C / eps).  The unbalanced residual is
    (lam + eps) / eps times a change in the potentials that the log-sum-exp
    loop resolves to a few spacings of them; where the residual reaches tol
    within that resolution, rounding decides the sweep it crosses.

    The tests that run past the warm-up pin the plain sweeps; the relaxed
    ones are compared in TestOverRelaxation.
    """

    @pytest.mark.usefixtures("plain_sweeps")
    @pytest.mark.parametrize("eps", [0.5, 0.05, 0.01, 0.003, 0.001])
    @pytest.mark.parametrize("lam", [None, 1e-2, 1.0, 5.0, 1e2, 1e6])
    def test_matches_lse_loop(self, lam, eps):
        rng = np.random.default_rng(3)
        w_mu, w_nu = rng.random(5) + 0.1, rng.random(6) + 0.1
        w_mu, w_nu = w_mu / w_mu.sum(), w_nu / w_nu.sum()
        cost = rng.random((5, 6))
        mu, nu, c = DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), CostMatrix(cost)
        tol, cap = 1e-9, 3000
        if lam is None:
            sol = sinkhorn(mu, nu, c, eps=eps, tol=tol, max_iter=cap)
        else:
            sol = unbalanced_sinkhorn(
                mu, nu, c, eps=eps, lam_mu=lam, lam_nu=lam, tol=tol, max_iter=cap
            )
        plan, phi, _, iterations, errors, converged = lse_scaling_loop(
            w_mu, w_nu, cost, eps, None if lam is None else (lam, lam), tol, cap
        )
        assert np.max(np.abs(sol.plan - plan)) <= 1e-12 * plan.max()
        assert sol.converged == converged
        if lam is None:
            resolution = 1e-15 * max(1.0, cost.max() / eps)
            recomputed = max(
                np.max(np.abs(sol.plan.sum(axis=1) - w_mu)),
                np.max(np.abs(sol.plan.sum(axis=0) - w_nu)),
            )
            assert abs(sol.history[-1] - recomputed) <= resolution
        else:
            resolution = 8 * (lam + eps) / eps * np.spacing(max(np.abs(phi).max(), cost.max()))
        assert abs(sol.history[-1] - errors[-1]) <= resolution
        if converged and sol.iterations != iterations:
            first = min(sol.iterations, iterations) - 1
            later = sol.history if sol.iterations > iterations else errors
            assert later[first] - tol <= resolution
        elif converged:
            assert sol.iterations == iterations

    @pytest.mark.parametrize("lam, sweeps", [((0.1, 0.1), 10), ((0.1, 0.5), 11)])
    def test_underflowing_row_scaling_matches_lse_loop(self, lam, sweeps):
        # costs of 1e3 at eps 0.5: the damped row scaling underflows at
        # every sweep, so each row half-sweep is redone in the log domain
        cost = np.array([[1000.0, 2000.0], [3000.0, 500.0]])
        w_mu, w_nu = np.array([0.6, 0.4]), np.array([0.5, 0.5])
        sol = unbalanced_sinkhorn(
            DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), CostMatrix(cost),
            eps=0.5, lam_mu=lam[0], lam_nu=lam[1],
        )
        _, phi, psi, iterations, _, converged = lse_scaling_loop(
            w_mu, w_nu, cost, 0.5, lam
        )
        assert sol.converged and converged
        assert sol.iterations == iterations == sweeps
        for ours, oracle in ((sol.phi, phi), (sol.psi, psi)):
            assert np.max(np.abs(ours - oracle)) <= 8 * np.spacing(np.abs(oracle).max())

    @pytest.mark.usefixtures("plain_sweeps")
    @pytest.mark.parametrize("eps", [0.01, 0.001])
    @pytest.mark.parametrize("lam", [1.0, 5.0])
    def test_unequal_masses_match_lse_loop(self, lam, eps):
        # the potentials carry lam log of the mass ratio and the translation
        # steps move them by as much; added to (f, g) every sweep, their
        # rounding drifts f + g off the kernel by about 1e-12 of the plan.
        # At lam >= 1e2 and eps = 1e-3 the log-sum-exp loop's residual floor
        # lies above tol, so it never stops there.
        rng = np.random.default_rng(3)
        w_mu, w_nu = rng.random(5) + 0.1, rng.random(6) + 0.1
        w_mu, w_nu = w_mu / w_mu.sum(), 1.5 * w_nu / w_nu.sum()
        cost = rng.random((5, 6))
        sol = unbalanced_sinkhorn(
            DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), CostMatrix(cost),
            eps=eps, lam_mu=lam, lam_nu=lam, max_iter=3000,
        )
        plan, _, _, iterations, _, converged = lse_scaling_loop(
            w_mu, w_nu, cost, eps, (lam, lam), 1e-9, 3000
        )
        assert np.max(np.abs(sol.plan - plan)) <= 1e-12 * plan.max()
        assert sol.converged == converged
        assert sol.iterations == iterations


class TestEotValue:
    def test_zero_cost_zero_entropy(self):
        mu = DiscreteMeasure([0.2, 0.8])
        nu = DiscreteMeasure([0.5, 0.5])
        cost = CostMatrix(np.zeros((2, 2)))
        sol = sinkhorn(mu, nu, cost, eps=2.0)
        transport, objective = eot_value(sol, cost)
        assert transport == pytest.approx(0.0, abs=1e-12)
        assert objective == pytest.approx(0.0, abs=1e-12)

    def test_small_eps_within_entropy_gap_of_lp(self):
        mu, nu = coin()
        sol = sinkhorn(mu, nu, SWAP_COST, eps=0.01)
        transport, _ = eot_value(sol, SWAP_COST)
        assert 0.0 <= transport <= 0.01 * np.log(4.0) + 1e-12

    def test_large_eps_independent_plan_cost(self):
        mu, nu = coin()
        sol = sinkhorn(mu, nu, SWAP_COST, eps=1e6)
        transport, _ = eot_value(sol, SWAP_COST)
        assert transport == pytest.approx(0.5, abs=1e-5)

    def test_objective_dominates_transport_cost(self, rng):
        # relative entropy of the entropic plan is nonnegative
        mu, nu, cost = random_transport_instance(rng, 3, 4)
        sol = sinkhorn(mu, nu, cost, eps=0.2)
        transport, objective = eot_value(sol, cost)
        assert objective >= transport - 1e-12

    def test_input_checks(self):
        mu, nu = DiscreteMeasure([0.3, 0.7]), DiscreteMeasure([0.6, 0.4])
        capped = sinkhorn(mu, nu, SWAP_COST, eps=0.5, tol=1e-15, max_iter=2)
        with pytest.raises(DomainError, match="did not converge"):
            eot_value(capped, SWAP_COST)
        sol = sinkhorn(mu, nu, SWAP_COST, eps=0.5)
        with pytest.raises(DomainError, match=r"cost shape \(1, 2\) does not match plan shape \(2, 2\)"):
            eot_value(sol, CostMatrix([[0.0, 1.0]]))


class TestUnbalanced:
    def test_matched_marginals_zero_cost(self):
        mu = DiscreteMeasure([0.3, 0.7])
        sol = unbalanced_sinkhorn(mu, mu, CostMatrix(np.zeros((2, 2))), eps=0.5, lam_mu=2.0, lam_nu=2.0)
        assert np.allclose(sol.plan, np.outer(mu.weights, mu.weights), atol=1e-9)
        assert sol.residual < 1e-9

    def test_scalar_fixed_point_exact(self):
        # 1x1 optimum solves c + (eps + lam_mu + lam_nu) log m = 0
        c, eps, lam_mu, lam_nu = 0.8, 0.25, 1.5, 0.5
        sol = unbalanced_sinkhorn(
            DiscreteMeasure([1.0]), DiscreteMeasure([1.0]), CostMatrix([[c]]),
            eps=eps, lam_mu=lam_mu, lam_nu=lam_nu, tol=1e-13,
        )
        expected = np.exp(-c / (eps + lam_mu + lam_nu))
        assert sol.plan[0, 0] == pytest.approx(expected, rel=1e-10)

    def test_scalar_small_eps_limit(self):
        # entropy term vanishes, leaving c + (lam_mu + lam_nu) log m = 0
        c, lam = 0.8, 1.0
        limit = np.exp(-c / (2 * lam))
        gaps = []
        for eps in (0.1, 0.01):
            sol = unbalanced_sinkhorn(
                DiscreteMeasure([1.0]), DiscreteMeasure([1.0]), CostMatrix([[c]]),
                eps=eps, lam_mu=lam, lam_nu=lam, tol=1e-13, max_iter=50000,
            )
            assert sol.converged
            gaps.append(abs(sol.plan[0, 0] - limit))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 2e-3

    def test_balanced_limit(self, rng):
        for _ in range(20):
            mu, nu, cost = random_transport_instance(rng, 4, 4)
            balanced = sinkhorn(mu, nu, cost, eps=0.5)
            soft = unbalanced_sinkhorn(
                mu, nu, cost, eps=0.5, lam_mu=1e6, lam_nu=1e6, tol=1e-12
            )
            assert np.allclose(soft.plan, balanced.plan, atol=1e-5)

    def test_arbitrary_total_masses_allowed(self):
        mu = DiscreteMeasure([2.0, 1.0])
        nu = DiscreteMeasure([0.5])
        sol = unbalanced_sinkhorn(mu, nu, CostMatrix([[0.1], [0.2]]), eps=0.3, lam_mu=1.0, lam_nu=1.0)
        assert sol.converged

    def test_penalty_validation(self):
        mu, nu = coin()
        with pytest.raises(DomainError):
            unbalanced_sinkhorn(mu, nu, SWAP_COST, eps=0.5, lam_mu=0.0, lam_nu=1.0)

    def test_large_lam_converges(self):
        # without the translation step the damped updates creep along
        # (phi + t, psi - t) at about 1 - 5e-7 per sweep and hit the cap
        rng = np.random.default_rng(0)
        w_mu = rng.random(4) + 0.1
        w_nu = rng.random(4) + 0.1
        mu, nu = DiscreteMeasure(w_mu / w_mu.sum()), DiscreteMeasure(w_nu / w_nu.sum())
        cost = CostMatrix(rng.random((4, 4)))
        lam, tol = 1e6, 1e-9
        sol = unbalanced_sinkhorn(
            mu, nu, cost, eps=0.5, lam_mu=lam, lam_nu=lam, tol=tol
        )
        assert sol.converged
        assert first_order_residual(sol, mu.weights, nu.weights, lam, lam) < tol

    @pytest.mark.parametrize(
        "lam_mu, lam_nu, eps", [(1.0, 1.0, 0.1), (0.5, 5.0, 0.5), (5.0, 0.5, 0.02)]
    )
    def test_residual_is_first_order_residual_of_plan(self, rng, lam_mu, lam_nu, eps):
        w_mu = rng.random(4) + 0.1
        w_nu = 2.0 * (rng.random(5) + 0.1)
        cost = CostMatrix(rng.random((4, 5)))
        for sweeps in (1, 2, 5):
            sol = unbalanced_sinkhorn(
                DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), cost,
                eps=eps, lam_mu=lam_mu, lam_nu=lam_nu, max_iter=sweeps,
            )
            assert sol.iterations == sweeps and not sol.converged
            expected = first_order_residual(sol, w_mu, w_nu, lam_mu, lam_nu)
            assert sol.history[-1] == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize("eps", [0.02, 0.5])
    @pytest.mark.parametrize("lam", [1e-2, 1.0, 5.0, 1e2, 1e6])
    def test_matches_untranslated_loop(self, rng, lam, eps):
        w_mu = rng.random(4) + 0.1
        w_nu = rng.random(5) + 0.1
        w_nu *= 1.5 * w_mu.sum() / w_nu.sum()
        cost = rng.random((4, 5))
        tol, cap = 1e-10, 4000
        sol = unbalanced_sinkhorn(
            DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), CostMatrix(cost),
            eps=eps, lam_mu=lam, lam_nu=lam, tol=tol, max_iter=cap,
        )
        plan, _, converged = unbalanced_loop(
            w_mu, w_nu, cost, eps, lam, lam, tol=tol, max_iter=cap
        )
        if converged:
            assert sol.converged
            assert np.allclose(sol.plan, plan, rtol=0.0, atol=1e-8)
        if sol.converged:
            # at lam = 1e6 a zero residual read off a float fixed point
            # would hide a first-order residual of about 1e-3 in the plan
            residual = first_order_residual(sol, w_mu, w_nu, lam, lam)
            assert residual < tol * (1 + 1e-6)


def parity_instance(masses=1.0):
    rng = np.random.default_rng(3)
    w_mu, w_nu = rng.random(5) + 0.1, rng.random(6) + 0.1
    return w_mu / w_mu.sum(), masses * w_nu / w_nu.sum(), rng.random((5, 6))


def solve(w_mu, w_nu, cost, eps, lam, **kw):
    mu, nu, c = DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), CostMatrix(cost)
    if lam is None:
        return sinkhorn(mu, nu, c, eps=eps, **kw)
    return unbalanced_sinkhorn(mu, nu, c, eps=eps, lam_mu=lam[0], lam_nu=lam[1], **kw)


class TestOverRelaxation:
    """Relaxed sweeps against the relaxed log-sum-exp loop and the plain path.

    The relaxed loops run the same updates at the same omega from the same
    sweep, which the test replays from the solver's history; tolerances are
    those of TestLseLoopParity.
    """

    @pytest.mark.parametrize(
        "lam, eps, masses",
        [(lam, eps, 1.0) for lam in (None, 1.0, 5.0, 1e2) for eps in (0.05, 0.01, 0.003, 0.001)]
        + [(1e-2, 0.003, 1.0), (1e-2, 0.001, 1.0), (1.0, 0.01, 1.5), (5.0, 0.001, 1.5)],
    )
    def test_matches_relaxed_lse_loop(self, lam, eps, masses):
        w_mu, w_nu, cost = parity_instance(masses)
        tol, cap = 1e-9, 3000
        pair = None if lam is None else (lam, lam)
        sol = solve(w_mu, w_nu, cost, eps, pair, tol=tol, max_iter=cap)
        start, omega = relaxation(sol.history)
        assert max(sol.history[start:]) <= entropic.REVERT * sol.history[start - 1]
        plan, phi, _, iterations, errors, converged = lse_scaling_loop(
            w_mu, w_nu, cost, eps, pair, tol, cap, omega=omega, start=start
        )
        assert np.max(np.abs(sol.plan - plan)) <= 1e-12 * plan.max()
        assert sol.converged == converged
        if lam is None:
            resolution = 1e-15 * max(1.0, cost.max() / eps)
        else:
            resolution = 8 * (lam + eps) / eps * np.spacing(max(np.abs(phi).max(), cost.max()))
        assert abs(sol.history[-1] - errors[-1]) <= resolution
        if converged:
            assert sol.iterations == iterations

    @pytest.mark.parametrize("lam, eps", [((0.5, 0.5), 0.2), ((0.2, 1.0), 0.05)])
    def test_underflowing_scalings_match_relaxed_lse_loop(self, lam, eps):
        # the row and column scalings of TestLseLoopParity's instance underflow
        # at every sweep; at these lam and eps the solve runs past the
        # warm-up, so both log-domain half-sweeps are relaxed too, and at
        # lam_nu = 1 the column residual decides the last sweeps
        cost = np.array([[1000.0, 2000.0], [3000.0, 500.0]])
        w_mu, w_nu = np.array([0.6, 0.4]), np.array([0.5, 0.5])
        sol = solve(w_mu, w_nu, cost, eps, lam)
        start, omega = relaxation(sol.history)
        _, phi, psi, iterations, errors, converged = lse_scaling_loop(
            w_mu, w_nu, cost, eps, lam, omega=omega, start=start
        )
        assert sol.converged and converged
        assert start < sol.iterations == iterations
        for ours, oracle in ((sol.phi, phi), (sol.psi, psi)):
            assert np.max(np.abs(ours - oracle)) <= 8 * np.spacing(np.abs(oracle).max())
        resolution = 8 * (max(lam) + eps) / eps * np.spacing(cost.max())
        assert np.allclose(sol.history, errors, rtol=1e-12, atol=resolution)

    @pytest.mark.parametrize(
        "lam, eps, masses",
        [(None, eps, 1.0) for eps in (0.05, 0.01, 0.003, 0.001)]
        + [(lam, eps, masses)
           for lam, eps in ((1e-2, 0.003), (1e-2, 0.001), (1.0, 0.01), (1.0, 0.003),
                            (5.0, 0.01), (5.0, 0.003), (1e2, 0.01), (1e2, 0.003))
           for masses in (1.0, 1.5)],
    )
    def test_agrees_with_plain_within_tol(self, monkeypatch, lam, eps, masses):
        # For two plans of Gibbs form, J = sum (pi_a - pi_b) log(pi_a / pi_b)
        # = (<dphi, drow> + <dpsi, dcol>) / eps, drow and dcol the differences
        # of their marginals.  Balanced, each marginal lies within tol of its
        # target.  Unbalanced, row = a exp(e / lam) with |e| < tol and
        # a = mu exp(-phi / lam) decreasing in phi, so <dphi, drow> is at most
        # sum |dphi| (a_a + a_b) (exp(tol / lam) - 1), and likewise for psi.
        w_mu, w_nu, cost = parity_instance(masses)
        tol = 1e-9
        pair = None if lam is None else (lam, lam)
        relaxed = solve(w_mu, w_nu, cost, eps, pair, tol=tol)
        monkeypatch.setattr(entropic, "OMEGA_CAP", 1.0)
        plain = solve(w_mu, w_nu, cost, eps, pair, tol=tol)
        assert relaxed.converged and plain.converged
        assert relaxed.iterations < plain.iterations
        dphi, dpsi = np.abs(relaxed.phi - plain.phi), np.abs(relaxed.psi - plain.psi)
        log_ratio = ((relaxed.phi - plain.phi)[:, None] + (relaxed.psi - plain.psi)[None, :]) / eps
        jeffreys = np.sum((relaxed.plan - plain.plan) * log_ratio)
        if lam is None:
            bound = 2 * tol * (dphi.sum() + dpsi.sum()) / eps
        else:
            a = w_mu * (np.exp(-relaxed.phi / lam) + np.exp(-plain.phi / lam))
            b = w_nu * (np.exp(-relaxed.psi / lam) + np.exp(-plain.psi / lam))
            bound = np.expm1(tol / lam) * (dphi @ a + dpsi @ b) / eps
        assert 0.0 < jeffreys <= bound

    @pytest.mark.parametrize("lam", [None, 1e-2, 1.0, 5.0, 1e2, 1e6])
    def test_inside_warmup_is_plain(self, monkeypatch, lam):
        # the parity instance at eps 0.5 converges in 4 to 15 sweeps
        w_mu, w_nu, cost = parity_instance()
        pair = None if lam is None else (lam, lam)
        sol = solve(w_mu, w_nu, cost, 0.5, pair)
        monkeypatch.setattr(entropic, "OMEGA_CAP", 1.0)
        plain = solve(w_mu, w_nu, cost, 0.5, pair)
        assert sol.converged and sol.iterations <= entropic.WARMUP
        assert sol.iterations == plain.iterations and sol.history == plain.history
        for name in ("plan", "phi", "psi"):
            assert getattr(sol, name).tobytes() == getattr(plain, name).tobytes()

    def test_revert_to_plain(self):
        # five points at eps 0.003: relaxed from sweep 21, the residual
        # climbs past REVERT times its value at sweep 20 at sweep 28, and the
        # sweeps from 29 on are plain
        rng = np.random.default_rng(8)
        w_mu, w_nu = rng.random(5) + 0.1, rng.random(5) + 0.1
        x, y = rng.random((5, 2)), rng.random((5, 2))
        cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
        w_mu, w_nu = w_mu / w_mu.sum(), w_nu / w_nu.sum()
        sol = solve(w_mu, w_nu, cost, 0.003, None)
        start, omega = relaxation(sol.history)
        ceiling = entropic.REVERT * sol.history[start - 1]
        reverted = start + next(
            k for k, e in enumerate(sol.history[start:], 1) if e > ceiling
        )
        assert (start, reverted) == (20, 28)
        plan, _, _, iterations, errors, converged = lse_scaling_loop(
            w_mu, w_nu, cost, 0.003, omega=omega, start=start, stop=reverted
        )
        assert sol.converged and converged
        assert sol.iterations == iterations
        assert np.max(np.abs(sol.plan - plan)) <= 1e-12 * plan.max()
        assert abs(sol.history[-1] - errors[-1]) <= 1e-15 * max(1.0, cost.max() / 0.003)

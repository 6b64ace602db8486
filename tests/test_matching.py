"""Matching equilibrium, identification, moment matching, PPML, and SISTA."""

import re

import numpy as np
import pytest
from oracles import sista_loop
from scipy import optimize

from otecon import (
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    InfeasibleError,
    MatchingTable,
    NonIdentificationError,
    SurplusBasis,
    cs_equilibrium,
    cs_identify,
    moment_matching,
    poisson_loglik,
    sinkhorn,
    sista,
)


def ones_basis(nx, ny):
    return SurplusBasis(np.ones((nx, ny, 1)))


class TestEquilibrium:
    def test_symmetric_scalar_market(self):
        table = cs_equilibrium(CostMatrix([[0.0]]), np.array([1.0]), np.array([1.0]))
        assert table.flows[0, 0] == pytest.approx(0.5, abs=1e-10)
        assert table.singles_x[0] == pytest.approx(0.5, abs=1e-10)
        assert table.singles_y[0] == pytest.approx(0.5, abs=1e-10)

    def test_autarky_limit(self):
        mu = np.array([0.8, 1.2])
        nu = np.array([1.0, 1.0, 0.5])
        table = cs_equilibrium(CostMatrix(np.full((2, 3), -50.0)), mu, nu)
        assert np.all(table.flows < 1e-10)
        assert np.allclose(table.singles_x, mu, atol=1e-9)
        assert np.allclose(table.singles_y, nu, atol=1e-9)

    def test_margins_hold(self, rng):
        phi = CostMatrix(rng.uniform(-1.0, 1.0, size=(3, 3)))
        mu = np.full(3, 1.0 / 3.0)
        nu = np.full(3, 1.0 / 3.0)
        table = cs_equilibrium(phi, mu, nu, tol=1e-14)
        assert np.allclose(table.mu, mu, atol=1e-10)
        assert np.allclose(table.nu, nu, atol=1e-10)

    def test_nonpositive_margins_rejected(self):
        with pytest.raises(DomainError):
            cs_equilibrium(CostMatrix([[0.0]]), np.array([0.0]), np.array([1.0]))

    def test_nonconvergence_flag(self):
        table = cs_equilibrium(
            CostMatrix(np.zeros((2, 2))),
            np.array([1.0, 2.0]),
            np.array([0.5, 1.5]),
            tol=1e-16,
            max_iter=1,
        )
        assert not table.converged and table.stop_reason == "max_iter"


class TestIdentify:
    def test_balanced_flat_table(self):
        table = MatchingTable(
            flows=np.array([[0.04]]),
            singles_x=np.array([0.04]),
            singles_y=np.array([0.04]),
        )
        phi = cs_identify(table)
        assert phi.entries[0, 0] == pytest.approx(0.0, abs=1e-14)
        # an observed table, built with no report, reads as converged
        assert table.converged and table.stop_reason == "tol"
        assert table.iterations == 0 and table.residual == 0.0
        assert table.history == ()

    def test_scalar_equilibrium_round_trip(self):
        table = cs_equilibrium(CostMatrix([[0.0]]), np.array([1.0]), np.array([1.0]))
        phi = cs_identify(table)
        assert phi.entries[0, 0] == pytest.approx(0.0, abs=1e-10)

    def test_round_trip_random_surplus(self, rng):
        for _ in range(100):
            nx = int(rng.integers(1, 6))
            ny = int(rng.integers(1, 6))
            phi = rng.uniform(-2.0, 2.0, size=(nx, ny))
            mu = rng.uniform(0.5, 2.0, size=nx)
            nu = rng.uniform(0.5, 2.0, size=ny)
            table = cs_equilibrium(CostMatrix(phi), mu, nu, tol=1e-14)
            assert table.converged
            history = np.array(table.history)
            assert np.all(np.diff(history) <= 0.0)
            assert history[-1] == table.residual < 1e-14
            recovered = cs_identify(table)
            assert np.allclose(recovered.entries, phi, atol=1e-8)


class TestMomentMatching:
    def build_table(self, lam0, nx=2, ny=2):
        mu = np.full(nx, 1.0)
        nu = np.full(ny, 1.0)
        phi = CostMatrix(np.full((nx, ny), lam0))
        return cs_equilibrium(phi, mu, nu, tol=1e-14)

    def test_recovers_positive_coefficient(self):
        table = self.build_table(0.7)
        lam, a, b = moment_matching(table, ones_basis(2, 2), tol=1e-10)
        assert lam[0] == pytest.approx(0.7, abs=1e-6)

    def test_recovers_null_coefficient(self):
        table = self.build_table(0.0)
        lam, _, _ = moment_matching(table, ones_basis(2, 2), tol=1e-10)
        assert lam[0] == pytest.approx(0.0, abs=1e-6)

    def test_moments_matched_at_solution(self, rng):
        nx, ny, k = 3, 2, 2
        basis = SurplusBasis(rng.uniform(-1.0, 1.0, size=(nx, ny, k)))
        truth = np.array([0.4, -0.3])
        mu = rng.uniform(0.8, 1.2, size=nx)
        nu = rng.uniform(0.8, 1.2, size=ny)
        table = cs_equilibrium(CostMatrix(basis.surplus(truth)), mu, nu, tol=1e-14)
        tol = 1e-9
        lam, _, _ = moment_matching(table, basis, tol=tol)
        refit = cs_equilibrium(CostMatrix(basis.surplus(lam)), mu, nu, tol=1e-14)
        observed = np.einsum("xy,xyk->k", table.flows, basis.basis)
        predicted = np.einsum("xy,xyk->k", refit.flows, basis.basis)
        assert np.max(np.abs(predicted - observed)) <= 10 * tol

    def test_objective_history_nonincreasing(self):
        table = self.build_table(1.1)
        _, _, _, info = moment_matching(table, ones_basis(2, 2), tol=1e-10, log=True)
        objs = np.array(info["objectives"])
        assert np.all(np.diff(objs) <= 1e-12)

    def test_cap_returns_last_iterate(self):
        table = self.build_table(2.0)
        basis = ones_basis(2, 2)
        for max_iter in (1, 2):
            lam, a, b, info = moment_matching(
                table, basis, tol=1e-14, max_iter=max_iter, log=True
            )
            assert info["report"].converged is False
            assert len(info["objectives"]) - 1 == max_iter
            # the returned iterate is the one whose objective is reported last
            expected = -poisson_loglik((lam, a, b), table, basis)
            assert info["objectives"][-1] == pytest.approx(expected, rel=1e-12, abs=0.0)
            bare = moment_matching(table, basis, tol=1e-14, max_iter=max_iter)
            for got, want in zip(bare, (lam, a, b)):
                assert np.array_equal(got, want)
            assert info["report"].stop_reason == "max_iter"
        # below the gradient's float resolution the line search finds no decrease
        *_, info = moment_matching(table, basis, tol=1e-17, log=True)
        assert info["report"].stop_reason == "step_exhausted"
        assert info["objectives"] == info["report"].history

    # at tol 1e-12 the last Newton steps decrease poisson_loglik by less than
    # its float resolution, so this also checks that the line search still
    # accepts them
    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recovers_20x20_three_normal_columns(self, seed, tol):
        rng = np.random.default_rng(seed)
        basis = SurplusBasis(rng.standard_normal((20, 20, 3)))
        truth = rng.standard_normal(3)
        mu = rng.uniform(0.5, 1.5, size=20)
        nu = rng.uniform(0.5, 1.5, size=20)
        table = cs_equilibrium(
            CostMatrix(basis.surplus(truth)), 4.0 * mu / mu.sum(), 4.0 * nu / nu.sum(),
            tol=1e-14,
        )
        lam, _, _ = moment_matching(table, basis, tol=tol)
        assert np.max(np.abs(lam - truth)) <= 1e-8

    def test_collinear_basis_not_identified(self, rng):
        first = rng.uniform(-0.5, 0.5, size=(6, 6))
        basis = SurplusBasis(np.stack([first, 2.0 * first], axis=2))
        table = cs_equilibrium(
            CostMatrix(basis.surplus(np.array([0.5, 0.25]))),
            np.full(6, 1.0),
            np.full(6, 1.0),
            tol=1e-14,
        )
        with pytest.raises(NonIdentificationError):
            moment_matching(table, basis)

    def test_trial_past_the_exp_guard_backtracks(self):
        # from lam = 0 the model's flow is sqrt(1e-3 * 1e-3), a millionth of
        # the observed one, and the first full Newton trials put exponents
        # past EXP_CAP: change() reports inf and the step halves
        table = MatchingTable(np.array([[1e3]]), np.array([1e-3]), np.array([1e-3]))
        with np.errstate(over="raise"):
            lam, _, _, info = moment_matching(table, ones_basis(1, 1), log=True)
        assert info["report"].converged
        assert lam[0] == pytest.approx(np.log(1e6), rel=1e-12)

    def test_last_objective_is_negated_loglik(self, rng):
        basis = SurplusBasis(rng.uniform(-1.0, 1.0, size=(4, 3, 2)))
        table = cs_equilibrium(
            CostMatrix(basis.surplus(np.array([0.8, -0.4]))),
            rng.uniform(0.5, 1.5, size=4),
            rng.uniform(0.5, 1.5, size=3),
            tol=1e-14,
        )
        lam, a, b, info = moment_matching(table, basis, log=True)
        expected = -poisson_loglik((lam, a, b), table, basis)
        assert info["objectives"][-1] == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestPoissonLoglik:
    def flat_table(self):
        return MatchingTable(
            flows=np.array([[0.5]]),
            singles_x=np.array([0.5]),
            singles_y=np.array([0.5]),
        )

    def test_origin_value(self):
        value = poisson_loglik(
            (np.zeros(1), np.zeros(1), np.zeros(1)),
            self.flat_table(),
            ones_basis(1, 1),
        )
        assert value == pytest.approx(-2.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        nx, ny, k = 3, 2, 2
        basis = SurplusBasis(rng.uniform(-1.0, 1.0, size=(nx, ny, k)))
        table = cs_equilibrium(
            CostMatrix(rng.uniform(-0.5, 0.5, size=(nx, ny))),
            rng.uniform(0.8, 1.2, size=nx),
            rng.uniform(0.8, 1.2, size=ny),
            tol=1e-14,
        )
        lam = rng.uniform(-0.5, 0.5, size=k)
        a = rng.uniform(-0.5, 0.5, size=nx)
        b = rng.uniform(-0.5, 0.5, size=ny)

        z = basis.surplus(lam) - a[:, None] - b[None, :]
        intensity = np.exp(z)
        grad_lam = np.einsum("xy,xyk->k", table.flows - intensity, basis.basis)
        grad_a = -table.flows.sum(axis=1) + intensity.sum(axis=1) \
            - table.singles_x + np.exp(-2.0 * a)
        grad_b = -table.flows.sum(axis=0) + intensity.sum(axis=0) \
            - table.singles_y + np.exp(-2.0 * b)
        analytic = np.concatenate([grad_lam, grad_a, grad_b])

        def pack(vec):
            return vec[:k], vec[k : k + nx], vec[k + nx :]

        theta = np.concatenate([lam, a, b])
        h = 1e-6
        numeric = np.empty_like(theta)
        for i in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            numeric[i] = (
                poisson_loglik(pack(up), table, basis)
                - poisson_loglik(pack(dn), table, basis)
            ) / (2 * h)
        assert np.allclose(numeric, analytic, rtol=1e-5, atol=1e-7)

    def test_maximizer_agrees_with_moment_matching(self):
        mu = np.array([1.0, 1.3])
        nu = np.array([0.9, 1.1])
        table = cs_equilibrium(CostMatrix(np.full((2, 2), 0.6)), mu, nu, tol=1e-14)
        basis = ones_basis(2, 2)
        lam_mm, a_mm, b_mm = moment_matching(table, basis, tol=1e-12)

        k, nx, ny = 1, 2, 2

        def neg_loglik(vec):
            return -poisson_loglik(
                (vec[:k], vec[k : k + nx], vec[k + nx :]), table, basis
            )

        res = optimize.minimize(
            neg_loglik, np.zeros(k + nx + ny), method="BFGS", tol=1e-14
        )
        assert res.x[0] == pytest.approx(lam_mm[0], abs=1e-6)
        assert np.allclose(res.x[k : k + nx], a_mm, atol=1e-6)
        assert np.allclose(res.x[k + nx :], b_mm, atol=1e-6)

    def test_overflow_guard(self):
        with pytest.raises(Exception) as exc:
            poisson_loglik(
                (np.array([800.0]), np.zeros(1), np.zeros(1)),
                self.flat_table(),
                ones_basis(1, 1),
            )
        assert "overflow" in str(exc.value).lower()


class TestSista:
    def synthetic(self, rng, nx=3, ny=3, k=2, eps=1.0):
        # interacting basis functions so the surplus is not absorbed by
        # the additive potentials
        x = np.linspace(0.0, 1.0, nx)
        y = np.linspace(0.0, 1.0, ny)
        b1 = np.outer(x, y)
        b2 = np.abs(x[:, None] - y[None, :])
        basis = SurplusBasis(np.stack([b1, b2], axis=2)[:, :, :k])
        beta0 = np.array([1.2, -0.8])[:k]
        mu = rng.uniform(0.2, 0.4, size=nx)
        mu /= mu.sum()
        nu = rng.uniform(0.2, 0.4, size=ny)
        nu /= nu.sum()
        plan = sinkhorn(
            DiscreteMeasure(mu),
            DiscreteMeasure(nu),
            CostMatrix(-basis.surplus(beta0)),
            eps=eps,
            tol=1e-14,
        ).plan
        return plan, mu, nu, basis, beta0

    def test_round_trip_unpenalized(self, rng):
        plan, mu, nu, basis, beta0 = self.synthetic(rng)
        beta = sista(plan, mu, nu, basis, eps=1.0, l1=0.0, tol=1e-12)
        assert np.allclose(beta, beta0, atol=1e-4)

    def test_huge_penalty_kills_coefficients(self, rng):
        plan, mu, nu, basis, _ = self.synthetic(rng)
        beta = sista(plan, mu, nu, basis, eps=1.0, l1=1e6)
        assert np.all(beta == 0.0)

    def test_null_basis_not_identified(self):
        basis = SurplusBasis(np.zeros((2, 2, 1)), params=np.array([0.7]))
        pi = np.full((2, 2), 0.25)
        mu = np.array([0.5, 0.5])
        nu = np.array([0.5, 0.5])
        with pytest.raises(NonIdentificationError):
            sista(pi, mu, nu, basis, eps=1.0)

    @pytest.mark.parametrize("column", ["constant", "additive"])
    def test_absorbed_column_not_identified(self, column):
        # the potentials absorb a column of ones or of x_i, so beta has a free direction
        x = np.arange(3.0)
        extra = np.ones((3, 3)) if column == "constant" else np.repeat(x[:, None], 3, axis=1)
        basis = SurplusBasis(np.stack([np.outer(x, x), extra], axis=2))
        plan = np.exp(0.3 * np.outer(x, x))
        plan /= plan.sum()
        with pytest.raises(NonIdentificationError):
            sista(plan, plan.sum(axis=1), plan.sum(axis=0), basis, eps=1.0)

    def test_identification_ignores_column_units(self):
        x = np.arange(3.0)
        basis = SurplusBasis(np.stack([np.outer(x, x), 1e-15 * np.outer(x**2, x)], axis=2))
        plan = np.exp(0.3 * np.outer(x, x))
        plan /= plan.sum()
        beta, info = sista(plan, plan.sum(axis=1), plan.sum(axis=0), basis, eps=1.0, log=True)
        assert info["report"].converged

    def test_composite_objective_monotone(self, rng):
        plan, mu, nu, basis, _ = self.synthetic(rng)
        beta, info = sista(plan, mu, nu, basis, eps=1.0, l1=0.05, log=True)
        objs = np.array(info["objectives"])
        assert np.all(np.diff(objs) <= 1e-9)

    def test_moment_conditions_at_fixed_point(self, rng):
        plan, mu, nu, basis, _ = self.synthetic(rng)
        beta, info = sista(plan, mu, nu, basis, eps=1.0, l1=0.0, tol=1e-13, log=True)
        fitted = info["plan"]
        assert np.allclose(fitted.sum(axis=1), mu, atol=1e-6)
        assert np.allclose(fitted.sum(axis=0), nu, atol=1e-6)
        gap = np.einsum("xy,xyk->k", fitted - plan, basis.basis)
        assert np.max(np.abs(gap)) < 1e-6

    def test_converged_flag(self, rng):
        plan, mu, nu, basis, _ = self.synthetic(rng, k=1)
        _, info = sista(plan, mu, nu, basis, eps=1.0, log=True)
        assert info["report"].converged is True
        _, capped = sista(plan, mu, nu, basis, eps=1.0, max_iter=2, log=True)
        assert capped["report"].converged is False

    def test_two_columns_converge_at_default_tol(self, rng):
        # the iterates do not depend on tol, so this also covers tol=1e-8
        plan, mu, nu, basis, _ = self.synthetic(rng)
        _, info = sista(plan, mu, nu, basis, eps=1.0, log=True)
        assert info["report"].converged is True

    def test_recovers_12x12_three_columns(self, rng):
        basis = SurplusBasis(0.3 * rng.standard_normal((12, 12, 3)))
        beta0 = rng.standard_normal(3)
        mu = rng.random(12) + 0.5
        mu /= mu.sum()
        nu = rng.random(12) + 0.5
        nu /= nu.sum()
        plan = sinkhorn(
            DiscreteMeasure(mu),
            DiscreteMeasure(nu),
            CostMatrix(-basis.surplus(beta0)),
            eps=1.0,
            tol=1e-14,
        ).plan
        beta, info = sista(plan, mu, nu, basis, eps=1.0, log=True)
        assert info["report"].converged is True
        assert len(info["objectives"]) < 1000
        assert np.max(np.abs(beta - beta0)) < 1e-6

    def test_eps_validation(self, rng):
        plan, mu, nu, basis, _ = self.synthetic(rng)
        with pytest.raises(DomainError):
            sista(plan, mu, nu, basis, eps=0.0)


class TestSistaNewton:
    """The Newton solver against the proximal-gradient loop it replaced."""

    def instance(self, rng, name):
        if name == "12x12":
            basis = 0.3 * rng.standard_normal((12, 12, 3))
            beta0 = rng.standard_normal(3)
            mu, nu = rng.random(12) + 0.5, rng.random(12) + 0.5
        else:
            x = np.linspace(0.0, 1.0, 3)
            basis = np.stack([np.outer(x, x), np.abs(x[:, None] - x[None, :])], axis=2)
            k = 2 if name == "3x3 two columns" else 1
            basis, beta0 = basis[:, :, :k], np.array([1.2, -0.8])[:k]
            mu, nu = rng.uniform(0.2, 0.4, 3), rng.uniform(0.2, 0.4, 3)
        mu, nu = mu / mu.sum(), nu / nu.sum()
        plan = sinkhorn(
            DiscreteMeasure(mu),
            DiscreteMeasure(nu),
            CostMatrix(-(basis @ beta0)),
            eps=1.0,
            tol=1e-14,
        ).plan
        return plan, mu, nu, basis

    @pytest.mark.parametrize("l1", [0.0, 0.01, 0.05])
    @pytest.mark.parametrize("name", ["3x3 two columns", "3x3 one column", "12x12"])
    def test_matches_proximal_gradient_loop(self, rng, name, l1):
        pi_hat, mu, nu, basis = self.instance(rng, name)
        beta, info = sista(pi_hat, mu, nu, SurplusBasis(basis), eps=1.0, l1=l1,
                           tol=1e-12, log=True)
        expected, plan, _, converged = sista_loop(pi_hat, mu, nu, basis, 1.0, l1=l1)
        assert converged and info["report"].converged
        assert np.max(np.abs(beta - expected)) < 1e-8
        assert np.max(np.abs(info["plan"] - plan)) < 1e-8
        assert np.max(np.abs(info["plan"].sum(axis=1) - mu)) < 1e-12
        assert np.max(np.abs(info["plan"].sum(axis=0) - nu)) < 1e-12

    def test_params_start_matches_loop(self, rng):
        pi_hat, mu, nu, basis = self.instance(rng, "3x3 two columns")
        start = np.array([0.5, 0.5])
        beta = sista(pi_hat, mu, nu, SurplusBasis(basis, params=start), eps=1.0,
                     l1=0.01, tol=1e-12)
        expected, _, _, _ = sista_loop(pi_hat, mu, nu, basis, 1.0, l1=0.01, beta=start)
        assert np.max(np.abs(beta - expected)) < 1e-8

    def test_two_columns_take_few_newton_steps(self, rng):
        # TestSista.synthetic's instance; the proximal-gradient loop needed
        # 8 384 iterations here
        pi_hat, mu, nu, basis = self.instance(rng, "3x3 two columns")
        _, info = sista(pi_hat, mu, nu, SurplusBasis(basis), eps=1.0, log=True)
        assert info["report"].converged is True
        assert len(info["objectives"]) - 1 <= 20

    def test_trial_past_the_exp_guard_backtracks(self):
        # the basis cell starts at mass 1e-8 against 5e-5 observed, and the
        # first full Newton trials put plan exponents past EXP_CAP: change()
        # reports inf and the step halves
        s = 1e-4
        pi_hat = np.array([[0.5 * s, 1.0 - 1.5 * s], [0.5 * s, 0.5 * s]])
        mu, nu = np.array([1.0 - s, s]), np.array([s, 1.0 - s])
        basis = SurplusBasis(np.array([[[0.0], [0.0]], [[1.0], [0.0]]]))
        with np.errstate(over="raise"):
            _, info = sista(pi_hat, mu, nu, basis, eps=1.0, log=True)
        assert info["report"].converged
        assert info["plan"][1, 0] == pytest.approx(pi_hat[1, 0], rel=1e-9)

    def test_unequal_totals_rejected(self):
        # no balanced plan has these margins, and L falls without bound
        # along the gauge (f + c, g - c)
        pi_hat = np.array([[0.2, 0.2], [0.1, 0.5]])
        mu, nu = np.array([0.4, 0.6]), 2.0 * np.array([0.3, 0.7])
        basis = SurplusBasis(np.array([[[0.0], [1.0]], [[1.0], [3.0]]]))
        with pytest.raises(InfeasibleError):
            sista(pi_hat, mu, nu, basis, eps=1.0)


def _sista_args(**change):
    args = {
        "pi_hat": np.full((2, 2), 0.25),
        "mu": np.array([0.5, 0.5]),
        "nu": np.array([0.5, 0.5]),
        "basis": SurplusBasis(np.eye(2)[:, :, None]),
        "eps": 1.0,
    }
    return {**args, **change}


FLAT = MatchingTable(np.ones((1, 1)), np.ones(1), np.ones(1))

# the input checks no other test reaches on every run, each with the start
# of its message
REJECTED = {
    "table shape": (
        lambda: MatchingTable(np.ones((2, 2)), np.ones(2), np.ones(3)),
        "flows must be 2 x 3, got (2, 2)",
    ),
    "table positivity": (
        lambda: MatchingTable(np.ones((1, 1)), np.zeros(1), np.ones(1)),
        "all flows and singles must be strictly positive",
    ),
    "params length": (
        lambda: SurplusBasis(np.ones((1, 1, 2)), params=np.ones(3)),
        "params must have length 2, got 3",
    ),
    "beta length": (lambda: ones_basis(1, 1).surplus(np.ones(2)), "beta must have length 1"),
    "equilibrium surplus shape": (
        lambda: cs_equilibrium(CostMatrix(np.zeros((2, 1))), np.ones(2), np.ones(2)),
        "surplus shape (2, 1) does not match populations (2, 2)",
    ),
    "fit basis shape": (
        lambda: moment_matching(FLAT, ones_basis(2, 1)),
        "basis shape (2, 1) does not match table (1, 1)",
    ),
    "loglik basis shape": (
        lambda: poisson_loglik((np.zeros(1), np.zeros(2), np.zeros(1)), FLAT, ones_basis(2, 1)),
        "basis shape does not match the table",
    ),
    "loglik fees": (
        lambda: poisson_loglik((np.zeros(1), np.zeros(2), np.zeros(1)), FLAT, ones_basis(1, 1)),
        "fee vectors must match the table dimensions",
    ),
    "sista pi_hat sign": (
        lambda: sista(**_sista_args(pi_hat=np.array([[0.5, 0.0], [0.0, 0.5]]))),
        "pi_hat must be strictly positive",
    ),
    "sista marginal sign": (
        lambda: sista(**_sista_args(mu=np.array([1.0, 0.0]))),
        "marginals must be strictly positive",
    ),
    "sista pi_hat shape": (
        lambda: sista(**_sista_args(pi_hat=np.full((2, 3), 1 / 6))),
        "pi_hat shape (2, 3) does not match marginals (2, 2)",
    ),
    "sista basis shape": (
        lambda: sista(**_sista_args(basis=ones_basis(3, 2))),
        "basis shape does not match pi_hat",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_input_check(name):
    build, message = REJECTED[name]
    with pytest.raises(DomainError, match="^" + re.escape(message)):
        build()

"""Release gate: one check per acceptance criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; any FAIL also fails the corresponding test.
"""

import itertools
import json
import time
from contextlib import contextmanager

import numpy as np

from conftest import random_transport_instance
from oracles import (
    binary_dual_maximum,
    dro_primal_value,
    lp_transport_value,
    vertex_minimum_value,
)
from otecon import (
    BinaryRelation,
    CostMatrix,
    DiscreteMeasure,
    GaussianMeasure,
    MatchingTable,
    Sample1D,
    SurplusBasis,
    binary_cost_ot,
    cs_equilibrium,
    cs_identify,
    dro_expectation_bound,
    eot_value,
    gaussian_ot_map,
    gaussian_w2,
    halton,
    kaji_subgroup_bounds,
    laguerre_assign,
    moment_matching,
    ot_value_1d,
    poisson_loglik,
    semidiscrete_solve,
    sinkhorn,
    sista,
    solve_discrete_ot,
    vector_rank,
    wasserstein_1d,
    winners_lower_bound,
)
from test_cli import COMMANDS, VALIDATOR, run_cli


@contextmanager
def criterion(num, label):
    try:
        yield
    except Exception:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_lp_oracle_equivalence():
    with criterion(1, "simplex matches brute force and duality on 200 instances"):
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for k in range(200):
            m = int(rng.integers(1, 7))
            n = int(rng.integers(1, 7))
            mu, nu, cost = random_transport_instance(rng, m, n)
            plan, pots, value = solve_discrete_ot(mu, nu, cost)
            dual = pots.objective(mu, nu)
            assert abs(value - dual) <= 1e-9
            assert abs(value - lp_transport_value(mu.weights, nu.weights, cost.entries)) <= 1e-9
            if m + n <= 7:
                assert abs(value - vertex_minimum_value(mu.weights, nu.weights, cost.entries)) <= 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_line_consistency():
    with criterion(2, "1D quantile value equals LP on 100 equal-size instances"):
        rng = np.random.default_rng(202)
        for _ in range(100):
            n = int(rng.integers(1, 31))
            x = Sample1D.from_data(rng.normal(size=n))
            y = Sample1D.from_data(rng.normal(size=n))
            direct = ot_value_1d(x, y, lambda a, b: (a - b) ** 2)
            uniform = DiscreteMeasure(np.full(n, 1.0 / n))
            cost = CostMatrix((x.values[:, None] - y.values[None, :]) ** 2)
            _, _, lp = solve_discrete_ot(uniform, uniform, cost)
            assert abs(direct - lp) <= 1e-9


def test_criterion_3_entropic_limit():
    with criterion(3, "Sinkhorn gap bounded by eps*ln(16) and monotone on 20 instances"):
        rng = np.random.default_rng(303)
        for _ in range(20):
            mu, nu, cost = random_transport_instance(rng, 4, 4)
            _, _, lp = solve_discrete_ot(mu, nu, cost)
            gaps = []
            for eps in (1.0, 0.1, 0.01):
                sol = sinkhorn(mu, nu, cost, eps=eps, max_iter=300000)
                assert sol.converged
                transport, _ = eot_value(sol, cost)
                gap = transport - lp
                assert abs(gap) <= eps * np.log(16.0) + 1e-8
                gaps.append(gap)
            assert gaps[0] >= gaps[1] - 1e-10
            assert gaps[1] >= gaps[2] - 1e-10


def test_criterion_4_gaussian_closed_forms():
    with criterion(4, "Gaussian W2 and map against samples"):
        rng = np.random.default_rng(404)
        g1 = GaussianMeasure(np.zeros(2), np.diag([1.0, 4.0]))
        g2 = GaussianMeasure(np.zeros(2), np.diag([9.0, 1.0]))
        assert abs(gaussian_w2(g1, g2) - np.sqrt(5.0)) <= 1e-12

        h1 = GaussianMeasure([0.2], [[1.69]])
        h2 = GaussianMeasure([-0.9], [[0.36]])
        exact = gaussian_w2(h1, h2)
        n = 100000
        xs = Sample1D.from_data(h1.mean[0] + 1.3 * rng.standard_normal(n))
        ys = Sample1D.from_data(h2.mean[0] + 0.6 * rng.standard_normal(n))
        empirical = wasserstein_1d(xs, ys, 2.0)
        assert abs(empirical - exact) <= 0.02 * exact

        f1 = GaussianMeasure([0.5, -1.0], [[2.0, 0.6], [0.6, 1.0]])
        f2 = GaussianMeasure([-2.0, 3.0], [[1.5, -0.4], [-0.4, 0.8]])
        tm = gaussian_ot_map(f1, f2)
        chol = np.linalg.cholesky(f1.cov)
        mapped = tm(f1.mean + rng.standard_normal((100000, 2)) @ chol.T)
        assert np.linalg.norm(mapped.mean(axis=0) - f2.mean) < 0.02
        assert np.linalg.norm(np.cov(mapped.T) - f2.cov, ord="fro") < 0.05


def test_criterion_5_semidiscrete_foc():
    with criterion(5, "Laguerre cell masses meet targets; 1D weight gap exact"):
        rng = np.random.default_rng(505)

        def grid_masses(diagram, d, res):
            axes = [(np.arange(res) + 0.5) / res] * d
            mesh = np.meshgrid(*axes, indexing="ij")
            grid = np.column_stack([m.ravel() for m in mesh])
            cells = laguerre_assign(grid, diagram)
            return np.bincount(cells, minlength=diagram.n_sites) / grid.shape[0]

        for d, k, res in ((1, 5, 512), (2, 4, 256)):
            pts = rng.uniform(0.1, 0.9, size=(k, d))
            w = rng.uniform(0.5, 1.5, size=k)
            nu = DiscreteMeasure(w / w.sum(), points=pts)
            diagram = semidiscrete_solve(nu, d, grid_res=res, tol=1e-3)
            assert diagram.converged
            masses = grid_masses(diagram, d, res)
            assert np.max(np.abs(masses - diagram.target_masses)) <= 1e-3 + 1e-12

        nu = DiscreteMeasure([0.25, 0.75], points=np.array([[0.0], [1.0]]))
        diagram = semidiscrete_solve(nu, d=1, grid_res=4096, tol=1e-4)
        assert diagram.converged
        assert abs((diagram.weights[1] - diagram.weights[0]) - 0.5) <= 1e-3


def test_criterion_6_rank_properties():
    with criterion(6, "vector ranks: bijection, 1D sorting, permutation uniformity"):
        rng = np.random.default_rng(606)
        start = time.perf_counter()

        ra = vector_rank(rng.normal(size=(25, 2)))
        assert np.array_equal(np.sort(ra.permutation), np.arange(25))

        y = rng.normal(size=12)
        ra1 = vector_rank(y)
        ref = halton(12, 1).points[:, 0]
        expected = np.empty(12, dtype=int)
        expected[np.argsort(y, kind="stable")] = np.argsort(ref, kind="stable")
        assert np.array_equal(ra1.permutation, expected)

        reps = 5000
        counts = {p: 0 for p in itertools.permutations(range(3))}
        for _ in range(reps):
            counts[tuple(vector_rank(rng.standard_normal((3, 2))).permutation)] += 1
        p = 1.0 / 6.0
        se = np.sqrt(p * (1.0 - p) / reps)
        for perm, c in counts.items():
            assert abs(c / reps - p) <= 4.0 * se, (perm, c / reps)

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_7_bounds():
    with criterion(7, "subgroup, winners, binary-cost, and DRO bounds"):
        rng = np.random.default_rng(707)

        y0 = Sample1D.from_data(rng.normal(size=13))
        y1 = Sample1D.from_data(rng.normal(size=9))
        ate = y1.values.mean() - y0.values.mean()
        iv = kaji_subgroup_bounds(0.0, 1.0, y0, y1)
        assert abs(iv.lower - ate) <= 1e-12 and abs(iv.upper - ate) <= 1e-12

        grid = Sample1D((np.arange(2000) + 0.5) / 2000)
        shifted = Sample1D(grid.values + 1.0)
        iv = kaji_subgroup_bounds(0.2, 0.5, grid, shifted)
        assert abs(iv.lower - 0.8) <= 1e-3 and abs(iv.upper - 1.5) <= 1e-3

        for _ in range(100):
            m, n = rng.integers(1, 6, size=2)
            w_mu = rng.uniform(0.1, 1.0, size=m)
            w_mu /= w_mu.sum()
            w_nu = rng.uniform(0.1, 1.0, size=n)
            w_nu /= w_nu.sum()
            gamma = rng.integers(0, 2, size=(m, n))
            value, _ = binary_cost_ot(
                DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), BinaryRelation(gamma)
            )
            assert abs(value - binary_dual_maximum(w_mu, w_nu, gamma)) <= 1e-9

        uniform = DiscreteMeasure(np.full(40, 1.0 / 40.0))
        for _ in range(50):
            s0 = Sample1D.from_data(rng.normal(size=40))
            s1 = Sample1D.from_data(rng.normal(loc=rng.uniform(-1, 1), size=40))
            direct = winners_lower_bound(0.0, 1.0, s0, s1)
            gamma = (s1.values[None, :] > s0.values[:, None]).astype(int)
            lp, _ = binary_cost_ot(uniform, uniform, BinaryRelation(gamma), witness=False)
            assert abs(direct - lp) <= 1e-6

        for _ in range(10):
            f = rng.normal(size=4)
            pts = rng.normal(size=4)
            delta = np.abs(pts[:, None] - pts[None, :])
            w = rng.uniform(0.2, 1.0, size=4)
            w /= w.sum()
            rho = float(rng.uniform(0.0, 0.6) * delta.max())
            dual = dro_expectation_bound(f, CostMatrix(delta), DiscreteMeasure(w), rho)
            assert abs(dual - dro_primal_value(f, delta, w, rho)) <= 1e-6


def test_criterion_8_iot_round_trips():
    with criterion(8, "matching identification, moment fit, PPML gradient, SISTA"):
        rng = np.random.default_rng(808)

        for _ in range(100):
            nx = int(rng.integers(1, 6))
            ny = int(rng.integers(1, 6))
            phi = rng.uniform(-2.0, 2.0, size=(nx, ny))
            mu = rng.uniform(0.5, 2.0, size=nx)
            nu = rng.uniform(0.5, 2.0, size=ny)
            table = cs_equilibrium(CostMatrix(phi), mu, nu, tol=1e-14)
            assert np.max(np.abs(cs_identify(table).entries - phi)) <= 1e-8

        basis1 = SurplusBasis(np.ones((2, 2, 1)))
        planted = cs_equilibrium(
            CostMatrix(np.full((2, 2), 0.7)), np.ones(2), np.ones(2), tol=1e-14
        )
        lam, _, _ = moment_matching(planted, basis1, tol=1e-10)
        assert abs(lam[0] - 0.7) <= 1e-6

        table = MatchingTable(
            flows=np.array([[0.5]]), singles_x=np.array([0.5]), singles_y=np.array([0.5])
        )
        basis0 = SurplusBasis(np.ones((1, 1, 1)))
        lam = np.array([0.3])
        a = np.array([-0.2])
        b = np.array([0.4])
        z = float(lam[0] - a[0] - b[0])
        analytic = np.array(
            [
                0.5 - np.exp(z),
                -0.5 + np.exp(z) - 0.5 + np.exp(-2 * a[0]),
                -0.5 + np.exp(z) - 0.5 + np.exp(-2 * b[0]),
            ]
        )
        h = 1e-6
        numeric = []
        for i in range(3):
            theta = np.array([lam[0], a[0], b[0]])
            up, dn = theta.copy(), theta.copy()
            up[i] += h
            dn[i] -= h
            numeric.append(
                (
                    poisson_loglik((up[:1], up[1:2], up[2:]), table, basis0)
                    - poisson_loglik((dn[:1], dn[1:2], dn[2:]), table, basis0)
                )
                / (2 * h)
            )
        assert np.allclose(numeric, analytic, rtol=1e-5, atol=1e-8)

        x = np.linspace(0.0, 1.0, 3)
        yv = np.linspace(0.0, 1.0, 3)
        sbasis = SurplusBasis(
            np.stack([np.outer(x, yv), np.abs(x[:, None] - yv[None, :])], axis=2)
        )
        beta0 = np.array([1.2, -0.8])
        wmu = rng.uniform(0.2, 0.4, size=3)
        wmu /= wmu.sum()
        wnu = rng.uniform(0.2, 0.4, size=3)
        wnu /= wnu.sum()
        pi0 = sinkhorn(
            DiscreteMeasure(wmu),
            DiscreteMeasure(wnu),
            CostMatrix(-sbasis.surplus(beta0)),
            eps=1.0,
            tol=1e-14,
        ).plan
        beta, info = sista(pi0, wmu, wnu, sbasis, eps=1.0, l1=0.0, tol=1e-12, log=True)
        assert np.max(np.abs(beta - beta0)) <= 1e-4
        objs = np.array(info["objectives"])
        assert np.all(np.diff(objs) <= 1e-9)
        crushed = sista(pi0, wmu, wnu, sbasis, eps=1.0, l1=1e6)
        assert np.all(crushed == 0.0)


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "CLI reruns byte-identical and schema-valid for every command"):
        for name in sorted(COMMANDS):
            code, first = run_cli(COMMANDS[name], tmp_path, f"{name}.json")
            assert code == 0, name
            doc = json.loads(first)
            VALIDATOR.validate(doc)
            assert doc["command"] == COMMANDS[name][0]
            _, again = run_cli(COMMANDS[name], tmp_path, f"{name}.json")
            assert first == again, name

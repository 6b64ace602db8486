"""Laguerre cells over the unit cube, vector quantiles, and empirical ranks."""

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dense_laplacian,
    laguerre_grid_best,
    laguerre_grid_masses,
    laguerre_grid_semidual,
    laguerre_neighbour_counts,
    laguerre_two_pass_loop,
    midpoint_grid,
    newton_step_dense,
)
from scipy.optimize import linear_sum_assignment

from otecon import (
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    LaguerreDiagram,
    RankAssignment,
    ResourceError,
    halton,
    laguerre_assign,
    semidiscrete_solve,
    solve_discrete_ot,
    vector_quantile,
    vector_rank,
)
from otecon import semidiscrete
from otecon._util import check_size
from otecon.discrete import extract_assignment
from otecon.semidiscrete import (
    DEFAULT_GRID_RES, _grid_sq_dists, _neighbour_laplacian, _newton_step, _score,
    _sq_dists,
)


SAMPLE_KINDS = {
    "normal": lambda rng, n, d: rng.standard_normal((n, d)),
    "three_values": lambda rng, n, d: rng.integers(0, 3, size=(n, d)).astype(float),
    "all_equal": lambda rng, n, d: np.full((n, d), rng.standard_normal()),
    "rounded_1e6": lambda rng, n, d: np.round(rng.standard_normal((n, d)), 1) * 1e6,
}


def two_site_line(delta, q=(0.5, 0.5)):
    return LaguerreDiagram(
        sites=np.array([[0.0], [1.0]]),
        weights=np.array([-delta, 0.0]),
        target_masses=np.array(q),
    )


class TestLaguerreAssign:
    def test_zero_weights_nearest_site(self):
        diag = LaguerreDiagram(
            sites=np.array([[0.1, 0.1], [0.9, 0.9]]),
            weights=np.zeros(2),
            target_masses=np.array([0.5, 0.5]),
        )
        assert laguerre_assign(np.array([0.0, 0.0]), diag) == 0
        assert laguerre_assign(np.array([1.0, 1.0]), diag) == 1

    def test_line_boundary_shifts_with_weight(self):
        # psi = (0, delta) moves the split point to (1 - delta) / 2
        delta = 0.3
        diag = LaguerreDiagram(
            sites=np.array([[0.0], [1.0]]),
            weights=np.array([-delta, 0.0]),
            target_masses=np.array([0.5, 0.5]),
        )
        boundary = (1.0 - delta) / 2.0
        assert laguerre_assign(np.array([boundary - 1e-9]), diag) == 0
        assert laguerre_assign(np.array([boundary + 1e-9]), diag) == 1

    def test_point_inside_first_cell(self):
        diag = two_site_line(0.0)
        assert laguerre_assign(np.array([0.4]), diag) == 0

    def test_tie_goes_to_lowest_index(self):
        diag = two_site_line(0.0)
        assert laguerre_assign(np.array([0.5]), diag) == 0

    def test_batch_matches_scalar(self):
        diag = two_site_line(0.2)
        pts = np.linspace(0.0, 1.0, 11)[:, None]
        batch = laguerre_assign(pts, diag)
        for k, p in enumerate(pts):
            assert batch[k] == laguerre_assign(p, diag)


class TestGaugeAndValidation:
    def test_last_weight_must_vanish(self):
        with pytest.raises(DomainError):
            LaguerreDiagram(
                sites=np.array([[0.0], [1.0]]),
                weights=np.array([0.0, 0.5]),
                target_masses=np.array([0.5, 0.5]),
            )

    def test_masses_must_be_probability(self):
        with pytest.raises(DomainError):
            LaguerreDiagram(
                sites=np.array([[0.0], [1.0]]),
                weights=np.zeros(2),
                target_masses=np.array([0.7, 0.7]),
            )


class TestSolve:
    def test_single_site_trivial(self):
        nu = DiscreteMeasure([1.0], points=np.array([[0.5]]))
        diag = semidiscrete_solve(nu, d=1)
        assert diag.converged
        assert np.allclose(diag.weights, [0.0])
        grid = np.linspace(0.005, 0.995, 100)[:, None]
        assert np.all(laguerre_assign(grid, diag) == 0)

    def test_symmetric_pair_splits_evenly(self):
        nu = DiscreteMeasure(
            [0.5, 0.5], points=np.array([[0.25, 0.5], [0.75, 0.5]])
        )
        diag = semidiscrete_solve(nu, d=2, grid_res=128)
        assert diag.converged
        assert diag.weights[0] == pytest.approx(0.0, abs=1e-9)
        left = np.array([0.3, 0.6])
        right = np.array([0.7, 0.4])
        assert laguerre_assign(left, diag) == 0
        assert laguerre_assign(right, diag) == 1

    def test_line_quarter_mass_weight_gap(self):
        # target q = (0.25, 0.75) on sites {0, 1} puts the boundary at 0.25,
        # so the weight gap solves (1 - (psi2 - psi1)) / 2 = 0.25
        nu = DiscreteMeasure([0.25, 0.75], points=np.array([[0.0], [1.0]]))
        diag = semidiscrete_solve(nu, d=1, grid_res=4096, tol=1e-4)
        assert diag.converged
        gap = diag.weights[1] - diag.weights[0]
        assert gap == pytest.approx(0.5, abs=1e-3)

    def test_cell_masses_within_tol(self, rng):
        pts = rng.uniform(0.1, 0.9, size=(4, 2))
        w = rng.uniform(0.5, 1.5, size=4)
        nu = DiscreteMeasure(w / w.sum(), points=pts)
        tol = 1e-3
        diag = semidiscrete_solve(nu, d=2, grid_res=256, tol=tol)
        assert diag.converged
        res = 256
        axis = (np.arange(res) + 0.5) / res
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        cells = laguerre_assign(grid, diag)
        masses = np.bincount(cells, minlength=4) / grid.shape[0]
        assert np.max(np.abs(masses - diag.target_masses)) <= tol + 1e-12

    def test_objective_nondecreasing(self, rng):
        pts = rng.uniform(0.0, 1.0, size=(3, 1))
        w = rng.uniform(0.5, 1.5, size=3)
        nu = DiscreteMeasure(w / w.sum(), points=pts)
        diag = semidiscrete_solve(nu, d=1)
        objs = np.array(diag.history)
        assert objs.size >= 1
        assert np.all(np.diff(objs) >= -1e-12)

    def test_nonconvergence_flag(self):
        # a coarse grid quantizes cell masses to multiples of 0.1, so the
        # 1/3 target is unreachable at this tolerance
        nu = DiscreteMeasure(
            [1.0 / 3.0, 2.0 / 3.0], points=np.array([[0.0], [1.0]])
        )
        diag = semidiscrete_solve(nu, d=1, grid_res=10, tol=1e-12, max_iter=50)
        assert not diag.converged

    def test_grid_budget_enforced(self):
        nu = DiscreteMeasure(
            [0.5, 0.5], points=np.array([[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]])
        )
        with pytest.raises(ResourceError):
            semidiscrete_solve(nu, d=3, grid_res=500)
        # a fractional resolution built a grid that is not the cube's
        for res in (2.5, True):
            with pytest.raises(DomainError, match="grid_res must be an integer"):
                semidiscrete_solve(nu, d=3, grid_res=res)

    @pytest.mark.parametrize("d", [2.0, np.float64(2.0), True])
    def test_dimension_must_be_an_integer(self, d):
        # a float dimension failed in range() with a TypeError, and True ran
        # as 1-D
        nu = DiscreteMeasure([0.5, 0.5], points=np.array([[0.2, 0.2], [0.8, 0.8]]))
        if d is True:
            nu = DiscreteMeasure([0.5, 0.5], points=np.array([[0.2], [0.8]]))
        with pytest.raises(DomainError, match="^d must be an integer"):
            semidiscrete_solve(nu, d, grid_res=16)

    def test_site_count_is_not_bounded_by_grid_limit(self, monkeypatch):
        # the Newton step keeps no n x n array, so 11 sites run under a
        # GRID_LIMIT of 100, which rejected their 121-entry Laplacian
        monkeypatch.setattr(semidiscrete, "GRID_LIMIT", 100)
        points = (np.arange(11)[:, None] + 0.5) / 11
        diag = semidiscrete_solve(
            DiscreteMeasure(np.ones(11), points=points), d=1, grid_res=50, max_iter=1
        )
        assert diag.n_sites == 11 and diag.iterations <= 1
        assert np.isfinite(diag.weights).all()

    def test_size_check_admits_its_limit(self):
        check_size(10_000_000, 10_000_000, "cost")
        with pytest.raises(
            ResourceError,
            match="^cost: 10,000,001 entries, over the 10,000,000 limit$",
        ):
            check_size(10_000_001, 10_000_000, "cost")

    def test_dimension_mismatch_rejected(self):
        nu = DiscreteMeasure([1.0], points=np.array([[0.5, 0.5]]))
        with pytest.raises(DomainError):
            semidiscrete_solve(nu, d=1)


def jittered_lattice(rng, side, d):
    centres = (np.arange(side) + 0.5) / side
    grids = np.meshgrid(*([centres] * d), indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    return points + rng.uniform(-0.25 / side, 0.25 / side, points.shape)


class TestTwoPassParity:
    """The Newton weights against the two-pass gradient ascent, by certificate.

    The two solvers return different iterates, so each case checks what
    makes either endpoint an answer: the same convergence verdict, cell
    masses recounted on the oracle's own grid within tol, and the
    supergradient inequality of the concave grid semidual between the two
    endpoints, in both directions.
    """

    # (sites, grid_res, tol, max_iter) from a seed; the last stops at its cap
    CASES = {
        "1d-uniform": lambda rng: (rng.uniform(0, 1, (5, 1)), 512, 1e-3, 2000),
        "2d-uniform": lambda rng: (rng.uniform(0, 1, (7, 2)), 64, 1e-3, 2000),
        "2d-lattice": lambda rng: (jittered_lattice(rng, 4, 2), 96, 1e-3, 2000),
        "3d-uniform": lambda rng: (rng.uniform(0, 1, (5, 3)), 16, 1e-3, 2000),
        "3d-lattice": lambda rng: (jittered_lattice(rng, 2, 3), 20, 1e-3, 2000),
        "2d-capped": lambda rng: (rng.uniform(0, 1, (6, 2)), 48, 1e-12, 25),
    }

    @staticmethod
    def assert_certified(nu, d, grid_res, tol, max_iter):
        diag = semidiscrete_solve(nu, d, grid_res=grid_res, tol=tol, max_iter=max_iter)
        q = nu.weights / nu.total_mass
        psi, _, _, converged = laguerre_two_pass_loop(
            nu.points, q, grid_res, tol, max_iter
        )
        assert diag.converged is converged
        assert diag.converged == (diag.residual < tol)
        masses = laguerre_grid_masses(nu.points, diag.weights, grid_res)
        if converged:
            assert np.max(np.abs(masses - q)) < tol
        # the semidual is concave with supergradient q - masses, so neither
        # endpoint lies above the other's tangent plane
        value = laguerre_grid_semidual(nu.points, q, diag.weights, grid_res)
        other = laguerre_grid_semidual(nu.points, q, psi, grid_res)
        other_masses = laguerre_grid_masses(nu.points, psi, grid_res)
        slack = 1e-12 * max(1.0, abs(value), abs(other))
        assert other <= value + (q - masses) @ (psi - diag.weights) + slack
        assert value <= other + (q - other_masses) @ (diag.weights - psi) + slack
        return diag

    # seed 2 of 1d-uniform runs its 2000-step cap like the instance below
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bit_identical(self, case, seed):
        rng = np.random.default_rng(seed)
        sites, grid_res, tol, max_iter = self.CASES[case](rng)
        nu = DiscreteMeasure(rng.uniform(0.5, 1.5, len(sites)), points=sites)
        diag = self.assert_certified(nu, sites.shape[1], grid_res, tol, max_iter)
        if case.endswith("capped"):
            assert not diag.converged and diag.iterations == max_iter
            assert diag.stop_reason == "max_iter"

    def test_objective_nondecreasing_instance(self, rng):
        # the instance of TestSolve.test_objective_nondecreasing
        pts = rng.uniform(0.0, 1.0, size=(3, 1))
        w = rng.uniform(0.5, 1.5, size=3)
        nu = DiscreteMeasure(w / w.sum(), points=pts)
        self.assert_certified(nu, 1, 512, 1e-3, 2000)


class TestNewton:
    def test_sq_dists_bit_identical_to_broadcast_sum(self, rng):
        for d in (1, 2, 3):
            grid = midpoint_grid(d, {1: 512, 2: 96, 3: 20}[d])
            sites = rng.uniform(0, 1, (16, d))
            sample = rng.standard_normal((40, d)) * 1e3
            for a, b in ((grid, sites), (sample, halton(40, d).points)):
                broadcast = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
                assert _sq_dists(a, b).tobytes() == broadcast.tobytes()

    def test_grid_sq_dists_bit_identical_to_grid_points(self, rng):
        # the per-axis tables add the same gaps in the same order as
        # _sq_dists on the grid points, one contiguous row per site with
        # its columns in the grid's point order
        for d, res in ((1, 512), (1, 7), (2, 96), (2, 5), (3, 20), (3, 4)):
            for sites in (rng.uniform(0, 1, (16, d)), rng.normal(0.5, 2.0, (3, d))):
                expected = _sq_dists(midpoint_grid(d, res), sites).T
                d2 = _grid_sq_dists(d, res, sites)
                assert d2.shape == expected.shape and d2.flags.c_contiguous
                assert d2.tobytes() == expected.tobytes()

    @staticmethod
    def assert_converges_within(sites, grid_res, steps):
        n, d = sites.shape
        nu = DiscreteMeasure(np.ones(n), points=sites)
        diag = semidiscrete_solve(nu, d=d, grid_res=grid_res)
        assert diag.converged and diag.iterations <= steps
        masses = laguerre_grid_masses(sites, diag.weights, grid_res)
        assert np.max(np.abs(masses - diag.target_masses)) < 1e-3

    def test_forty_uniform_sites_converge_in_few_steps(self):
        # laguerre_two_pass_loop's gradient ascent takes 101 steps here
        sites = np.random.default_rng(0).uniform(0, 1, (40, 2))
        self.assert_converges_within(sites, 128, 15)

    def test_site_outside_cube(self):
        # the site outside the cube wins no grid point at zero weights;
        # laguerre_two_pass_loop's gradient ascent takes 166 steps here
        sites = np.vstack(
            [np.random.default_rng(0).uniform(0, 1, (7, 2)), [[2.5, 2.5]]]
        )
        assert laguerre_grid_masses(sites, np.zeros(8), 64)[-1] == 0.0
        self.assert_converges_within(sites, 64, 20)

    def test_empty_start_cell_fills(self):
        # the centre site's start cell, a triangle inside its ring, holds no
        # grid point; laguerre_two_pass_loop's ascent runs its 2000-step cap
        angles = np.pi / 2 + 2 * np.pi * np.arange(3) / 3
        ring = 0.5 + 0.01 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        corners = np.array([[0.2, 0.2], [0.8, 0.2], [0.2, 0.8], [0.8, 0.8]])
        sites = np.vstack([[[0.5, 0.5]], ring, corners])
        assert laguerre_grid_masses(sites, np.zeros(8), 64)[0] == 0.0
        self.assert_converges_within(sites, 64, 20)

    def test_duplicate_site_ends_unconverged(self):
        # the copy ties its original everywhere, so its cell stays empty and
        # outside the facet graph: only the ridge keeps the Newton system
        # solvable, and every halved Newton step empties a cell, so the loop
        # ends long before its cap
        sites = np.random.default_rng(0).uniform(0, 1, (5, 2))
        sites = np.vstack([sites, sites[:1]])
        nu = DiscreteMeasure(np.ones(6), points=sites)
        diag = semidiscrete_solve(nu, d=2, grid_res=64, max_iter=30)
        assert not diag.converged and diag.iterations < 10
        assert diag.stop_reason == "step_exhausted"
        assert len(diag.history) == diag.iterations + 1
        assert np.all(np.diff(diag.history) >= -1e-12)

    @pytest.mark.parametrize("kind", ["uniform", "clustered", "outside-cube"])
    def test_line_sites_converge_at_the_default_grid(self, kind):
        # the sweep's 1-D kinds: the facet weights are exact in 1-D, and a
        # cell of the default grid holds less than tol
        rng = np.random.default_rng(0)
        draw = {
            "uniform": lambda n: rng.random((n, 1)),
            "clustered": lambda n: rng.uniform(0.0, 0.9) + 0.1 * rng.random((n, 1)),
            "outside-cube": lambda n: rng.uniform(-0.5, 1.5, (n, 1)),
        }[kind]
        for n in (3, 12, 30):
            nu = DiscreteMeasure(rng.random(n) + 0.1, points=draw(n))
            diag = semidiscrete_solve(nu, d=1)
            assert diag.stop_reason == "tol" and diag.iterations <= 2
            masses = laguerre_grid_masses(nu.points, diag.weights, DEFAULT_GRID_RES[1])
            assert np.max(np.abs(masses - diag.target_masses)) < 1e-3

    def test_clustered_sites_converge(self):
        # 25 sites in a 0.1-wide square on a 96^2 grid: all 20 seeded sets
        # end at tol from the start fitted to the sites' box
        converged = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sites = rng.uniform(0.0, 0.9, 2) + 0.1 * rng.random((25, 2))
            nu = DiscreteMeasure(np.ones(25), points=sites)
            converged += semidiscrete_solve(nu, d=2, grid_res=96).stop_reason == "tol"
        assert converged >= 18

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_start_cells_are_the_voronoi_cells_of_the_mapped_box(self, d, rng):
        # at the start weights (a tol no residual reaches stops before any
        # step) each point lies in the cell of the nearest 1/2 + s (y - c),
        # c the centre of the sites' box and s = 0.8 / its longest side
        draws = (
            rng.uniform(0, 1, (12, d)),
            rng.uniform(-0.5, 1.5, (12, d)),
            rng.uniform(0.0, 0.9, d) + 0.1 * rng.random((12, d)),
            3.0 + 0.02 * rng.random((12, d)),
        )
        for sites in draws:
            nu = DiscreteMeasure(np.ones(12), points=sites)
            start = semidiscrete_solve(nu, d, grid_res=8, tol=2.0)
            assert start.iterations == 0
            lo, hi = sites.min(axis=0), sites.max(axis=0)
            mapped = 0.5 + 0.8 / np.max(hi - lo) * (sites - (lo + hi) / 2)
            x = rng.uniform(0, 1, (500, d))
            nearest = np.argmin(_sq_dists(x, mapped), axis=1)
            assert np.array_equal(laguerre_assign(x, start), nearest)

    @pytest.mark.parametrize(
        "width, steps",
        [(1e-12, 3), (1e-6, 3), (1e-3, 3), (0.0, None), ("shared", None)],
    )
    def test_start_of_degenerate_boxes(self, width, steps):
        # five sites in a box 1e-12 to 1e-3 wide converge in a few steps
        # from finite start weights; a box of no width (coincident sites)
        # starts at zero weights; sites sharing their first coordinate have
        # cells of whole grid rows, 1/64 of the mass each, so they run to
        # the cap from a finite start
        rng = np.random.default_rng(5)
        if width == "shared":
            sites = np.column_stack([np.full(5, 0.3), rng.uniform(0.25, 0.75, 5)])
        else:
            sites = 0.37 + width * rng.random((5, 2))
        nu = DiscreteMeasure(rng.uniform(0.5, 1.5, 5), points=sites)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = semidiscrete_solve(nu, 2, grid_res=64, tol=2.0)
            diag = semidiscrete_solve(nu, 2, grid_res=64, max_iter=50)
        assert np.isfinite(start.weights).all() and np.isfinite(diag.weights).all()
        if width == 0.0:
            assert not start.weights.any()
        if steps is not None:
            assert diag.stop_reason == "tol" and diag.iterations <= steps
        elif width == "shared":
            assert diag.stop_reason == "max_iter"

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coincident_sites_have_no_facets(self, d):
        # every grid point ties to site 0, so the facet graph has no edge and
        # the Laplacian is zero: the Jacobi diagonal of the conjugate
        # gradients is the ridge alone, which its floor of 1 keeps at 1e-9
        # (1e-9 max diag would be 0, and the step infinite), and every step
        # empties site 0's cell
        nu = DiscreteMeasure(np.ones(5), points=np.full((5, d), 0.4))
        diag = semidiscrete_solve(nu, d, grid_res={1: 64, 2: 16, 3: 8}[d])
        assert diag.stop_reason == "step_exhausted" and diag.iterations == 0
        assert np.isfinite(diag.weights).all()

    def test_normal_sites_converge_in_few_steps(self, rng):
        # most of the 60 sites lie outside the cube, and at zero weights more
        # than half of their cells are empty; laguerre_two_pass_loop's
        # gradient ascent takes 693 steps here
        sites = rng.standard_normal((60, 2))
        assert np.sum(laguerre_grid_masses(sites, np.zeros(60), 128) == 0) > 30
        self.assert_converges_within(sites, 128, 20)


class TestNeighbourLaplacian:
    """The facet Laplacian counted from neighbouring grid points."""

    RES = {1: (512, 7), 2: (96, 9), 3: (20, 5)}

    @staticmethod
    def laplacian(sites, psi, res):
        n, d = sites.shape
        _, _, idx = _score(_grid_sq_dists(d, res, sites), psi, np.full(n, 1.0 / n))
        return dense_laplacian(_neighbour_laplacian(idx, sites, res), n)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_counts_match_the_loop(self, d, rng):
        # each off-diagonal entry is -c_ij / (2 res^(d-1) |y_i - y_j|_1) for
        # the oracle's count c_ij, and rows sum to 0; site 6 copies site 2,
        # so its cell is empty and its row zero
        for res in self.RES[d]:
            for sites in (rng.uniform(0, 1, (9, d)), rng.uniform(-0.5, 1.5, (9, d))):
                sites[6] = sites[2]
                psi = rng.normal(0, 0.02, 9)
                psi[6] = psi[2]
                lap = self.laplacian(sites, psi, res)
                counts = laguerre_neighbour_counts(sites, psi, res)
                span = np.abs(sites[:, None, :] - sites[None, :, :]).sum(axis=2)
                expected = np.divide(
                    counts, 2.0 * res ** (d - 1) * span,
                    out=np.zeros((9, 9)), where=counts > 0,
                )
                off = ~np.eye(9, dtype=bool)
                assert counts.any() and not counts[6].any()
                assert np.array_equal(-lap[off], expected[off])
                assert np.array_equal(lap, lap.T) and not lap[6].any()
                scale = 1e-12 * lap.diagonal().max()
                assert np.allclose(lap.sum(axis=1), 0.0, atol=scale)

    @pytest.mark.parametrize("res", [64, 512, 4096])
    def test_two_sites_on_a_line(self, res):
        # the facet is a point, so the Hessian weight is 1 / (2 |y_1 - y_2|)
        sites = np.array([[0.2], [0.7]])
        weight = 1.0 / (2.0 * (0.7 - 0.2))
        lap = self.laplacian(sites, np.array([0.013, 0.0]), res)
        assert np.array_equal(lap, [[weight, -weight], [-weight, weight]])

    @pytest.mark.parametrize("res", [9, 64, 96])
    def test_two_sites_in_the_square(self, res):
        # the facet x_0 = 1/2 has length 1 at distance 1/2: weight 1, crossed
        # by one axis-0 pair on each of the res grid lines
        lap = self.laplacian(np.array([[0.25, 0.5], [0.75, 0.5]]), np.zeros(2), res)
        assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])
        # the diagonal facet has length sqrt 2 at distance sqrt 1/2: weight 1
        lap = self.laplacian(np.array([[0.25, 0.25], [0.75, 0.75]]), np.zeros(2), res)
        assert lap[0, 1] == pytest.approx(-1.0, abs=2.0 / res)


class TestNewtonStep:
    """The conjugate-gradient Newton step against LU on the dense Laplacian."""

    RES = {1: (512, 7), 2: (96, 9), 3: (20, 5)}

    @staticmethod
    def steps(sites, psi, res):
        n, d = sites.shape
        q = np.arange(1.0, n + 1) / (n * (n + 1) / 2)
        _, masses, idx = _score(_grid_sq_dists(d, res, sites), psi, q)
        edges = _neighbour_laplacian(idx, sites, res)
        grad = q - masses
        step = _newton_step(*edges, grad)
        return step, newton_step_dense(dense_laplacian(edges, n), grad), masses

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_the_dense_solve(self, d, rng):
        # site 6 copies site 2, so its cell is empty and its unknown meets
        # only the ridge; the last site's weight of 0.1 wins it the grid
        # point nearest to it, a cell whose facets tie the graph to the
        # fixed weight
        for res in self.RES[d]:
            for _ in range(3):
                sites = rng.uniform(0, 1, (9, d))
                sites[6] = sites[2]
                psi = rng.normal(0, 0.002, 9)
                psi[6], psi[-1] = psi[2], 0.1
                step, expected, masses = self.steps(sites, psi, res)
                assert masses[6] == 0 and masses[-1] > 0
                assert step[-1] == 0.0
                err = np.linalg.norm(step - expected)
                assert err <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_a_graph_apart_from_the_fixed_weight(self, d, rng):
        # the last site copies site 0, so its cell is empty and the others'
        # facet graph floats on the ridge alone: its condition number is
        # about 1e9 / 1e-9-ridge, and LU on it is itself good to about
        # 1e9 eps, so the two steps agree to 1e-6
        for res in self.RES[d]:
            sites = rng.uniform(0, 1, (9, d))
            sites[-1] = sites[0]
            psi = rng.normal(0, 0.002, 9)
            psi[-1] = psi[0]
            step, expected, masses = self.steps(sites, psi, res)
            assert masses[-1] == 0 and step[-1] == 0.0
            assert np.linalg.norm(step - expected) <= 1e-6 * np.linalg.norm(expected)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_coincident_sites_and_one_site(self, d):
        # no edge: the system is the ridge of 1e-9 alone, which the Jacobi
        # diagonal solves in one iteration; site 0 holds all the mass, and
        # one site has no unknown, so its step is 0
        step, expected, _ = self.steps(np.full((5, d), 0.4), np.zeros(5), 8)
        grad = np.arange(1.0, 6.0) / 15.0 - np.eye(5)[0]
        assert np.array_equal(step, expected)
        assert step == pytest.approx(np.append(grad[:-1] / 1e-9, 0.0), rel=1e-15)
        step, expected, _ = self.steps(np.full((1, d), 0.4), np.zeros(1), 8)
        assert np.array_equal(step, [0.0]) and np.array_equal(expected, [0.0])

    def test_step_peak_is_the_distance_array(self):
        # a one-step 1-D solve of 1 000 sites on 4 096 cells holds the
        # distances and arrays of grid points, sites and facets: the dense
        # n x n Laplacian took 7.9 MiB more
        n = 1000
        sites = np.random.default_rng(0).uniform(0, 1, (n, 1))
        nu = DiscreteMeasure(np.ones(n), points=sites)
        d2_bytes = 8 * n * DEFAULT_GRID_RES[1]
        tracemalloc.start()
        try:
            diag = semidiscrete_solve(nu, 1, max_iter=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.iterations == 1
        assert peak <= d2_bytes + 2**20


class TestScore:
    """Site-at-a-time scoring against the row-wise argmin of the oracle."""

    RES = {1: (512, 7), 2: (96, 9), 3: (20, 5)}

    @staticmethod
    def assert_matches_oracle(sites, psi, grid_res):
        n, d = sites.shape
        q = np.arange(1.0, n + 1) / (n * (n + 1) / 2)
        d2 = _grid_sq_dists(d, grid_res, sites)
        objective, masses, idx = _score(d2, psi, q)
        expected = laguerre_grid_best(sites, q, psi, grid_res)
        assert np.float64(objective).tobytes() == np.float64(expected[0]).tobytes()
        for got, want in zip((masses, idx), expected[1:]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        return idx

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_sites(self, d, rng):
        for res in self.RES[d]:
            for n in (2, 16, 40):
                sites = rng.uniform(0, 1, (n, d))
                self.assert_matches_oracle(sites, rng.normal(0, 0.02, n), res)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_duplicated_sites_tie_to_the_lower_index(self, d, rng):
        sites = rng.uniform(0, 1, (6, d))
        sites[4] = sites[1]
        psi = rng.normal(0, 0.02, 6)
        psi[4] = psi[1]
        for res in self.RES[d]:
            idx = self.assert_matches_oracle(sites, psi, res)
            assert not np.any(idx == 4) and np.any(idx == 1)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grid_points_on_a_bisector_tie(self, d, rng):
        # an odd res puts a layer of midpoints at x_0 = 0.5, which sites 2
        # and 0, mirror images across it, score exactly alike
        sites = rng.uniform(0, 1, (4, d))
        sites[0, 0], sites[2, 0] = 0.75, 0.25
        sites[2, 1:] = sites[0, 1:]
        psi = np.array([0.0, -0.3, 0.0, -0.3])
        res = self.RES[d][1]
        idx = self.assert_matches_oracle(sites, psi, res)
        d2 = _grid_sq_dists(d, res, sites)
        tied = d2[0] - psi[0] == d2[2] - psi[2]
        assert np.any(tied & (idx == 0)) and not np.any(tied & (idx == 2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_site_has_no_facets(self, d, rng):
        for res in self.RES[d]:
            sites = rng.uniform(0, 1, (1, d))
            idx = self.assert_matches_oracle(sites, np.array([0.4]), res)
            assert not idx.any()
            # no neighbouring points lie in different cells
            assert all(a.size == 0 for a in _neighbour_laplacian(idx, sites, res))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sites_outside_the_cube(self, d, rng):
        for res in self.RES[d]:
            sites = rng.uniform(-0.5, 1.5, (12, d))
            idx = self.assert_matches_oracle(sites, np.zeros(12), res)
            assert np.bincount(idx, minlength=12).min() == 0
            self.assert_matches_oracle(sites, rng.normal(0, 0.5, 12), res)

    def test_solve_peak_is_one_distance_array(self):
        # the scores are taken one site at a time, so beside the 128^2 x 100
        # distances (12.5 MiB) a solve holds only arrays of N entries, which
        # the 0.2 x d2 (20 such arrays) covers: 13.9 MiB in all, where
        # two-argmin scoring of an N x n copy took 26.7 MiB
        sites = np.random.default_rng(0).uniform(0, 1, (100, 2))
        nu = DiscreteMeasure(np.ones(100), points=sites)
        d2_bytes = _grid_sq_dists(2, 128, sites).nbytes
        tracemalloc.start()
        try:
            diag = semidiscrete_solve(nu, 2, grid_res=128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert diag.converged
        assert peak <= 1.2 * d2_bytes + 2**20


class TestVectorQuantile:
    def test_single_site_everywhere(self):
        nu = DiscreteMeasure([1.0], points=np.array([[0.3, 0.3]]))
        diag = semidiscrete_solve(nu, d=2, grid_res=64)
        for u in ([0.0, 0.0], [0.5, 0.5], [1.0, 1.0]):
            assert np.allclose(vector_quantile(diag, np.array(u)), [0.3, 0.3])

    def test_symmetric_pair_membership(self):
        nu = DiscreteMeasure(
            [0.5, 0.5], points=np.array([[0.25, 0.5], [0.75, 0.5]])
        )
        diag = semidiscrete_solve(nu, d=2, grid_res=128)
        assert np.allclose(vector_quantile(diag, np.array([0.3, 0.5])), [0.25, 0.5])

    def test_line_boundary_sides(self):
        nu = DiscreteMeasure([0.25, 0.75], points=np.array([[0.0], [1.0]]))
        diag = semidiscrete_solve(nu, d=1, grid_res=4096, tol=1e-4)
        assert np.allclose(vector_quantile(diag, np.array([0.2])), [0.0])
        assert np.allclose(vector_quantile(diag, np.array([0.3])), [1.0])

    def test_outside_cube_rejected(self):
        nu = DiscreteMeasure([1.0], points=np.array([[0.5]]))
        diag = semidiscrete_solve(nu, d=1)
        with pytest.raises(DomainError):
            vector_quantile(diag, np.array([1.2]))
        with pytest.raises(DomainError):
            vector_quantile(diag, np.array([-0.1]))


class TestVectorRank:
    def test_single_observation(self):
        ra = vector_rank(np.array([[0.7, 0.7]]))
        assert ra.permutation.tolist() == [0]

    def test_dimension_one_sorts(self, rng):
        y = rng.normal(size=9)
        ra = vector_rank(y)
        ref = halton(9, 1).points[:, 0]
        order_obs = np.argsort(y, kind="stable")
        order_ref = np.argsort(ref, kind="stable")
        expected = np.empty(9, dtype=int)
        expected[order_obs] = order_ref
        assert np.array_equal(ra.permutation, expected)

    def test_bijection(self, rng):
        y = rng.normal(size=(17, 2))
        ra = vector_rank(y)
        assert np.array_equal(np.sort(ra.permutation), np.arange(17))

    @pytest.mark.parametrize("kind", sorted(SAMPLE_KINDS))
    def test_bijection_under_cost_ties(self, rng, kind):
        # every vertex of the uniform-marginal polytope is a permutation, so
        # one simplex solve yields an assignment even with tied costs; in
        # d = 1 the sorting permutation is optimal, ties included
        for n in (2, 7, 16, 39):
            for d in (1, 2, 3):
                y = SAMPLE_KINDS[kind](rng, n, d)
                ra = vector_rank(y)
                assert np.array_equal(np.sort(ra.permutation), np.arange(n))
                cost = np.sum((y[:, None, :] - ra.reference.points[None]) ** 2, axis=2)
                rows, cols = linear_sum_assignment(cost)
                assert cost[np.arange(n), ra.permutation].sum() == pytest.approx(
                    cost[rows, cols].sum(), rel=1e-12, abs=1e-12
                )

    def test_report_is_the_simplex_solves(self, rng):
        y = rng.normal(size=(12, 2))
        uniform = DiscreteMeasure(np.full(12, 1.0 / 12))
        cost = CostMatrix(_sq_dists(y, halton(12, 2).points))
        plan = solve_discrete_ot(uniform, uniform, cost)[0]
        ra = vector_rank(y)
        assert ra.converged and ra.iterations == plan.iterations > 0
        assert (ra.residual, ra.history) == (plan.residual, plan.history)
        # in d = 1 no solve runs
        line = vector_rank(y[:, 0])
        assert line.converged and line.iterations == 0

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 24), seed=st.integers(0, 2**32 - 1), ties=st.booleans())
    def test_every_capped_basis_is_an_assignment(self, n, seed, ties):
        # with uniform marginals the matrix-minimum start allocates exactly
        # 1/n per cell and each pivot moves exactly 0 or 1/n, so the last
        # basis at any cap is a permutation matrix
        y = np.random.default_rng(seed).standard_normal((n, 2))
        if ties:
            y = np.round(y)
        uniform = DiscreteMeasure(np.full(n, 1.0 / n))
        cost = CostMatrix(_sq_dists(y, halton(n, 2).points))
        pivots = solve_discrete_ot(uniform, uniform, cost)[0].iterations
        for cap in range(1, pivots + 1):
            plan = solve_discrete_ot(uniform, uniform, cost, max_iter=cap)[0]
            assert np.all((plan.mass == 0.0) | (plan.mass == 1.0 / n))
            assert sorted(extract_assignment(plan)) == list(range(n))

    def test_ranks_are_reference_rows(self, rng):
        y = rng.normal(size=(8, 2))
        ra = vector_rank(y)
        assert np.allclose(ra.ranks, ra.reference.points[ra.permutation])

    def test_cyclical_monotonicity_swap(self, rng):
        y = rng.normal(size=(40, 2))
        ra = vector_rank(y)
        v = ra.ranks
        idx = rng.integers(0, 40, size=(1000, 2))
        for i, k in idx:
            direct = np.sum((y[i] - v[i]) ** 2) + np.sum((y[k] - v[k]) ** 2)
            swapped = np.sum((y[i] - v[k]) ** 2) + np.sum((y[k] - v[i]) ** 2)
            assert direct <= swapped + 1e-9

    def test_three_point_permutation_frequencies(self, rng):
        # each of the 3! assignments should be equally likely for an
        # exchangeable absolutely continuous sample
        reps = 5000
        counts = {p: 0 for p in itertools.permutations(range(3))}
        for _ in range(reps):
            y = rng.standard_normal((3, 2))
            counts[tuple(vector_rank(y).permutation)] += 1
        p = 1.0 / 6.0
        se = np.sqrt(p * (1 - p) / reps)
        for perm, c in counts.items():
            assert abs(c / reps - p) <= 4 * se, (perm, c / reps)


# the input checks no other test reaches on every run, each with the start
# of its message
REJECTED = {
    "sites without locations": (
        lambda: semidiscrete_solve(DiscreteMeasure([1.0]), d=1),
        "measure carries no atom locations",
    ),
    "dimension 4": (
        lambda: semidiscrete_solve(DiscreteMeasure([1.0], points=np.full((1, 4), 0.5)), d=4),
        "dimension must be 1, 2 or 3, got 4",
    ),
    "site without mass": (
        lambda: semidiscrete_solve(DiscreteMeasure([0.0, 1.0], points=[0.2, 0.8]), d=1),
        "site masses must be strictly positive",
    ),
    "diagram sizes": (
        lambda: LaguerreDiagram(np.zeros((2, 1)), np.zeros(3), np.full(2, 0.5)),
        "sites, weights and target_masses must align",
    ),
    "query dimension": (
        lambda: laguerre_assign(np.zeros((1, 2)), two_site_line(0.0)),
        "points must have dimension 1",
    ),
    "quantile level dimension": (
        lambda: vector_quantile(two_site_line(0.0), np.full(2, 0.5)),
        "u must have dimension 1",
    ),
    "permutation length": (
        lambda: RankAssignment(np.arange(2), halton(3, 1)),
        "permutation length must match the reference set",
    ),
    "permutation not a bijection": (
        lambda: RankAssignment(np.array([0, 0, 2]), halton(3, 1)),
        "permutation must be a bijection on 0..n-1",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_input_check(name):
    build, message = REJECTED[name]
    with pytest.raises(DomainError, match="^" + re.escape(message)):
        build()

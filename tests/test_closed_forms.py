"""Closed-form values on the line, Gaussian maps, sliced distance, barycenters."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from otecon import (
    AffineMap,
    DiscreteMeasure,
    CostMatrix,
    DomainError,
    GaussianMeasure,
    NotInvertibleError,
    ResourceError,
    Sample1D,
    barycenter_1d,
    gaussian_ot_map,
    gaussian_w2,
    ot_value_1d,
    sliced_wasserstein,
    solve_discrete_ot,
    wasserstein_1d,
)
from otecon import closed_forms
from otecon.closed_forms import _merged_grid
from oracles import (
    lp_transport_value,
    merged_segments_loop,
    philox_directions,
    sliced_one_shot,
    wasserstein_log_space,
)

abs_cost = lambda a, b: abs(a - b)
sq_cost = lambda a, b: (a - b) ** 2


def lp_value_on_atoms(x, y, cost_fn):
    mu = DiscreteMeasure(np.full(x.n, 1.0 / x.n))
    nu = DiscreteMeasure(np.full(y.n, 1.0 / y.n))
    c = CostMatrix([[cost_fn(a, b) for b in y.values] for a in x.values])
    _, _, value = solve_discrete_ot(mu, nu, c)
    return value


class TestOtValue1D:
    def test_identical_samples_zero(self):
        s = Sample1D([0.3, 1.1, 2.0])
        assert ot_value_1d(s, s, abs_cost) == 0.0

    def test_sorted_pairing_equal_sizes(self):
        assert ot_value_1d(Sample1D([1, 2]), Sample1D([3, 5]), abs_cost) == pytest.approx(2.5)

    def test_unequal_sizes_match_lp(self):
        x = Sample1D([0.0, 1.0])
        y = Sample1D([0.0, 1.0, 2.0])
        value = ot_value_1d(x, y, abs_cost)
        assert value == pytest.approx(lp_value_on_atoms(x, y, abs_cost), abs=1e-12)

    def test_quadratic_matches_lp_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 12))
            x = Sample1D.from_data(rng.normal(size=n))
            y = Sample1D.from_data(rng.normal(size=n))
            assert ot_value_1d(x, y, sq_cost) == pytest.approx(
                lp_value_on_atoms(x, y, sq_cost), abs=1e-9
            )


class TestWasserstein1D:
    def test_translation_every_order(self):
        x = Sample1D([0.0, 0.4, 1.9])
        for c in (-2.5, 0.75):
            y = Sample1D(x.values + c)
            for p in (1.0, 2.0, 3.5):
                assert wasserstein_1d(x, y, p) == pytest.approx(abs(c), rel=1e-12)

    def test_identical_zero(self):
        x = Sample1D([0.0, 1.0])
        for p in (1.0, 2.0, 7.0):
            assert wasserstein_1d(x, x, p) == 0.0

    def test_paired_unit_differences(self):
        assert wasserstein_1d(Sample1D([0, 2]), Sample1D([1, 3]), p=2) == pytest.approx(1.0)

    def test_order_above_1022(self):
        # the largest gap scaled into (1/2, 1] is 0.505, whose 1100th power
        # is 0 in floats: both distances returned 0.0
        x, y = np.zeros(2), np.array([0.9, 1.01])
        want = wasserstein_log_space(x, y, 1100.0)
        assert want == pytest.approx(1.009364, rel=1e-6)
        assert wasserstein_1d(Sample1D(x), Sample1D(y), 1100.0) == pytest.approx(
            want, rel=1e-12, abs=0.0
        )
        assert sliced_wasserstein(x, y, p=1100.0) == pytest.approx(
            want, rel=1e-12, abs=0.0
        )

    def test_order_below_one_rejected(self):
        with pytest.raises(DomainError):
            wasserstein_1d(Sample1D([0.0]), Sample1D([1.0]), p=0.5)

    def test_triangle_inequality(self, rng):
        for _ in range(25):
            sizes = rng.integers(1, 9, size=3)
            x, y, z = (Sample1D.from_data(rng.normal(size=int(k))) for k in sizes)
            for p in (1.0, 2.0):
                dxy = wasserstein_1d(x, y, p)
                dyz = wasserstein_1d(y, z, p)
                dxz = wasserstein_1d(x, z, p)
                assert dxz <= dxy + dyz + 1e-12

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=10),
        st.lists(st.floats(-100, 100), min_size=1, max_size=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_nonnegativity(self, xs, ys):
        x, y = Sample1D.from_data(xs), Sample1D.from_data(ys)
        d = wasserstein_1d(x, y, 2.0)
        assert d >= 0.0
        assert d == pytest.approx(wasserstein_1d(y, x, 2.0), rel=1e-12, abs=1e-12)


class TestMergedGrid:
    # Size pairs whose breakpoints (i+1)/m and (j+1)/n coincide as floats;
    # each shared point must merge into one grid breakpoint.
    SIZES = [(4, 6), (3, 9), (5, 5), (1, 7), (7, 1)]

    @pytest.mark.parametrize("m, n", SIZES)
    def test_shared_breakpoints_merge(self, m, n):
        lengths, ix, iy = _merged_grid(m, n)
        assert lengths.size == m + n - math.gcd(m, n)
        assert np.all(lengths > 0)
        assert np.sum(lengths) == pytest.approx(1.0, abs=1e-15)
        assert np.all(np.diff(ix) >= 0) and np.all(np.diff(iy) >= 0)
        assert (ix[0], iy[0], ix[-1], iy[-1]) == (0, 0, m - 1, n - 1)

    @staticmethod
    def assert_miss_and_hit_match_loop(m, n):
        ref_lengths, ref_ix, ref_iy = merged_segments_loop(m, n)
        _merged_grid.cache_clear()
        for _ in range(2):  # built, then read from the cache
            lengths, ix, iy = _merged_grid(m, n)
            assert lengths.tolist() == ref_lengths
            assert ix.tolist() == ref_ix and iy.tolist() == ref_iy
        assert _merged_grid.cache_info().hits == 1

    @pytest.mark.parametrize("m, n", SIZES + [(1, 1), (49, 70), (2000, 1900)])
    def test_matches_segment_loop(self, m, n):
        self.assert_miss_and_hit_match_loop(m, n)

    @given(st.integers(1, 3000), st.integers(1, 3000))
    @example(3000, 2999)
    @example(1, 3000)
    @example(3000, 1)
    @example(2048, 3000)
    @settings(max_examples=60, deadline=None)
    def test_matches_segment_loop_any_sizes(self, m, n):
        self.assert_miss_and_hit_match_loop(m, n)

    def test_cached_grid_is_read_only(self):
        for arr in _merged_grid(49, 70):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0

    def test_hit_returns_the_same_arrays(self):
        first = _merged_grid(49, 70)
        assert all(a is b for a, b in zip(first, _merged_grid(49, 70)))

    def test_cache_size_is_bounded(self):
        _merged_grid.cache_clear()
        limit = _merged_grid.cache_info().maxsize
        for m in range(1, 3 * limit):
            _merged_grid(m, m + 1)
            assert _merged_grid.cache_info().currsize <= limit

    @pytest.mark.parametrize("m, n", SIZES)
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_values_match_lp(self, rng, m, n, p):
        x = Sample1D.from_data(rng.normal(size=m))
        y = Sample1D.from_data(rng.normal(loc=0.3, size=n))
        cost = np.abs(x.values[:, None] - y.values[None, :]) ** p
        lp = lp_transport_value(np.full(m, 1.0 / m), np.full(n, 1.0 / n), cost)
        assert wasserstein_1d(x, y, p) ** p == pytest.approx(lp, rel=1e-9, abs=1e-12)
        assert ot_value_1d(x, y, lambda a, b: abs(a - b) ** p) == pytest.approx(
            lp, rel=1e-9, abs=1e-12
        )
        sliced = sliced_wasserstein(x.values[:, None], y.values[:, None], p=p, n_dir=3)
        assert sliced**p == pytest.approx(lp, rel=1e-9, abs=1e-12)


class TestGaussianMap:
    def test_pure_translation(self):
        g1 = GaussianMeasure(np.zeros(2), np.eye(2))
        g2 = GaussianMeasure(np.array([1.0, -2.0]), np.eye(2))
        tm = gaussian_ot_map(g1, g2)
        assert np.allclose(tm.linear, np.eye(2), atol=1e-12)
        assert np.allclose(tm.shift, [1.0, -2.0], atol=1e-12)

    def test_scalar_scale(self):
        g1 = GaussianMeasure([0.0], [[1.0]])
        g2 = GaussianMeasure([0.0], [[4.0]])
        tm = gaussian_ot_map(g1, g2)
        assert tm.linear[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_commuting_diagonal(self):
        g1 = GaussianMeasure(np.zeros(2), np.diag([1.0, 4.0]))
        g2 = GaussianMeasure(np.zeros(2), np.diag([9.0, 1.0]))
        tm = gaussian_ot_map(g1, g2)
        assert np.allclose(tm.linear, np.diag([3.0, 0.5]), atol=1e-10)

    def test_conjugation_identity(self, rng):
        for _ in range(10):
            d = int(rng.integers(1, 5))
            b1 = rng.normal(size=(d, d))
            b2 = rng.normal(size=(d, d))
            g1 = GaussianMeasure(rng.normal(size=d), b1 @ b1.T + 0.5 * np.eye(d))
            g2 = GaussianMeasure(rng.normal(size=d), b2 @ b2.T + 0.5 * np.eye(d))
            tm = gaussian_ot_map(g1, g2)
            assert np.allclose(tm.linear @ g1.cov @ tm.linear, g2.cov, atol=1e-8)

    def test_singular_source_rejected(self):
        g1 = GaussianMeasure(np.zeros(2), np.diag([1.0, 0.0]))
        g2 = GaussianMeasure(np.zeros(2), np.eye(2))
        with pytest.raises(NotInvertibleError):
            gaussian_ot_map(g1, g2)

    def test_input_checks(self):
        g1 = GaussianMeasure(np.zeros(1), np.eye(1))
        g2 = GaussianMeasure(np.zeros(2), np.eye(2))
        for solve in (gaussian_ot_map, gaussian_w2):
            with pytest.raises(DomainError, match="dimension mismatch: 1 vs 2"):
                solve(g1, g2)
        with pytest.raises(DomainError, match="linear must be 2 x 2, got"):
            AffineMap(np.eye(3), np.zeros(2))

    def test_pushforward_moments(self, rng):
        g1 = GaussianMeasure([0.5, -1.0], [[2.0, 0.6], [0.6, 1.0]])
        g2 = GaussianMeasure([-2.0, 3.0], [[1.5, -0.4], [-0.4, 0.8]])
        tm = gaussian_ot_map(g1, g2)
        chol = np.linalg.cholesky(g1.cov)
        draws = g1.mean + rng.standard_normal((100000, 2)) @ chol.T
        mapped = tm(draws)
        assert np.linalg.norm(mapped.mean(axis=0) - g2.mean) < 0.02
        emp_cov = np.cov(mapped.T)
        assert np.linalg.norm(emp_cov - g2.cov, ord="fro") < 0.05


class TestGaussianW2:
    def test_coincident(self):
        g = GaussianMeasure([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        assert gaussian_w2(g, g) == pytest.approx(0.0, abs=1e-7)

    def test_scalar_mean_shift(self):
        g1 = GaussianMeasure([0.0], [[1.0]])
        g2 = GaussianMeasure([3.0], [[1.0]])
        assert gaussian_w2(g1, g2) == pytest.approx(3.0, abs=1e-10)

    def test_diagonal_value(self):
        g1 = GaussianMeasure(np.zeros(2), np.diag([1.0, 4.0]))
        g2 = GaussianMeasure(np.zeros(2), np.diag([9.0, 1.0]))
        assert gaussian_w2(g1, g2) == pytest.approx(np.sqrt(5.0), abs=1e-10)

    def test_scalar_agrees_with_empirical(self, rng):
        g1 = GaussianMeasure([0.3], [[1.44]])
        g2 = GaussianMeasure([-1.0], [[0.25]])
        exact = gaussian_w2(g1, g2)
        n = 100000
        x = Sample1D.from_data(g1.mean[0] + np.sqrt(g1.cov[0, 0]) * rng.standard_normal(n))
        y = Sample1D.from_data(g2.mean[0] + np.sqrt(g2.cov[0, 0]) * rng.standard_normal(n))
        assert wasserstein_1d(x, y, 2.0) == pytest.approx(exact, rel=0.02)


class TestSliced:
    def test_identical_clouds(self, rng):
        x = rng.normal(size=(15, 3))
        assert sliced_wasserstein(x, x, n_dir=10, seed=4) == 0.0

    def test_dimension_one_reduces_exactly(self, rng):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        sw = sliced_wasserstein(x, y, p=2.0, n_dir=7, seed=123)
        assert sw == pytest.approx(
            wasserstein_1d(Sample1D.from_data(x), Sample1D.from_data(y), 2.0), rel=1e-12
        )

    def test_translation_expectation(self, rng):
        d = 4
        v = np.array([0.8, -0.3, 0.5, 0.1])
        x = rng.normal(size=(40, d))
        sw = sliced_wasserstein(x, x + v, p=2.0, n_dir=20000, seed=7)
        assert sw == pytest.approx(np.linalg.norm(v) / np.sqrt(d), rel=0.02)

    def test_seed_reproducibility(self, rng):
        x = rng.normal(size=(10, 2))
        y = rng.normal(size=(10, 2))
        a = sliced_wasserstein(x, y, n_dir=50, seed=99)
        b = sliced_wasserstein(x, y, n_dir=50, seed=99)
        assert a == b
        assert sliced_wasserstein(x, y, n_dir=50, seed=100) != a

    def test_zero_dimension_rejected(self):
        with pytest.raises(DomainError):
            sliced_wasserstein(np.empty((3, 0)), np.empty((3, 0)))

    # 300 + 250 points: directions are taken in blocks of 119.
    BLOCK = 119

    def test_block_size(self):
        assert closed_forms.SLICED_BLOCK_VALUES // 550 == self.BLOCK

    @pytest.mark.parametrize("n_dir", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    def test_block_boundaries_match_one_shot(self, rng, n_dir, p):
        x = rng.normal(size=(300, 3))
        y = 0.4 + 1.3 * rng.normal(size=(250, 3))
        value = sliced_wasserstein(x, y, p=p, n_dir=n_dir, seed=n_dir)
        assert value == pytest.approx(sliced_one_shot(x, y, p, n_dir, n_dir), rel=1e-14)

    @pytest.mark.parametrize("scale", [1.0, 0.505, 0.5072])
    def test_blocks_at_large_order_match_log_space(self, scale):
        # at p = 1100 the largest gaps of the first three blocks grow from
        # block to block, and these scales put some where the 1100th power of
        # the gap over a power of two underflows: the sums are carried over
        # between scales set by a power of two and by a largest gap itself,
        # and the value was 0.0 at all three
        rng = np.random.default_rng(0)
        x = scale * rng.normal(size=(300, 3))
        y = scale * (0.4 + 1.3 * rng.normal(size=(250, 3)))
        n_dir = 3 * self.BLOCK + 5
        dirs = philox_directions(3, n_dir, 1)
        want = wasserstein_log_space(
            np.sort(dirs @ x.T, axis=1), np.sort(dirs @ y.T, axis=1), 1100.0
        )
        value = sliced_wasserstein(x, y, p=1100.0, n_dir=n_dir, seed=1)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_memory_bounded_at_projection_limit(self, rng):
        # 2 500 directions times 4 000 points is the limit itself; holding
        # every projection at once peaked at about 160 MB.
        x = rng.normal(size=(2000, 3))
        y = rng.normal(size=(2000, 3))
        tracemalloc.start()
        try:
            sliced_wasserstein(x, y, n_dir=2500, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_projection_limit(self):
        # 1 250 001 directions times 8 points is one entry over the limit
        x = np.zeros((4, 2))
        with pytest.raises(ResourceError, match="n_dir"):
            sliced_wasserstein(x, x, n_dir=1_250_001)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_rejected(self, seed):
        x = np.zeros((3, 2))
        with pytest.raises(DomainError, match="seed"):
            sliced_wasserstein(x, x, seed=seed)

    @pytest.mark.parametrize(
        "kwargs", [{"seed": 1.5}, {"seed": True}, {"n_dir": 2.5}, {"n_dir": True}]
    )
    def test_non_integer_count_or_seed_rejected(self, kwargs):
        x = np.zeros((3, 2))
        with pytest.raises(DomainError, match="must be an integer"):
            sliced_wasserstein(x, x, **kwargs)

    def test_numpy_integers_accepted(self, rng):
        x, y = rng.normal(size=(6, 2)), rng.normal(size=(5, 2))
        value = sliced_wasserstein(x, y, n_dir=np.int64(9), seed=np.uint8(4))
        assert value == sliced_wasserstein(x, y, n_dir=9, seed=4)

    def test_mismatched_dimension_rejected(self, rng):
        with pytest.raises(DomainError):
            sliced_wasserstein(rng.normal(size=(4, 2)), rng.normal(size=(4, 3)))


class TestBarycenter1D:
    def test_single_sample_identity(self):
        s = Sample1D.from_data([0.1, 0.9, 0.4])
        out = barycenter_1d([s], np.array([1.0]))
        assert np.array_equal(out.values, s.values)

    def test_two_diracs(self):
        out = barycenter_1d([Sample1D([0.0]), Sample1D([1.0])], np.array([0.5, 0.5]))
        assert np.allclose(out.values, [0.5])

    def test_order_statistic_average(self):
        out = barycenter_1d([Sample1D([0, 2]), Sample1D([1, 3])], np.array([0.5, 0.5]))
        assert np.allclose(out.values, [0.5, 2.5])

    def test_unequal_sizes_rejected(self):
        with pytest.raises(DomainError):
            barycenter_1d([Sample1D([0.0]), Sample1D([0.0, 1.0])], np.array([0.5, 0.5]))

    def test_weight_validation(self):
        s = Sample1D([0.0])
        with pytest.raises(DomainError):
            barycenter_1d([s, s], np.array([0.7, 0.7]))
        with pytest.raises(DomainError):
            barycenter_1d([s, s], np.array([1.5, -0.5]))
        with pytest.raises(DomainError, match="need 2 weights, got 1"):
            barycenter_1d([s, s], np.array([1.0]))
        with pytest.raises(DomainError, match="need at least one sample"):
            barycenter_1d([], np.array([]))

    def test_local_optimality(self, rng):
        samples = [Sample1D.from_data(rng.normal(size=6)) for _ in range(3)]
        lam = np.array([0.2, 0.5, 0.3])
        center = barycenter_1d(samples, lam)

        def objective(candidate):
            return sum(
                w * wasserstein_1d(candidate, s, 2.0) ** 2 for w, s in zip(lam, samples)
            )

        base = objective(center)
        for _ in range(50):
            jitter = Sample1D.from_data(center.values + 0.05 * rng.standard_normal(6))
            assert base <= objective(jitter) + 1e-12

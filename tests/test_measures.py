"""Core containers, quantile/CDF machinery, Halton points, SPD roots."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import halton_loop
from otecon import (
    AffineMap,
    DiscreteMeasure,
    DomainError,
    GaussianMeasure,
    HaltonSet,
    NotPSDError,
    Sample1D,
    empirical_cdf,
    empirical_quantile,
    halton,
    spd_sqrt,
)
from otecon._util import PRIMES

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestDiscreteMeasure:
    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            DiscreteMeasure([0.5, -0.1])

    def test_points_length_must_match(self):
        with pytest.raises(DomainError):
            DiscreteMeasure([0.5, 0.5], points=[[0.0]])

    def test_immutable(self):
        m = DiscreteMeasure([1.0, 2.0])
        with pytest.raises(ValueError):
            m.weights[0] = 3.0

    def test_total_mass_and_dim(self):
        m = DiscreteMeasure([1.0, 2.0], points=[[0.0, 1.0], [2.0, 3.0]])
        assert m.total_mass == 3.0
        assert m.dim == 2
        assert m.size == 2

    def test_flat_points_are_one_column(self):
        m = DiscreteMeasure([1.0, 2.0], points=[0.0, 1.0])
        assert m.points.tolist() == [[0.0], [1.0]]
        assert m.dim == 1


class TestSample1D:
    def test_requires_sorted(self):
        with pytest.raises(DomainError):
            Sample1D([2.0, 1.0])

    def test_from_data_sorts(self):
        s = Sample1D.from_data([3.0, 1.0, 2.0])
        assert s.values.tolist() == [1.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Sample1D([])


class TestQuantile:
    def test_single_atom(self):
        assert empirical_quantile(Sample1D([5.0]), 0.7) == 5.0

    def test_order_statistic(self):
        # ceil(0.5 * 4) = 2nd order statistic
        assert empirical_quantile(Sample1D([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0

    def test_t_one_is_max(self):
        assert empirical_quantile(Sample1D([1.0, 2.0, 3.0, 4.0]), 1.0) == 4.0

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.0000001])
    def test_domain(self, t):
        with pytest.raises(DomainError):
            empirical_quantile(Sample1D([1.0]), t)

    @given(st.lists(finite_floats, min_size=1, max_size=40))
    def test_grid_hits_each_order_statistic(self, data):
        # quantiles over the midpoint grid reproduce the sample exactly,
        # so in particular their mean is the sample mean
        s = Sample1D.from_data(data)
        n = s.n
        grid = [(i - 0.5) / n for i in range(1, n + 1)]
        quantiles = [empirical_quantile(s, t) for t in grid]
        assert quantiles == s.values.tolist()
        grid_mean = sum(quantiles) / n
        assert grid_mean == pytest.approx(float(np.mean(s.values)), rel=1e-12, abs=1e-12)

    @given(
        st.lists(finite_floats, min_size=1, max_size=40),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    )
    def test_cdf_of_quantile_covers_t(self, data, t):
        s = Sample1D.from_data(data)
        assert empirical_cdf(s, empirical_quantile(s, t)) >= t

    @given(
        st.lists(finite_floats, min_size=1, max_size=40),
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1,
            max_size=12,
        ),
    )
    def test_array_matches_scalar_calls(self, data, levels):
        # the sample's own values and the k/n grid put ties and breakpoints
        # among the arguments
        s = Sample1D.from_data(data)
        t = np.array(levels + [k / s.n for k in range(1, s.n + 1)])
        q = empirical_quantile(s, t)
        assert q.tolist() == [empirical_quantile(s, x) for x in t]
        y = np.concatenate((q, s.values, s.values + 0.5))
        f = empirical_cdf(s, y)
        assert f.tolist() == [empirical_cdf(s, x) for x in y]
        assert empirical_quantile(s, t.reshape(1, -1)).shape == (1, t.size)

    def test_array_domain(self):
        with pytest.raises(DomainError, match="got 0.0"):
            empirical_quantile(Sample1D([1.0]), np.array([0.5, 0.0, 1.0]))


class TestCdf:
    def test_below_support(self):
        assert empirical_cdf(Sample1D([1.0, 2.0, 3.0]), 0.0) == 0.0

    def test_interior(self):
        assert empirical_cdf(Sample1D([1.0, 2.0, 3.0]), 2.0) == pytest.approx(2 / 3)

    def test_above_support(self):
        assert empirical_cdf(Sample1D([1.0, 2.0, 3.0]), 10.0) == 1.0


class TestHalton:
    def test_base2_prefix(self):
        pts = halton(3, 1).points
        assert pts.ravel().tolist() == [0.5, 0.25, 0.75]

    def test_two_dims(self):
        pts = halton(2, 2).points
        assert pts[0].tolist() == pytest.approx([0.5, 1 / 3])
        assert pts[1].tolist() == pytest.approx([0.25, 2 / 3])

    def test_three_dims(self):
        ref = halton(1, 3)
        assert ref.points[0].tolist() == pytest.approx([0.5, 1 / 3, 0.2])
        assert (ref.n, ref.dim) == (1, 3)

    def test_prefix_stable(self):
        small = halton(5, 2).points
        large = halton(9, 2).points
        assert np.array_equal(large[:5], small)

    def test_dimension_cap(self):
        halton(1, 20)
        with pytest.raises(DomainError):
            halton(1, 21)

    def test_strict_interior(self):
        pts = halton(64, 3).points
        assert np.all(pts > 0) and np.all(pts < 1)

    def test_matches_digit_loop(self):
        bases = [2, 3, 5, 7, 11, 13]
        assert np.array_equal(halton(3000, 6).points, halton_loop(3000, bases))

    @pytest.mark.parametrize("d", range(1, 21))
    def test_digit_loop_at_powers_of_base(self, d):
        # n = b^k - 1, b^k and b^k + 1 for every b^k up to 5 041 = 71^2,
        # where the last level of digits is cut short or just full.
        base = PRIMES[d - 1]
        powers = [base**k for k in range(1, 13) if base**k <= 5041]
        ref = halton_loop(powers[-1] + 1, [base])[:, 0]
        for power in powers:
            for n in (power - 1, power, power + 1):
                if n >= 1:
                    assert np.array_equal(halton(n, d).points[:, d - 1], ref[:n])


class TestSpdSqrt:
    def test_identity(self):
        assert np.array_equal(spd_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        root = spd_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-12)

    def test_reconstruction(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        root = spd_sqrt(a)
        assert np.allclose(root @ root, a, atol=1e-10)
        assert np.allclose(root, root.T, atol=1e-12)

    def test_round_trip_random_spectra(self, rng):
        for d in (2, 3, 5):
            q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            b = q @ np.diag(rng.random(d) + 0.1) @ q.T
            b = (b + b.T) / 2
            assert np.allclose(spd_sqrt(b @ b), b, atol=1e-8)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSDError):
            spd_sqrt(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            spd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestGaussianMeasure:
    def test_rounding_noise_tolerated(self):
        cov = np.array([[1.0, 0.3], [0.3 + 1e-13, 1.0]])
        g = GaussianMeasure([0.0, 0.0], cov)
        assert np.array_equal(g.cov, g.cov.T)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            GaussianMeasure([0.0, 0.0], [[1.0, 0.5], [0.1, 1.0]])

    def test_negative_definite_rejected(self):
        with pytest.raises(DomainError):
            GaussianMeasure([0.0], [[-1.0]])


# each input that must be symmetric PSD, by the name its errors give it
PSD_CALLERS = {
    "cov": lambda a: GaussianMeasure(np.zeros(2), a),
    "matrix": spd_sqrt,
    "linear part": lambda a: AffineMap(a, np.zeros(2)),
}


class TestPsdBoundary:
    """One rule for every symmetric PSD input: asymmetry up to 1e-10 of the
    largest entry, and eigenvalues down to -1e-10 of the largest one."""

    @staticmethod
    def asymmetric(rel, scale):
        return scale * np.array([[1.0, 0.5 + rel], [0.5, 1.0]])

    @staticmethod
    def negative_eigenvalue(rel, scale):
        c, s = np.cos(0.3), np.sin(0.3)
        q = np.array([[c, -s], [s, c]])
        a = scale * (q @ np.diag([1.0, -rel]) @ q.T)
        return 0.5 * (a + a.T)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("name", sorted(PSD_CALLERS))
    def test_accepted_within_tolerance(self, name, scale):
        PSD_CALLERS[name](self.asymmetric(5e-11, scale))
        PSD_CALLERS[name](self.negative_eigenvalue(5e-11, scale))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("name", sorted(PSD_CALLERS))
    def test_rejected_beyond_tolerance(self, name, scale):
        with pytest.raises(DomainError, match=f"^{name} must be symmetric"):
            PSD_CALLERS[name](self.asymmetric(2e-10, scale))
        with pytest.raises(NotPSDError, match=f"^{name} has negative eigenvalue"):
            PSD_CALLERS[name](self.negative_eigenvalue(2e-10, scale))


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=4))
def test_halton_deterministic(n, d):
    assert np.array_equal(halton(n, d).points, halton(n, d).points)


# the input checks no other test reaches, each with the start of its message
REJECTED = {
    "sample not a vector": (lambda: Sample1D(np.zeros((2, 2))), "values must be 1-dimensional"),
    "measure without atoms": (lambda: DiscreteMeasure([]), "a measure needs at least one atom"),
    "dim without points": (lambda: DiscreteMeasure([1.0]).dim, "measure carries no atom locations"),
    "cov shape": (lambda: GaussianMeasure([0.0, 0.0], np.eye(3)), "cov must be 2 x 2"),
    "halton point on the cube": (lambda: HaltonSet([[0.0]]), "Halton points must lie"),
    "no halton points": (lambda: halton(0, 1), "n must be at least 1"),
    "fractional halton count": (lambda: halton(2.5, 2), "n must be an integer"),
    "bool halton count": (lambda: halton(True, 1), "n must be an integer"),
    "float halton dimension": (lambda: halton(3, 2.0), "d must be an integer"),
    "halton dimension past the primes": (lambda: halton(1, 21), "d must be at most 20"),
    "non-square root": (lambda: spd_sqrt(np.zeros((2, 3))), "matrix must be square"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_input_check(name):
    build, message = REJECTED[name]
    with pytest.raises(DomainError, match="^" + re.escape(message)):
        build()

"""The same answers at every scale: costs, masses, values and covariances.

Each check compares a difference against a relative constant times the
size of the data it compares, so scaling a problem by s = 10^k, or adding
a constant to its costs, must leave plans, certificates and verdicts as
they are.  The explicit examples are instances that an absolute or floored
tolerance got wrong.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_transport_instance
from oracles import (
    lp_transport_value,
    philox_directions,
    tree_potentials,
    wasserstein_log_space,
)
from otecon import (
    BinaryRelation,
    CostMatrix,
    DiscreteMeasure,
    DualPotentials,
    GaussianMeasure,
    InfeasibleError,
    Sample1D,
    binary_cost_ot,
    gaussian_ot_map,
    gaussian_w2,
    matrix_minimum,
    rearrangement_bounds,
    sliced_wasserstein,
    solve_discrete_ot,
    verify_optimality,
    wasserstein_1d,
)
from otecon.bounds import _witness_certified

SEEDS = st.integers(0, 2**32 - 1)
EXPONENTS = st.integers(-12, 12)
# costs that straddle 2^33 or -2^33: min C lies on a finer grid of floats
# than the column potentials that carry it, so they round
OFFSETS = st.one_of(
    st.just(0.0),
    st.integers(0, 10).map(lambda j: 10.0**j),
    st.sampled_from((2.0**33 - 0.5, -(2.0**33) - 0.5)),
)


def scaled_instance(n, seed, k, offset):
    """Square instance with cost 10^k (C + offset) for uniform C in [0, 1)."""
    mu, nu, unit = random_transport_instance(np.random.default_rng(seed), n, n)
    scale = 10.0**k
    return mu, nu, unit, scale, CostMatrix(scale * (unit.entries + offset))


def lp_value(mu, nu, entries, scale):
    """LP optimum of entries, solved at unit scale: HiGHS's tolerances are
    absolute, and the LP value is linear in the cost."""
    return scale * lp_transport_value(mu.weights, nu.weights, entries / scale)


class TestExactSolver:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), seed=SEEDS, k=EXPONENTS, offset=OFFSETS)
    # costs about 1e-12: the north-west corner plan, off by 334 %, certified
    @example(n=12, seed=1, k=-12, offset=0.0)
    # costs about 1e-9: off by 4.2e-4
    @example(n=12, seed=28, k=-9, offset=0.0)
    # cost + 1e8: 1.5e-4 above the optimum without the offset
    @example(n=12, seed=28, k=0, offset=1e8)
    # cost + 1e10: 4.4 % above it
    @example(n=12, seed=2, k=0, offset=1e10)
    # costs across 2^33 and across -2^33: potentials rounded by up to 1e-6
    @example(n=5, seed=3, k=0, offset=2.0**33 - 0.5)
    @example(n=3, seed=1, k=0, offset=-(2.0**33) - 0.5)
    def test_value_plan_and_certificate(self, n, seed, k, offset):
        mu, nu, unit, scale, cost = scaled_instance(n, seed, k, offset)
        plan, pots, value = solve_discrete_ot(mu, nu, cost)
        unit_value = solve_discrete_ot(mu, nu, unit)[2]
        # the weights sum to 1, so the offset adds itself to the value
        expected = unit_value + offset
        assert value / scale == pytest.approx(expected, rel=1e-12, abs=0.0)
        # the costs as the offset left them, less their minimum: the same
        # optimal plans, with nothing of the offset left to round
        base = cost.entries - cost.entries.min()
        oracle = lp_value(mu, nu, base, scale)
        assert np.sum(plan.mass * base) == pytest.approx(oracle, rel=1e-9, abs=0.0)
        assert verify_optimality(plan, pots, mu, nu, cost)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 12), seed=SEEDS, k=EXPONENTS, offset=OFFSETS)
    # costs about 1e-12: a suboptimal start plan was read as optimal
    @example(n=12, seed=0, k=-12, offset=0.0)
    def test_certificate_is_sound(self, n, seed, k, offset):
        mu, nu, _, scale, cost = scaled_instance(n, seed, k, offset)
        plan = matrix_minimum(mu, nu, cost)
        pots = DualPotentials(*tree_potentials(plan.basis_edges, cost.entries))
        if verify_optimality(plan, pots, mu, nu, cost):
            base = cost.entries - cost.entries.min()
            oracle = lp_value(mu, nu, base, scale)
            assert np.sum(plan.mass * base) == pytest.approx(oracle, rel=1e-9, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(k=EXPONENTS, value=st.floats(0.01, 100.0), share=st.floats(0.0, 1.0))
    # C = 0.3, phi about 0.1 and psi = 0.2: the slack rounds to -1.4e-17,
    # and the cost range is 0
    @example(k=0, value=0.3, share=1 / 3)
    def test_constant_cost_certified(self, k, value, share):
        c = value * 10.0**k
        cost = CostMatrix(np.full((2, 3), c))
        mu = DiscreteMeasure([0.5, 0.5])
        nu = DiscreteMeasure([0.2, 0.3, 0.5])
        plan = solve_discrete_ot(mu, nu, cost)[0]
        phi = share * c
        pots = DualPotentials(np.full(2, phi), np.full(3, c - phi))
        assert verify_optimality(plan, pots, mu, nu, cost)

    @settings(max_examples=60, deadline=None)
    @given(k=EXPONENTS, short=st.floats(1e-8, 0.5))
    # totals 1e-9 and 9.5e-10: a plan missing a row mass by 10 % was certified
    @example(k=-9, short=0.05)
    @example(k=-12, short=1e-8)
    def test_unequal_totals_rejected(self, k, short):
        scale = 10.0**k
        mu = DiscreteMeasure([0.5 * scale, 0.5 * scale])
        nu = DiscreteMeasure([(0.5 - short) * scale, 0.5 * scale])
        cost = CostMatrix([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InfeasibleError):
            solve_discrete_ot(mu, nu, cost)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 500), seed=SEEDS, a=EXPONENTS, b=EXPONENTS)
# y0 constant at 3.3e7 and y1 about 1e9: "lower endpoint exceeds upper"
@example(n=500, seed=10, a=7, b=9)
def test_rearrangement_bounds_with_constant_y0(n, seed, a, b):
    rng = np.random.default_rng(seed)
    y0 = Sample1D(np.full(n, 3.3 * 10.0**a))
    y1 = Sample1D.from_data(10.0**b * (1.0 + rng.random(n)))
    # both couplings give the same mean, summed in two orders
    iv = rearrangement_bounds(lambda u, v: u * v, y0, y1, "supermodular")
    mean = 3.3 * 10.0**a * y1.values.mean()
    assert iv.lower == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert iv.upper == pytest.approx(mean, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 12), seed=SEEDS, k=EXPONENTS)
# the extremes, where an absolute certificate tolerance of 1e-9 would
# fail: at 1e12 the duality gap rounds to 2.3e-4, and at 1e-12 a value
# 1e-6 of the mass off would pass
@example(m=12, n=12, seed=0, k=12)
@example(m=12, n=12, seed=0, k=-12)
def test_binary_value_witness_and_certificate(m, n, seed, k):
    rng = np.random.default_rng(seed)
    mu, nu, _ = random_transport_instance(rng, m, n)
    rel = BinaryRelation((rng.random((m, n)) < 0.8).astype(int))
    unit_value, unit_witness = binary_cost_ot(mu, nu, rel)
    scale = 10.0**k
    mu, nu = DiscreteMeasure(scale * mu.weights), DiscreteMeasure(scale * nu.weights)
    value, witness, info = binary_cost_ot(mu, nu, rel, log=True)
    assert info["report"].converged and info["certified"]
    assert value / scale == pytest.approx(unit_value, rel=1e-12, abs=1e-15)
    assert witness == unit_witness
    assert not _witness_certified(value + 1e-6 * scale, witness, mu, nu, rel)


# Scaling the data by 10^k rounds each point once; the distances then
# agree with 10^k times the unscaled ones to a few ulps.
FEW_ULPS = 8 * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, k=EXPONENTS, p=st.sampled_from((1.0, 2.0, 50.0, 1100.0)))
# |gap|^50 overflowed at 1e7 (W_50 was inf) and underflowed at 1e-7 (0.0)
@example(seed=0, k=7, p=50.0)
@example(seed=0, k=-7, p=50.0)
# the largest gap scaled into (1/2, 1] lost its 1100th power to underflow,
# and W_1100 was 0.0
@example(seed=16, k=0, p=1100.0)
def test_line_and_sliced_distances_scale(seed, k, p):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(1000)
    y = 0.5 + 1.5 * rng.standard_normal(900)
    px = rng.standard_normal((60, 3))
    py = 0.2 + rng.standard_normal((50, 3))
    scale = 10.0**k

    def w1d(s):
        return wasserstein_1d(Sample1D.from_data(s * x), Sample1D.from_data(s * y), p)

    def sliced(s):
        return sliced_wasserstein(s * px, s * py, p, n_dir=40, seed=seed)

    assert w1d(scale) == pytest.approx(scale * w1d(1.0), rel=FEW_ULPS, abs=0.0)
    assert sliced(scale) == pytest.approx(scale * sliced(1.0), rel=FEW_ULPS, abs=0.0)
    dirs = philox_directions(3, 40, seed)
    assert w1d(1.0) == pytest.approx(
        wasserstein_log_space(np.sort(x), np.sort(y), p), rel=1e-12, abs=0.0
    )
    assert sliced(1.0) == pytest.approx(
        wasserstein_log_space(np.sort(dirs @ px.T), np.sort(dirs @ py.T), p),
        rel=1e-12, abs=0.0,
    )


def rotated(eigenvalues, angle):
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return rot @ np.diag(eigenvalues) @ rot.T


EIGENVALUES = st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
ANGLES = st.floats(0.0, np.pi)


@settings(max_examples=60, deadline=None)
@given(k=EXPONENTS, ev1=EIGENVALUES, t1=ANGLES, ev2=EIGENVALUES, t2=ANGLES)
# diag(1, 4) to diag(9, 1) at 1e-12 was read as a singular source
@example(k=-12, ev1=(1.0, 4.0), t1=0.0, ev2=(9.0, 1.0), t2=0.0)
def test_gaussian_map_and_distance(k, ev1, t1, ev2, t2):
    scale = 10.0**k
    cov1, cov2 = rotated(ev1, t1), rotated(ev2, t2)
    mean1, mean2 = np.array([0.3, -1.0]), np.array([2.0, 0.5])

    def pair(s):
        return (
            GaussianMeasure(np.sqrt(s) * mean1, s * cov1),
            GaussianMeasure(np.sqrt(s) * mean2, s * cov2),
        )

    unit, scaled = pair(1.0), pair(scale)
    linear = gaussian_ot_map(*unit).linear
    gap = np.abs(gaussian_ot_map(*scaled).linear - linear).max()
    # the map's rounding grows with the square of cov1's condition number
    cond = max(ev1) / min(ev1)
    assert gap <= 1e-13 * cond**2 * np.abs(linear).max()
    # the trace term cancels to about 1e-16 of the traces
    spread = np.sqrt(scale * (np.trace(cov1) + np.trace(cov2)))
    assert gaussian_w2(*scaled) == pytest.approx(
        np.sqrt(scale) * gaussian_w2(*unit), rel=1e-9, abs=1e-6 * spread
    )

"""Partial-identification bounds: rearrangement, subgroup, winners, binary OT, DRO."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    binary_dual_maximizers,
    binary_dual_maximum,
    dro_primal_value,
    integrate_quantile_loop,
    lp_transport_value,
    winners_inline,
    winners_loop,
)
from otecon import (
    BinaryRelation,
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    Interval,
    Sample1D,
    binary_cost_ot,
    dro_expectation_bound,
    kaji_subgroup_bounds,
    rearrangement_bounds,
    winners_lower_bound,
)
from otecon.bounds import _witness_certified


def uniform_grid_sample(n):
    return Sample1D((np.arange(n) + 0.5) / n)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Interval(1.0, 0.0)

    def test_membership(self):
        iv = Interval(0.0, 1.0)
        assert 0.5 in iv
        assert 1.0 in iv
        assert 2.0 not in iv
        assert iv.width == 1.0


class TestRearrangement:
    def test_modular_functional_degenerate(self, rng):
        y0 = Sample1D.from_data(rng.normal(size=8))
        y1 = Sample1D.from_data(rng.normal(size=8))
        ate = y1.values.mean() - y0.values.mean()
        for modularity in ("submodular", "supermodular"):
            iv = rearrangement_bounds(lambda a, b: b - a, y0, y1, modularity)
            assert iv.lower == pytest.approx(ate, abs=1e-12)
            assert iv.upper == pytest.approx(ate, abs=1e-12)

    def test_product_on_binary_atoms(self):
        y = Sample1D([0.0, 1.0])
        iv = rearrangement_bounds(lambda a, b: a * b, y, y, "supermodular")
        assert iv.lower == pytest.approx(0.0, abs=1e-15)
        assert iv.upper == pytest.approx(0.5, abs=1e-15)

    def test_squared_difference_lower_zero(self, rng):
        y = Sample1D.from_data(rng.normal(size=10))
        iv = rearrangement_bounds(lambda a, b: (b - a) ** 2, y, y, "submodular")
        assert iv.lower == pytest.approx(0.0, abs=1e-15)

    def test_unequal_sizes_rejected(self):
        with pytest.raises(DomainError):
            rearrangement_bounds(
                lambda a, b: a * b, Sample1D([0.0]), Sample1D([0.0, 1.0]), "submodular"
            )

    def test_unknown_modularity_rejected(self):
        y = Sample1D([0.0])
        with pytest.raises(DomainError):
            rearrangement_bounds(lambda a, b: a * b, y, y, "convex")

    def test_hull_and_independence_containment(self, rng):
        h = lambda a, b: a * b
        for _ in range(10):
            y0 = Sample1D.from_data(rng.normal(size=7))
            y1 = Sample1D.from_data(rng.normal(size=7))
            iv = rearrangement_bounds(h, y0, y1, "supermodular")
            grid = np.array([[h(a, b) for b in y1.values] for a in y0.values])
            assert grid.min() - 1e-12 <= iv.lower <= iv.upper <= grid.max() + 1e-12
            assert float(grid.mean()) in iv


class TestKajiBounds:
    def test_full_window_collapses_to_ate(self, rng):
        y0 = Sample1D.from_data(rng.normal(size=11))
        y1 = Sample1D.from_data(rng.normal(size=7))
        ate = y1.values.mean() - y0.values.mean()
        iv = kaji_subgroup_bounds(0.0, 1.0, y0, y1)
        assert iv.lower == pytest.approx(ate, abs=1e-12)
        assert iv.upper == pytest.approx(ate, abs=1e-12)

    def test_uniform_shift_window(self):
        y0 = uniform_grid_sample(2000)
        y1 = Sample1D(y0.values + 1.0)
        iv = kaji_subgroup_bounds(0.2, 0.5, y0, y1)
        assert iv.lower == pytest.approx(0.8, abs=1e-3)
        assert iv.upper == pytest.approx(1.5, abs=1e-3)

    def test_degenerate_window_rejected(self):
        y = Sample1D([0.0, 1.0])
        with pytest.raises(DomainError):
            kaji_subgroup_bounds(0.3, 0.3, y, y)
        with pytest.raises(DomainError):
            kaji_subgroup_bounds(0.5, 0.2, y, y)

    def test_window_contains_constant_effect(self, rng):
        # under a constant shift both endpoints bracket the true effect
        y0 = Sample1D.from_data(rng.uniform(size=300))
        y1 = Sample1D(y0.values + 0.7)
        for a, b in ((0.1, 0.4), (0.25, 0.9)):
            iv = kaji_subgroup_bounds(a, b, y0, y1)
            assert 0.7 in iv

    def test_window_narrower_than_resolution(self):
        # 1 - (b - a) rounds to 1, which once left the upper integral empty
        y0 = Sample1D([-1.2, -0.3, 0.1, 0.5, 1.4, 2.2])
        y1 = Sample1D([-0.8, 0.2, 0.6, 1.1, 1.9, 3.0])
        iv = kaji_subgroup_bounds(0.3, 0.30000000000000004, y0, y1)
        # Q1(0+) - Q0(0.3+) and Q1(1-) - Q0(0.3+)
        assert iv.lower == pytest.approx(-0.5, abs=1e-12)
        assert iv.upper == pytest.approx(3.3, abs=1e-12)

    def test_subnormal_window_keeps_digits(self, rng):
        # overlaps of 5e-324 hold one bit; weighting before the sum keeps
        # the order statistics' digits
        y0 = Sample1D.from_data(rng.normal(size=50))
        y1 = Sample1D.from_data(rng.normal(size=50))
        iv = kaji_subgroup_bounds(0.0, 5e-324, y0, y1)
        assert iv.lower == pytest.approx(y1.values[0] - y0.values[0], abs=1e-12)
        assert iv.upper == pytest.approx(y1.values[-1] - y0.values[0], abs=1e-12)

    def test_window_across_a_rounded_grid_point(self):
        # 3 a and 3 b both round to 1, yet (a, b] meets the second step of
        # the float grid {k / 3}, whose first edge 1 / 3 rounds to a
        a = 1 / 3
        b = float(np.nextafter(a, 1.0))
        iv = kaji_subgroup_bounds(a, b, Sample1D([0.0, 10.0, 20.0]), Sample1D([1.0, 2.0, 3.0]))
        assert (iv.lower, iv.upper) == (-9.0, -7.0)

    def test_matches_step_loop(self, rng):
        for _ in range(20):
            y0 = Sample1D.from_data(rng.normal(size=int(rng.integers(1, 60))))
            y1 = Sample1D.from_data(rng.normal(size=int(rng.integers(1, 60))))
            a, b = np.sort(rng.choice([0.0, 0.25, 0.5, 1.0, *rng.uniform(size=2)], 2, replace=False))
            width = b - a
            base = integrate_quantile_loop(y0.values, a, b)
            lower = (integrate_quantile_loop(y1.values, 0.0, width) - base) / width
            upper = (integrate_quantile_loop(y1.values, 1.0 - width, 1.0) - base) / width
            iv = kaji_subgroup_bounds(a, b, y0, y1)
            assert iv.lower == pytest.approx(lower, rel=1e-12, abs=1e-12)
            assert iv.upper == pytest.approx(upper, rel=1e-12, abs=1e-12)


class TestWinners:
    def test_dominant_treatment(self, rng):
        y0 = Sample1D.from_data(rng.uniform(size=60))
        y1 = Sample1D(y0.values + 2.0)
        assert winners_lower_bound(0.0, 1.0, y0, y1) == pytest.approx(1.0, abs=1e-12)

    def test_identical_marginals(self, rng):
        y = Sample1D.from_data(rng.normal(size=30))
        assert winners_lower_bound(0.0, 1.0, y, y) == pytest.approx(0.0, abs=1e-12)
        assert winners_lower_bound(0.2, 0.7, y, y) == pytest.approx(0.0, abs=1e-12)

    def test_window_validation(self):
        y = Sample1D([0.0, 1.0])
        with pytest.raises(DomainError):
            winners_lower_bound(0.5, 0.5, y, y)

    def test_matches_candidate_loop(self, rng):
        # rounded draws put ties inside and across the two samples, and
        # windows on y0's rank grid put candidates on its breakpoints
        for _ in range(300):
            y0 = Sample1D.from_data(np.round(rng.normal(size=int(rng.integers(1, 50))), 1))
            y1 = Sample1D.from_data(np.round(rng.normal(0.3, size=int(rng.integers(1, 50))), 1))
            on_grid = rng.integers(0, y0.n + 1, size=2) / y0.n
            choices = [0.0, 0.5, 1.0, *rng.uniform(size=2), *on_grid]
            a, b = np.sort(rng.choice(np.unique(choices), 2, replace=False))
            direct = winners_lower_bound(a, b, y0, y1)
            assert direct == winners_loop(a, b, y0.values, y1.values)
            assert direct == winners_inline(a, b, y0.values, y1.values)

    def test_range(self, rng):
        for _ in range(20):
            y0 = Sample1D.from_data(rng.normal(size=12))
            y1 = Sample1D.from_data(rng.normal(loc=0.4, size=12))
            v = winners_lower_bound(0.1, 0.9, y0, y1)
            assert 0.0 <= v <= 1.0

    def test_matches_binary_lp_on_rank_atoms(self, rng):
        n = 40
        uniform = DiscreteMeasure(np.full(n, 1.0 / n))
        for _ in range(50):
            y0 = Sample1D.from_data(rng.normal(size=n))
            y1 = Sample1D.from_data(rng.normal(loc=rng.uniform(-1, 1), size=n))
            direct = winners_lower_bound(0.0, 1.0, y0, y1)
            gamma = (y1.values[None, :] > y0.values[:, None]).astype(int)
            lp, _ = binary_cost_ot(uniform, uniform, BinaryRelation(gamma), witness=False)
            assert direct == pytest.approx(lp, abs=1e-6)


class TestBinaryCostOt:
    def test_empty_relation(self):
        mu = DiscreteMeasure([0.5, 0.5])
        nu = DiscreteMeasure([0.3, 0.7])
        value, witness = binary_cost_ot(mu, nu, BinaryRelation(np.zeros((2, 2), dtype=int)))
        assert value == pytest.approx(0.0, abs=1e-12)
        assert witness == frozenset()

    def test_full_relation(self):
        mu = DiscreteMeasure([0.5, 0.5])
        nu = DiscreteMeasure([0.3, 0.7])
        value, witness = binary_cost_ot(mu, nu, BinaryRelation(np.ones((2, 2), dtype=int)))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert witness == frozenset({0, 1})

    def test_frechet_overlap(self):
        mu = DiscreteMeasure([0.6, 0.4])
        nu = DiscreteMeasure([0.5, 0.5])
        value, witness = binary_cost_ot(mu, nu, BinaryRelation([[1, 0], [0, 0]]))
        assert value == pytest.approx(0.1, abs=1e-12)
        assert witness == frozenset({0})

    def test_witness_certifies_value(self, rng):
        for _ in range(20):
            m, n = rng.integers(2, 6, size=2)
            w_mu = rng.uniform(0.1, 1.0, size=m)
            w_mu /= w_mu.sum()
            w_nu = rng.uniform(0.1, 1.0, size=n)
            w_nu /= w_nu.sum()
            gamma = rng.integers(0, 2, size=(m, n))
            value, witness = binary_cost_ot(
                DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), BinaryRelation(gamma)
            )
            reach = sorted(
                {j for i in witness for j in range(n) if gamma[i, j] == 0}
            )
            dual = w_mu[list(witness)].sum() - w_nu[reach].sum()
            assert value == pytest.approx(max(dual, 0.0), abs=1e-9)

    def test_exhaustive_duality(self, rng):
        for _ in range(30):
            m, n = rng.integers(1, 6, size=2)
            w_mu = rng.uniform(0.1, 1.0, size=m)
            w_mu /= w_mu.sum()
            w_nu = rng.uniform(0.1, 1.0, size=n)
            w_nu /= w_nu.sum()
            gamma = rng.integers(0, 2, size=(m, n))
            value, _ = binary_cost_ot(
                DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), BinaryRelation(gamma)
            )
            assert value == pytest.approx(
                binary_dual_maximum(w_mu, w_nu, gamma), abs=1e-9
            )

    def test_witness_without_row_cap(self, rng):
        def dual(w_mu, w_nu, gamma, witness):
            rows = sorted(witness)
            reach = np.flatnonzero((gamma[rows] == 0).any(axis=0))
            return w_mu[rows].sum() - w_nu[reach].sum()

        m = 21
        gamma = rng.integers(0, 2, size=(m, 3))
        w_mu, w_nu = np.full(m, 1.0 / m), np.full(3, 1.0 / 3.0)
        value, witness = binary_cost_ot(
            DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), BinaryRelation(gamma)
        )
        assert witness is not None
        assert dual(w_mu, w_nu, gamma, witness) == pytest.approx(value, abs=1e-9)

        m, n = 200, 30
        w_mu = rng.uniform(0.1, 1.0, size=m)
        w_mu /= w_mu.sum()
        w_nu = rng.uniform(0.1, 1.0, size=n)
        w_nu /= w_nu.sum()
        gamma = (rng.random((m, n)) < 0.8).astype(int)
        value, witness = binary_cost_ot(
            DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), BinaryRelation(gamma)
        )
        assert value > 0.0
        assert dual(w_mu, w_nu, gamma, witness) == pytest.approx(value, abs=1e-9)
        assert value == pytest.approx(
            lp_transport_value(w_mu, w_nu, gamma.astype(float)), abs=1e-9
        )

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_witness_is_minimal_maximizer(self, data):
        # Weights are multiples of 1/64 summing to 1, so every mass sum is
        # exact in floating point and ties between maximizers are exact.
        # Repeated cuts give zero weights, which join some maximizers but
        # never the minimal one.
        def dyadic(size):
            cuts = data.draw(
                st.lists(st.integers(0, 64), min_size=size - 1, max_size=size - 1)
            )
            return np.diff([0, *sorted(cuts), 64]) / 64.0

        m = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 12))
        w_mu, w_nu = dyadic(m), dyadic(n)
        gamma = np.array(
            data.draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=m, max_size=m)),
            dtype=int,
        )
        value, witness = binary_cost_ot(
            DiscreteMeasure(w_mu), DiscreteMeasure(w_nu), BinaryRelation(gamma)
        )
        best, maximizers = binary_dual_maximizers(w_mu, w_nu, gamma)
        assert best == binary_dual_maximum(w_mu, w_nu, gamma)
        assert value == pytest.approx(best, abs=1e-12)
        assert witness in maximizers
        assert witness == frozenset.intersection(*maximizers)

    def test_log_adds_report_and_certificate(self, rng):
        for _ in range(20):
            m, n = rng.integers(2, 8, size=2)
            mu = DiscreteMeasure(rng.uniform(0.1, 1.0, size=m))
            nu = DiscreteMeasure(mu.total_mass * rng.dirichlet(np.ones(n)))
            rel = BinaryRelation(rng.integers(0, 2, size=(m, n)))
            value, witness, info = binary_cost_ot(mu, nu, rel, log=True)
            assert (value, witness) == binary_cost_ot(mu, nu, rel)
            assert info["report"].stop_reason == "tol"
            assert info["certified"] is True
            # the witness is the least maximizer, so no row of it is spare
            for row in witness:
                assert not _witness_certified(value, witness - {row}, mu, nu, rel)

    def test_log_without_witness_has_no_certificate(self):
        mu = DiscreteMeasure([0.6, 0.4])
        nu = DiscreteMeasure([0.5, 0.5])
        value, witness, info = binary_cost_ot(
            mu, nu, BinaryRelation([[1, 0], [0, 0]]), witness=False, log=True
        )
        assert value == pytest.approx(0.1, abs=1e-12)
        assert witness is None
        assert list(info) == ["report"]
        assert info["report"].converged


class TestDro:
    def grid_instance(self, rng, n=4):
        f = rng.normal(size=n)
        pts = rng.normal(size=n)
        delta = np.abs(pts[:, None] - pts[None, :])
        w = rng.uniform(0.2, 1.0, size=n)
        w /= w.sum()
        return f, CostMatrix(delta), DiscreteMeasure(w)

    def test_zero_radius_is_expectation(self, rng):
        f, delta, mu = self.grid_instance(rng)
        bound = dro_expectation_bound(f, delta, mu, rho=0.0)
        assert bound == pytest.approx(float(mu.weights @ f), abs=1e-8)

    def test_large_radius_is_maximum(self, rng):
        f, delta, mu = self.grid_instance(rng)
        bound = dro_expectation_bound(f, delta, mu, rho=float(delta.entries.max()))
        assert bound == pytest.approx(float(f.max()), abs=1e-8)

    def test_monotone_in_radius(self, rng):
        f, delta, mu = self.grid_instance(rng)
        radii = np.linspace(0.0, float(delta.entries.max()), 8)
        values = [dro_expectation_bound(f, delta, mu, rho=r) for r in radii]
        assert np.all(np.diff(values) >= -1e-8)

    # (f scale, delta and rho scale): the bound scales with f and is unmoved
    # by a common scale of delta and rho
    SCALES = [(1.0, 1.0), (1e7, 1.0), (1e-7, 1.0), (1.0, 1e6), (1.0, 1e-6)]

    def test_matches_primal_lp(self, rng):
        # every scaling is checked against the LP at scale 1, since the LP
        # solver's absolute tolerances do not scale with the data
        for _ in range(10):
            f, delta, mu = self.grid_instance(rng)
            rho = float(rng.uniform(0.0, 0.6) * delta.entries.max())
            primal = dro_primal_value(f, delta.entries, mu.weights, rho)
            for f_scale, d_scale in self.SCALES:
                dual = dro_expectation_bound(
                    f * f_scale, CostMatrix(delta.entries * d_scale), mu, rho * d_scale
                )
                assert dual == pytest.approx(f_scale * primal, rel=1e-12)

    def test_large_multiplier_returns(self):
        # the minimizing multiplier is 1e7, where float spacing exceeds 1e-9
        f = np.array([0.0, 1e7])
        delta = CostMatrix([[0.0, 1.0], [1.0, 0.0]])
        mu = DiscreteMeasure([0.5, 0.5])
        assert dro_expectation_bound(f, delta, mu, rho=0.1) == 6e6
        assert dro_primal_value(f, delta.entries, mu.weights, 0.1) == pytest.approx(6e6)

    def test_no_off_diagonal_discrepancy_is_maximum(self, rng):
        # moving mass is free, so all of it goes to the best point
        f, _, mu = self.grid_instance(rng)
        bound = dro_expectation_bound(f, CostMatrix(np.zeros((4, 4))), mu, rho=0.3)
        assert bound == pytest.approx(float(f.max()), rel=1e-14)

    @pytest.mark.parametrize("rho", [0.0, 0.2, 5.0])
    def test_constant_f_is_that_constant(self, rng, rho):
        _, delta, mu = self.grid_instance(rng)
        bound = dro_expectation_bound(np.full(4, -1.5), delta, mu, rho)
        assert bound == pytest.approx(-1.5, rel=1e-14)

    def test_negative_radius_rejected(self, rng):
        f, delta, mu = self.grid_instance(rng)
        with pytest.raises(DomainError):
            dro_expectation_bound(f, delta, mu, rho=-0.1)

    def test_zero_mass_rejected(self, rng):
        f, delta, _ = self.grid_instance(rng)
        with pytest.raises(DomainError, match="total mass"):
            dro_expectation_bound(f, delta, DiscreteMeasure(np.zeros(4)), rho=0.5)

    def test_diagonal_validation(self):
        mu = DiscreteMeasure([0.5, 0.5])
        with pytest.raises(DomainError):
            dro_expectation_bound(
                np.array([0.0, 1.0]), CostMatrix([[0.1, 1.0], [1.0, 0.0]]), mu, 0.5
            )


def _dro_args(**change):
    args = {
        "f": np.array([0.0, 1.0]),
        "delta": CostMatrix([[0.0, 1.0], [1.0, 0.0]]),
        "mu": DiscreteMeasure([0.5, 0.5]),
        "rho": 0.5,
    }
    return {**args, **change}


# the input checks no other test reaches on every run, each with the start
# of its message
REJECTED = {
    "interval not finite": (lambda: Interval(np.nan, 1.0), "interval endpoints must be finite"),
    "relation not a matrix": (lambda: BinaryRelation(np.zeros(3)), "gamma must be a matrix"),
    "relation not 0-1": (lambda: BinaryRelation([[0, 2]]), "gamma entries must be 0 or 1"),
    "relation shape": (
        lambda: binary_cost_ot(
            DiscreteMeasure([1.0]), DiscreteMeasure([0.5, 0.5]), BinaryRelation(np.eye(2))
        ),
        "relation shape (2, 2) does not match measures (1, 2)",
    ),
    "dro delta shape": (
        lambda: dro_expectation_bound(**_dro_args(delta=CostMatrix(np.zeros((2, 3))))),
        "delta must be 2 x 2, got (2, 3)",
    ),
    "dro mu size": (
        lambda: dro_expectation_bound(**_dro_args(mu=DiscreteMeasure([1.0]))),
        "mu must have 2 atoms, got 1",
    ),
    "dro delta sign": (
        lambda: dro_expectation_bound(**_dro_args(delta=CostMatrix([[0.0, -1.0], [1.0, 0.0]]))),
        "delta must be nonnegative",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_input_check(name):
    build, message = REJECTED[name]
    with pytest.raises(DomainError, match="^" + re.escape(message)):
        build()


def test_relation_shape():
    assert BinaryRelation(np.zeros((2, 3), dtype=int)).shape == (2, 3)

"""Exact transport LP solver: matrix-minimum start, simplex pivots, certificates."""

from pathlib import Path

import numpy as np
import pytest

from conftest import random_transport_instance
from oracles import (
    binary_dual_maximum,
    lp_transport_value,
    matrix_minimum_scan,
    tree_potentials,
    vertex_minimum_value,
)
from otecon import (
    CostMatrix,
    DiscreteMeasure,
    DomainError,
    DualPotentials,
    InfeasibleError,
    NonAssignmentError,
    TransportPlan,
    extract_assignment,
    halton,
    matrix_minimum,
    solve_discrete_ot,
    verify_optimality,
)
from otecon.csvio import read_matrix_csv, read_measure_csv
from otecon.discrete import CERT_TOL, PIVOT_TOL

DATA = Path(__file__).parent / "data"


def measures(mu, nu):
    return DiscreteMeasure(mu), DiscreteMeasure(nu)


class TestMatrixMinimum:
    def test_single_pair(self):
        plan = matrix_minimum(*measures([1.0], [1.0]), CostMatrix([[3.0]]))
        assert plan.mass.tolist() == [[1.0]]

    def test_hand_trace_2x2(self):
        # cells by cost: (1, 0), (0, 1), (0, 0); then every row is closed
        cost = CostMatrix([[2.0, 1.0], [0.0, 3.0]])
        plan = matrix_minimum(*measures([0.7, 0.3], [0.4, 0.6]), cost)
        assert np.allclose(plan.mass, [[0.1, 0.6], [0.3, 0.0]], atol=1e-15)
        assert plan.basis_edges == {(1, 0), (0, 1), (0, 0)}

    def test_hand_trace_2x3(self):
        # tied costs are visited row-major: (0, 1), (1, 0), (1, 2), then (0, 2)
        cost = CostMatrix([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        plan = matrix_minimum(*measures([0.5, 0.5], [0.25, 0.25, 0.5]), cost)
        assert plan.mass.tolist() == [[0.0, 0.25, 0.25], [0.25, 0.0, 0.25]]
        assert plan.basis_edges == {(0, 1), (1, 0), (1, 2), (0, 2)}

    def test_join_to_cheapest_tree_column(self):
        # the greedy pass leaves the three diagonal cells apart; row 1 can
        # join only column 0, and row 2 joins column 1, the cheaper of the two
        third = np.full(3, 1.0 / 3.0)
        cost = CostMatrix([[0.0, 5.0, 5.0], [5.0, 0.0, 9.0], [7.0, 3.0, 0.0]])
        plan = matrix_minimum(*measures(third, third), cost)
        assert np.array_equal(plan.mass, np.diag(third))
        assert plan.basis_edges == {(0, 0), (1, 1), (2, 2), (1, 0), (2, 1)}

    def test_join_through_an_earlier_join(self):
        # the greedy pass leaves three components: {r0, c0}, {r1, c1, r3,
        # c2} and {r2, c3}.  Row 1 joins on column 0; row 3, not its
        # component's first row, does not join; row 2 joins on column 2,
        # which only row 3 touches, so it entered the tree with row 1
        cost = CostMatrix(
            [[0.0, 9.0, 9.0, 9.0], [5.0, 0.0, 9.0, 9.0], [7.0, 6.0, 5.0, 0.0],
             [2.0, 1.0, 1.0, 9.0]]
        )
        mu, nu = measures([1.0, 1.0, 1.0, 2.0], [1.0, 2.0, 1.0, 1.0])
        plan = matrix_minimum(mu, nu, cost)
        forest = {(0, 0), (1, 1), (2, 3), (3, 1), (3, 2)}
        assert plan.basis_edges == forest | {(1, 0), (2, 2)}
        assert plan.mass.tolist() == [
            [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 1.0, 0.0],
        ]
        mass, edges = matrix_minimum_scan(mu.weights, nu.weights, cost.entries)
        assert plan.basis_edges == edges and plan.mass.tobytes() == mass.tobytes()

    def test_join_from_zero_weight_row_0(self):
        # row 0 takes no edge and hangs on its cheapest column, 1, whose
        # component has row 2; of the other components, {r1, c0} joins on
        # column 1, {r3, c2} on column 0, reached by row 1's join, and the
        # zero-weight column 3, with no row, hangs from row 0
        cost = CostMatrix(
            [[5.0, 1.0, 3.0, 2.0], [0.0, 8.0, 8.0, 8.0], [8.0, 0.0, 8.0, 8.0],
             [4.0, 6.0, 0.0, 8.0]]
        )
        mu, nu = measures([0.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 0.0])
        plan = matrix_minimum(mu, nu, cost)
        forest = {(1, 0), (2, 1), (3, 2)}
        assert plan.basis_edges == forest | {(0, 1), (1, 1), (3, 0), (0, 3)}
        mass, edges = matrix_minimum_scan(mu.weights, nu.weights, cost.entries)
        assert plan.basis_edges == edges and plan.mass.tobytes() == mass.tobytes()

    def test_join_without_joining_rows(self):
        # a single row leaves no row to join: the zero-weight column 1,
        # with no row in its component, hangs from row 0
        plan = matrix_minimum(*measures([1.0], [0.5, 0.0, 0.5]), CostMatrix([[0.0, 1.0, 2.0]]))
        assert plan.basis_edges == {(0, 0), (0, 2), (0, 1)}
        assert plan.mass.tolist() == [[0.5, 0.0, 0.5]]

    def test_mass_mismatch(self):
        with pytest.raises(InfeasibleError):
            matrix_minimum(*measures([0.7, 0.3], [0.4, 0.7]), CostMatrix(np.zeros((2, 2))))

    def test_shape_mismatch(self):
        with pytest.raises(DomainError):
            matrix_minimum(*measures([0.5, 0.5], [1.0]), CostMatrix([[0.0, 1.0]]))

    @staticmethod
    def instances(rng):
        """Rational weights, then uniform squares with real and 0/1/2 costs."""
        for _ in range(40):
            m, n = rng.integers(1, 8, size=2)
            yield random_transport_instance(rng, m, n, rational=True)
        for n in range(1, 13):
            uniform = DiscreteMeasure(np.full(n, 1.0 / n))
            yield uniform, uniform, CostMatrix(rng.random((n, n)))
            ties = rng.integers(0, 3, size=(n, n)).astype(float)
            yield uniform, uniform, CostMatrix(ties)

    def test_spanning_tree(self, rng):
        # TransportPlan itself rejects edges that do not form a spanning tree
        for mu, nu, cost in self.instances(rng):
            plan = matrix_minimum(mu, nu, cost)
            assert len(plan.basis_edges) == mu.size + nu.size - 1
            assert plan.marginal_residual(mu, nu) < 1e-12

    def test_strongly_feasible(self, rng):
        for mu, nu, cost in self.instances(rng):
            assert TestPivotRules.strongly_feasible(matrix_minimum(mu, nu, cost))

    def test_rounding_dust(self, rng):
        # the remainders round: a row can keep about 3e-17 open after every
        # column has closed, and the basis must still span every node
        mu = DiscreteMeasure(np.full(10, 0.1))
        for weights in ([0.3, 0.3, 0.4], [0.4, 0.3, 0.3]):
            nu = DiscreteMeasure(weights)
            for _ in range(20):
                plan = matrix_minimum(mu, nu, CostMatrix(rng.random((10, 3))))
                assert len(plan.basis_edges) == 12
                assert plan.marginal_residual(mu, nu) < 1e-12
                assert TestPivotRules.strongly_feasible(plan)

    def test_zero_weights(self, rng):
        # zero-weight lines take no allocation; row 0 among them still roots
        # the tree, and the solver still reaches the optimum
        mu, nu = measures([0.0, 0.5, 0.0, 0.5], [0.5, 0.0, 0.5])
        for _ in range(20):
            cost = CostMatrix(rng.random((4, 3)))
            plan = matrix_minimum(mu, nu, cost)
            assert len(plan.basis_edges) == 6
            assert plan.marginal_residual(mu, nu) == 0.0
            _, _, value = solve_discrete_ot(mu, nu, cost)
            assert value == pytest.approx(
                lp_transport_value(mu.weights, nu.weights, cost.entries), abs=1e-12
            )

    @staticmethod
    def scan_instances(rng):
        """Non-square shapes with random, tied integer and 0/1 costs, under
        positive weights and under weights with zero rows and columns."""
        for _ in range(40):
            m, n = (int(k) for k in rng.integers(1, 14, size=2))
            costs = (
                rng.random((m, n)),
                rng.integers(0, 4, size=(m, n)).astype(float),
                (rng.random((m, n)) < 0.5).astype(float),
            )
            a = rng.integers(0, 4, size=m).astype(float)
            b = rng.integers(0, 4, size=n).astype(float)
            a[rng.integers(m)] += 1.0
            b[rng.integers(n)] += 1.0
            zeros = measures(a / a.sum(), b / b.sum())
            for mu, nu in (random_transport_instance(rng, m, n)[:2], zeros):
                for cost in costs:
                    yield mu, nu, cost

    def test_matches_cell_scan(self, rng):
        # the heap of open rows visits the cells in the scan's order, so the
        # two starts agree to the byte; the rounding dust case ends with a
        # row still open after every column closed
        cases = list(self.scan_instances(rng))
        dust = DiscreteMeasure(np.full(10, 0.1)), DiscreteMeasure([0.3, 0.3, 0.4])
        cases += [(*dust, rng.random((10, 3))) for _ in range(5)]
        # uniform squares, where most rows join: random costs and the
        # squared distances of a rank solve to the Halton points
        for n in (30, 60):
            uniform = DiscreteMeasure(np.full(n, 1.0 / n))
            ref = halton(n, 2).points
            for _ in range(3):
                x = rng.random((n, 2))
                ranks = ((x[:, None, :] - ref[None, :, :]) ** 2).sum(axis=2)
                cases += [(uniform, uniform, rng.random((n, n))), (uniform, uniform, ranks)]
        zero_rows = sum(np.any(mu.weights == 0.0) for mu, _, _ in cases)
        zero_cols = sum(np.any(nu.weights == 0.0) for _, nu, _ in cases)
        assert zero_rows > 20 and zero_cols > 20
        for mu, nu, cost in cases:
            plan = matrix_minimum(mu, nu, CostMatrix(cost))
            mass, edges = matrix_minimum_scan(mu.weights, nu.weights, cost)
            assert plan.mass.tobytes() == mass.tobytes()
            assert plan.basis_edges == edges


class TestSolve:
    def test_zero_cost_diagonal(self):
        mu, nu = measures([0.5, 0.5], [0.5, 0.5])
        plan, pots, value = solve_discrete_ot(mu, nu, CostMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert value == 0.0
        assert np.allclose(plan.mass, np.diag([0.5, 0.5]))

    def test_two_vertex_polytope(self):
        mu, nu = measures([0.5, 0.5], [0.5, 0.5])
        plan, pots, value = solve_discrete_ot(mu, nu, CostMatrix([[1.0, 3.0], [2.0, 1.0]]))
        assert value == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(plan.mass, np.diag([0.5, 0.5]))

    def test_identical_supports_quadratic(self):
        x = np.array([1.0, 2.0])
        cost = CostMatrix((x[:, None] - x[None, :]) ** 2)
        mu, nu = measures([0.5, 0.5], [0.5, 0.5])
        plan, pots, value = solve_discrete_ot(mu, nu, cost)
        assert value == pytest.approx(0.0, abs=1e-15)
        assert np.allclose(plan.mass, np.diag([0.5, 0.5]))

    def test_matches_lp_oracle(self, rng):
        for _ in range(30):
            m, n = rng.integers(1, 7, size=2)
            mu, nu, cost = random_transport_instance(rng, m, n)
            plan, pots, value = solve_discrete_ot(mu, nu, cost)
            assert value == pytest.approx(
                lp_transport_value(mu.weights, nu.weights, cost.entries), abs=1e-9
            )

    def test_matches_vertex_enumeration(self, rng):
        # full basic-solution enumeration stays cheap up to m + n = 7
        for _ in range(15):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 8 - m))
            mu, nu, cost = random_transport_instance(rng, m, n, rational=True)
            _, _, value = solve_discrete_ot(mu, nu, cost)
            oracle = vertex_minimum_value(mu.weights, nu.weights, cost.entries)
            assert value == pytest.approx(oracle, abs=1e-9)

    def test_primal_equals_dual(self, rng):
        for _ in range(25):
            m, n = rng.integers(1, 7, size=2)
            mu, nu, cost = random_transport_instance(rng, m, n, rational=bool(rng.integers(2)))
            plan, pots, value = solve_discrete_ot(mu, nu, cost)
            assert value == pytest.approx(pots.objective(mu, nu), abs=1e-9)
            assert verify_optimality(plan, pots, mu, nu, cost)
            assert plan.marginal_residual(mu, nu) < 1e-9

    def test_support_bounded_by_tree_size(self, rng):
        for _ in range(20):
            m, n = rng.integers(2, 7, size=2)
            mu, nu, cost = random_transport_instance(rng, m, n, rational=True)
            plan, _, _ = solve_discrete_ot(mu, nu, cost)
            assert int(np.sum(plan.mass > 1e-9)) <= m + n - 1

    def test_monotone_support_submodular(self, rng):
        # quadratic cost on the line: optimal support has no crossing pairs
        for _ in range(10):
            m, n = rng.integers(2, 7, size=2)
            mu, nu, _ = random_transport_instance(rng, m, n)
            x = np.sort(rng.normal(size=m))
            y = np.sort(rng.normal(size=n))
            cost = CostMatrix((x[:, None] - y[None, :]) ** 2)
            plan, _, _ = solve_discrete_ot(mu, nu, cost)
            support = np.argwhere(plan.mass > 1e-9)
            for i, j in support:
                for k, l in support:
                    assert (x[i] - x[k]) * (y[j] - y[l]) >= -1e-12

    def test_plan_invariant_to_potential_shifts(self, rng):
        mu, nu, cost = random_transport_instance(rng, 4, 5)
        plan, _, value = solve_discrete_ot(mu, nu, cost)
        a = rng.normal(size=4)
        b = rng.normal(size=5)
        shifted = CostMatrix(cost.entries + a[:, None] + b[None, :])
        plan2, _, value2 = solve_discrete_ot(mu, nu, shifted)
        assert np.allclose(plan.mass, plan2.mass, atol=1e-12)
        expected = value + float(mu.weights @ a) + float(nu.weights @ b)
        assert value2 == pytest.approx(expected, abs=1e-12)

    def test_non_finite_cost_rejected(self):
        mu, nu = measures([1.0], [1.0])
        with pytest.raises(DomainError):
            solve_discrete_ot(mu, nu, CostMatrix([[np.inf]]))

    def test_cost_range_overflow_rejected(self):
        # finite entries whose range max C - min C overflows to inf
        mu, nu = measures([1.0], [0.5, 0.5])
        with pytest.raises(DomainError, match="finite"), np.errstate(over="ignore"):
            solve_discrete_ot(mu, nu, CostMatrix([[1e308, -1e308]]))

    def test_one_plan_per_solve(self, rng, monkeypatch):
        # the start's edges and masses go to the pivots without a plan of
        # their own: only the returned plan is built and validated
        built = []
        check = TransportPlan.__post_init__

        def counted(plan):
            built.append(plan)
            check(plan)

        monkeypatch.setattr(TransportPlan, "__post_init__", counted)
        mu, nu, cost = random_transport_instance(rng, 6, 5)
        plan = solve_discrete_ot(mu, nu, cost)[0]
        assert built == [plan]

    @pytest.mark.parametrize("cap", [0, 2.5, True])
    def test_bad_cap_rejected(self, cap):
        # 2.5 raised a TypeError, and True was taken as a cap of 1
        mu, nu = measures([1.0], [1.0])
        with pytest.raises(DomainError, match="max_iter"):
            solve_discrete_ot(mu, nu, CostMatrix([[0.0]]), max_iter=cap)


class TestCostScale:
    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e4, 1e5, 1e6])
    def test_random_8x8_at_scale(self, rng, scale):
        # the same 30 instances at every scale; rounding noise in the
        # reduced costs grows with the costs, and so must the tolerances
        for _ in range(30):
            mu, nu, base = random_transport_instance(rng, 8, 8)
            cost = CostMatrix(base.entries * scale)
            plan, pots, value = solve_discrete_ot(mu, nu, cost)
            assert plan.stop_reason == "tol", (
                f"stalled at cost scale {scale:g} after {plan.iterations} pivots"
            )
            assert verify_optimality(plan, pots, mu, nu, cost)
            # HiGHS's own tolerances are absolute, so it solves at unit
            # scale; the LP value is linear in the cost.
            oracle = scale * lp_transport_value(mu.weights, nu.weights, base.entries)
            assert value == pytest.approx(oracle, rel=1e-9, abs=1e-9 * scale)

    def test_certificate_tolerance_scales_with_cost(self):
        cost = CostMatrix([[0.0, 1e6], [1e6, 0.0]])
        plan = TransportPlan(np.diag([0.5, 0.5]), frozenset({(0, 0), (1, 1), (0, 1)}))
        # a 1e-6 slack violation is rounding noise next to 1e6 costs
        pots = DualPotentials([0.0, 1e-6], [0.0, 0.0])
        half = DiscreteMeasure([0.5, 0.5])
        assert verify_optimality(plan, pots, half, half, cost)
        # the default tolerance is CERT_TOL * 1e6 = 1e-3 (plus ulps): twice
        # that is a violation
        pots = DualPotentials([0.0, 2e-3], [0.0, 0.0])
        assert not verify_optimality(plan, pots, half, half, cost)


class TestIncrementalPotentials:
    """Potentials kept across pivots must equal a from-scratch propagation."""

    @staticmethod
    def assert_tree_potentials(plan, pots, cost):
        phi, psi = tree_potentials(plan.basis_edges, cost.entries)
        assert pots.phi.tobytes() == phi.tobytes()
        assert pots.psi.tobytes() == psi.tobytes()

    def test_uniform_square(self, rng):
        for n in range(1, 13):
            uniform = DiscreteMeasure(np.full(n, 1.0 / n))
            cost = CostMatrix(rng.random((n, n)))
            plan, pots, _ = solve_discrete_ot(uniform, uniform, cost)
            self.assert_tree_potentials(plan, pots, cost)

    def test_zero_slack_ties(self, rng):
        # few distinct integer costs and rational weights: many tied slacks
        for _ in range(40):
            m, n = rng.integers(2, 10, size=2)
            mu, nu, _ = random_transport_instance(rng, m, n, rational=True)
            cost = CostMatrix(rng.integers(0, 3, size=(m, n)).astype(float))
            plan, pots, _ = solve_discrete_ot(mu, nu, cost)
            self.assert_tree_potentials(plan, pots, cost)
            assert verify_optimality(plan, pots, mu, nu, cost)

    def test_binary_costs(self, rng):
        # the 0/1 relation binary_cost_ot hands to the solver as its cost
        for _ in range(40):
            m, n = rng.integers(2, 10, size=2)
            mu, nu, _ = random_transport_instance(rng, m, n, rational=bool(rng.integers(2)))
            gamma = (rng.random((m, n)) < 0.7).astype(float)
            cost = CostMatrix(gamma)
            plan, pots, value = solve_discrete_ot(mu, nu, cost)
            self.assert_tree_potentials(plan, pots, cost)
            assert value == pytest.approx(
                binary_dual_maximum(mu.weights, nu.weights, gamma), abs=1e-9
            )


class TestPivotRules:
    """Dantzig entering and Cunningham leaving on degenerate instances."""

    @staticmethod
    def strongly_feasible(plan):
        """Rooted at row 0, every zero-mass basis edge has its row as child.

        Then a positive amount of flow can go from every node to the root,
        which is the invariant Cunningham's leaving rule keeps.
        """
        m, n = plan.shape
        adj = [[] for _ in range(m + n)]
        for i, j in plan.basis_edges:
            adj[i].append(m + j)
            adj[m + j].append(i)
        parent = {0: None}
        stack = [0]
        while stack:
            node = stack.pop()
            for nxt in adj[node]:
                if nxt not in parent:
                    parent[nxt] = node
                    stack.append(nxt)
        return all(
            plan.mass[i, j] > 0.0 or parent[i] == m + j for i, j in plan.basis_edges
        )

    def test_basis_strongly_feasible(self, rng):
        # uniform marginals and 0/1/2 costs: many zero-mass basis edges
        for _ in range(60):
            m, n = rng.integers(2, 11, size=2)
            mu, nu = measures(np.full(m, 1.0 / m), np.full(n, 1.0 / n))
            cost = CostMatrix(rng.integers(0, 3, size=(m, n)).astype(float))
            plan, pots, _ = solve_discrete_ot(mu, nu, cost)
            assert self.strongly_feasible(plan)
            assert verify_optimality(plan, pots, mu, nu, cost)

    @staticmethod
    def probability(rng, n, zeros):
        w = rng.random(n) + 0.05
        w[rng.choice(n, size=zeros, replace=False)] = 0.0
        return DiscreteMeasure(w / w.sum())

    @pytest.mark.parametrize("kind", ["uniform square", "integer costs", "zero weights"])
    def test_pivot_budget(self, rng, kind):
        # first-violating-edge pricing needed thousands of pivots here
        n = 40
        for _ in range(3):
            if kind == "uniform square":
                mu = nu = DiscreteMeasure(np.full(n, 1.0 / n))
                cost = CostMatrix(rng.random((n, n)))
            elif kind == "integer costs":
                mu = nu = DiscreteMeasure(np.full(n, 1.0 / n))
                cost = CostMatrix(rng.integers(0, 4, size=(n, n)).astype(float))
            else:
                mu, nu = self.probability(rng, n, 8), self.probability(rng, n, 8)
                cost = CostMatrix(rng.random((n, n)))
            budget = 8 * (n + n)
            plan, pots, value = solve_discrete_ot(mu, nu, cost, max_iter=budget)
            # a solve that needed the whole budget raised at the old cap,
            # which counted reduced-cost passes, not pivots
            assert plan.stop_reason == "tol" and plan.iterations < budget, (
                f"{plan.iterations} pivots, {plan.stop_reason}, budget {budget}"
            )
            assert verify_optimality(plan, pots, mu, nu, cost)
            assert value == pytest.approx(
                lp_transport_value(mu.weights, nu.weights, cost.entries), abs=1e-9
            )

    @pytest.mark.parametrize("n", [30, 60])
    @pytest.mark.parametrize("weights", ["random", "uniform"])
    def test_pivots_from_matrix_minimum(self, rng, n, weights):
        # a north-west corner start needs 122-144 pivots on these at n = 30
        # and 314-421 at n = 60; the matrix-minimum start 23-60 and 85-126
        for _ in range(3):
            if weights == "random":
                mu, nu, cost = random_transport_instance(rng, n, n)
            else:
                mu = nu = DiscreteMeasure(np.full(n, 1.0 / n))
                cost = CostMatrix(rng.random((n, n)))
            budget = 2 * (n + n)
            plan, pots, _ = solve_discrete_ot(mu, nu, cost, max_iter=budget)
            assert plan.stop_reason == "tol" and plan.iterations < budget, (
                f"{plan.iterations} pivots, {plan.stop_reason}, budget {budget}"
            )
            assert verify_optimality(plan, pots, mu, nu, cost)


class TestSolveReport:
    """The plan is the solve's report; at the pivot cap it is the last basis."""

    def test_cap_returns_last_basis(self, rng):
        capped = 0
        for _ in range(20):
            m, n = rng.integers(3, 12, size=2)
            mu, nu, cost = random_transport_instance(rng, m, n)
            full = solve_discrete_ot(mu, nu, cost)[0]
            tol = PIVOT_TOL * (cost.entries.max() - cost.entries.min())
            for k in range(1, full.iterations):
                plan, _, value = solve_discrete_ot(mu, nu, cost, max_iter=k)
                msg = f"{m}x{n} capped at {k} of {full.iterations} pivots"
                assert plan.stop_reason == "max_iter" and not plan.converged, msg
                assert plan.iterations == k, msg
                assert len(plan.history) == k + 1, msg
                # the pivots are deterministic: the capped run is a prefix
                assert plan.history == full.history[: k + 1], msg
                assert plan.residual == plan.history[-1] > tol, msg
                assert plan.marginal_residual(mu, nu) <= CERT_TOL * mu.total_mass, msg
                assert value == float(np.sum(plan.mass * cost.entries)), msg
                capped += 1
        assert capped > 20

    def test_default_cap_meets_tol(self, rng):
        for _ in range(20):
            m, n = rng.integers(1, 12, size=2)
            mu, nu, cost = random_transport_instance(rng, m, n)
            plan, pots, _ = solve_discrete_ot(mu, nu, cost)
            c = cost.entries
            msg = f"{m}x{n} after {plan.iterations} pivots"
            assert plan.stop_reason == "tol" and plan.converged, msg
            assert plan.residual <= PIVOT_TOL * (c.max() - c.min()), msg
            assert len(plan.history) == plan.iterations + 1, msg
            assert plan.residual == plan.history[-1], msg
            assert verify_optimality(plan, pots, mu, nu, cost), msg

    def test_cap_counts_pivots(self):
        # the 6x6 fixture needs 3 pivots, so a cap of 3 is enough
        mu = read_measure_csv(DATA / "mu_six.csv")
        nu = read_measure_csv(DATA / "nu_six.csv")
        cost = CostMatrix(read_matrix_csv(DATA / "cost_6x6.csv"))
        plan = solve_discrete_ot(mu, nu, cost, max_iter=3)[0]
        assert (plan.stop_reason, plan.iterations) == ("tol", 3)
        assert solve_discrete_ot(mu, nu, cost, max_iter=2)[0].stop_reason == "max_iter"

    def test_mass_zero_off_basis(self, rng):
        # the final plan is written from the basis edges alone: every cell
        # off them holds exactly 0.0, at tol and at a cap of 1, 2 or 3
        stops = set()
        for _ in range(20):
            m, n = rng.integers(3, 12, size=2)
            mu, nu, cost = random_transport_instance(rng, m, n, rational=True)
            for cap in (None, 1, 2, 3):
                plan = solve_discrete_ot(mu, nu, cost, max_iter=cap)[0]
                off_basis = np.ones(plan.shape, dtype=bool)
                off_basis[tuple(zip(*plan.basis_edges))] = False
                assert np.all(plan.mass[off_basis] == 0.0)
                stops.add((cap, plan.stop_reason))
        assert {(None, "tol"), (1, "max_iter"), (2, "max_iter"), (3, "max_iter")} <= stops

    def test_plan_built_without_pivots_reads_converged(self, rng):
        mu, nu, cost = random_transport_instance(rng, 4, 5)
        for plan in (
            matrix_minimum(mu, nu, cost),
            TransportPlan(np.diag([0.5, 0.5]), frozenset({(0, 0), (1, 1), (0, 1)})),
        ):
            assert plan.converged
            assert (plan.iterations, plan.residual, plan.history) == (0, 0.0, ())


class TestVerify:
    HALF = DiscreteMeasure([0.5, 0.5])

    def test_solver_output_certifies(self, rng):
        mu, nu, cost = random_transport_instance(rng, 3, 4)
        plan, pots, _ = solve_discrete_ot(mu, nu, cost)
        assert verify_optimality(plan, pots, mu, nu, cost)

    def test_zero_potentials_certify_diagonal(self):
        cost = CostMatrix([[0.0, 1.0], [1.0, 0.0]])
        plan = TransportPlan(np.diag([0.5, 0.5]), frozenset({(0, 0), (1, 1), (0, 1)}))
        pots = DualPotentials([0.0, 0.0], [0.0, 0.0])
        assert verify_optimality(plan, pots, self.HALF, self.HALF, cost)

    def test_antidiagonal_has_no_certificate(self):
        cost = CostMatrix([[0.0, 1.0], [1.0, 0.0]])
        plan = TransportPlan(
            np.array([[0.0, 0.5], [0.5, 0.0]]), frozenset({(0, 1), (1, 0), (0, 0)})
        )
        pots = DualPotentials([0.0, 0.0], [0.0, 0.0])
        assert not verify_optimality(plan, pots, self.HALF, self.HALF, cost)

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_marginals_must_match(self, scale):
        # every slack binds on the diagonal; only the row and column sums,
        # off by 1e-6 of the total mass, tell the plan from an optimal one
        cost = CostMatrix([[0.0, 1.0], [1.0, 0.0]])
        half = DiscreteMeasure([0.5 * scale, 0.5 * scale])
        edges = frozenset({(0, 0), (1, 1), (0, 1)})
        pots = DualPotentials([0.0, 0.0], [0.0, 0.0])
        exact = TransportPlan(np.diag([0.5 * scale, 0.5 * scale]), edges)
        assert verify_optimality(exact, pots, half, half, cost)
        off = TransportPlan(np.diag([0.5 * scale, (0.5 + 1e-6) * scale]), edges)
        assert not verify_optimality(off, pots, half, half, cost)

    def test_nan_mass_has_no_certificate(self, rng):
        # a nan residual fails the marginal test: every other comparison
        # with nan is False, so the slack tests alone would pass the plan
        mu, nu, cost = random_transport_instance(rng, 3, 4)
        plan, pots, _ = solve_discrete_ot(mu, nu, cost)
        object.__setattr__(plan, "mass", np.full(plan.shape, np.nan))
        assert not verify_optimality(plan, pots, mu, nu, cost)

    def test_shape_mismatch(self):
        plan = TransportPlan(np.array([[1.0]]), frozenset({(0, 0)}))
        pots = DualPotentials([0.0], [0.0])
        one = DiscreteMeasure([1.0])
        with pytest.raises(DomainError):
            verify_optimality(plan, pots, one, one, CostMatrix([[0.0, 1.0]]))
        with pytest.raises(DomainError):
            verify_optimality(plan, pots, one, self.HALF, CostMatrix([[1.0]]))
        with pytest.raises(DomainError, match="potential lengths"):
            verify_optimality(plan, DualPotentials([0.0, 0.0], [0.0]), one, one, CostMatrix([[1.0]]))


class TestExtractAssignment:
    def test_identity(self):
        plan = TransportPlan(np.diag([0.5, 0.5]), frozenset({(0, 0), (1, 1), (0, 1)}))
        assert extract_assignment(plan).tolist() == [0, 1]

    def test_swap(self):
        plan = TransportPlan(
            np.array([[0.0, 0.5], [0.5, 0.0]]), frozenset({(0, 1), (1, 0), (1, 1)})
        )
        assert extract_assignment(plan).tolist() == [1, 0]

    def test_split_row_rejected(self):
        plan = TransportPlan(
            np.array([[0.5, 0.0], [0.25, 0.25]]),
            frozenset({(0, 0), (1, 0), (1, 1)}),
        )
        with pytest.raises(NonAssignmentError):
            extract_assignment(plan)

    def test_non_square_rejected(self):
        plan = TransportPlan(np.array([[0.5, 0.5]]), frozenset({(0, 0), (0, 1)}))
        with pytest.raises(NonAssignmentError, match="not square"):
            extract_assignment(plan)

    def test_entries_other_than_one_over_n_rejected(self):
        plan = TransportPlan(np.diag([0.3, 0.7]), frozenset({(0, 0), (1, 1), (0, 1)}))
        with pytest.raises(NonAssignmentError, match="differ from 1/n"):
            extract_assignment(plan)


class TestTransportPlanInvariants:
    def test_basis_must_span(self):
        with pytest.raises(DomainError):
            TransportPlan(np.diag([0.5, 0.5]), frozenset({(0, 0), (1, 1), (0, 0)}))

    def test_support_outside_basis_rejected(self):
        with pytest.raises(DomainError):
            TransportPlan(
                np.array([[0.5, 0.0], [0.25, 0.25]]),
                frozenset({(0, 0), (0, 1), (1, 1)}),
            )

    @pytest.mark.parametrize(
        "mass, edges, message",
        [
            ([0.5, 0.5], {(0, 0)}, "mass must be a matrix"),
            ([[1.5, -0.5]], {(0, 0), (0, 1)}, "mass entries must be nonnegative"),
            ([[1.0, 0.0]], {(0, 0), (0, 5)}, "basis edges must form a spanning tree"),
            ([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0]], {(0, 0), (0, 1), (1, 0), (1, 1)},
             "basis edges must form a spanning tree"),
        ],
        ids=["vector", "negative", "edge outside", "cycle"],
    )
    def test_invalid_plan_rejected(self, mass, edges, message):
        with pytest.raises(DomainError, match=message):
            TransportPlan(np.array(mass), frozenset(edges))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mass_rejected(self, bad):
        edges = frozenset({(0, 0), (1, 1), (0, 1)})
        with pytest.raises(DomainError, match="mass must contain only finite values"):
            TransportPlan(np.full((2, 2), bad), edges)

    def test_off_basis_mass_up_to_tol(self):
        # a 2 x 3 plan may carry up to CERT_TOL times its total mass on a
        # cell off the basis, and no more
        edges = frozenset({(0, 0), (0, 1), (1, 1), (1, 2)})
        mass = np.array([[0.25, 0.25, 0.0], [0.0, 0.25, 0.25]])
        for _ in range(3):  # settle the tolerance, which counts the cell too
            mass[0, 2] = CERT_TOL * mass.sum()
        assert mass[0, 2] == CERT_TOL * mass.sum()
        assert TransportPlan(mass, edges).mass[0, 2] == mass[0, 2]
        mass[0, 2] *= 1.0 + 1e-6
        with pytest.raises(DomainError, match="plan support must be contained"):
            TransportPlan(mass, edges)

    def test_numpy_integer_edges_normalized(self):
        edges = {(np.int64(i), np.intp(j)) for i, j in [(0, 0), (1, 1), (0, 1)]}
        plan = TransportPlan(np.diag([0.5, 0.5]), frozenset(edges))
        assert plan.basis_edges == {(0, 0), (1, 1), (0, 1)}
        assert all(type(i) is int and type(j) is int for i, j in plan.basis_edges)

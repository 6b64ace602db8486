"""Exact solver for discrete optimal transport via the network simplex.

The linear program

    min  sum_ij C_ij pi_ij
    s.t. sum_j pi_ij = mu_i,  sum_i pi_ij = nu_j,  pi >= 0

is solved by maintaining a basic feasible solution whose basis edges form a
spanning tree of the bipartite supply/demand graph.  The start is the
matrix-minimum plan, which reads C and so leaves fewer pivots than a start
that ignores it: cells are filled greedily by increasing cost, and the
components of that forest are joined into a tree by zero-mass edges, each
from a component's first row to the cheapest column already in the tree.
Taken in row order, each join adds one component, so when row i's turn
comes the tree holds exactly the components whose first row is below i:
the rows that join are the first rows of their components, and all their
columns are chosen by one masked argmin.  Rooted at row 0, every
zero-mass edge then has its row as the child, so with positive weights the
start is strongly feasible.  Dual potentials are propagated along the tree,
the edge with the most negative reduced cost enters the basis (Dantzig's
rule), mass shifts around the unique cycle it creates, and a binding edge
leaves, chosen by Cunningham's rule (1976, "A network simplex method"),
which keeps the tree strongly feasible and so cannot cycle under any
entering rule.  Adding a constant to C changes no
optimal plan, so the pivots run on C - min C, and the pivot and certificate
tolerances are relative constants times the cost range max C - min C: the
same rule holds for costs of 1e-12, of 1e12 and at an offset of 1e10.  The
certificate adds only a few ulps of max|C|, the rounding of min C in the
column potentials.  The pivot tolerance keeps rounding noise in the reduced
costs from reading as a violation.

The returned plan is a :class:`~otecon.measures.SolveReport`: its pivot
count, why the pivots stopped (``tol`` or ``max_iter``), the final dual
violation, and that violation at every basis.  The pivot cap is a safety
net: a plan returned at it is the last basis, feasible but with tree
potentials that are not certified.  A converged plan and its potentials
form an optimality certificate: primal and dual feasibility plus
complementary slackness, checkable by :func:`verify_optimality` without
trusting the solver.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ._util import as_float_array, check_count, frozen
from .errors import DomainError, NonAssignmentError
from .measures import (
    CostMatrix, DiscreteMeasure, _check_balanced, _check_cost_shape, _marginal_gap,
    _NoSolve,
)

# Dual violations below PIVOT_TOL times the cost range are treated as zero
# when searching for an entering edge; well under the certificate tolerance
# but well above accumulated rounding noise at the supported problem sizes.
PIVOT_TOL = 1e-11

# Certificate tolerance: reduced costs are held to CERT_TOL times the cost
# range by default, plan entries to CERT_TOL times the plan's total mass.
CERT_TOL = 1e-9


@dataclass(frozen=True)
class TransportPlan(_NoSolve):
    """Coupling matrix together with the spanning-tree basis that produced it.

    ``basis_edges`` has exactly M + N - 1 edges forming a spanning tree of
    the bipartite graph on rows and columns; the support of ``mass`` is
    contained in the basis (zero-mass basic edges are kept for degeneracy).
    The report is that of the pivots that reached the basis; a plan built
    by hand, or by :func:`matrix_minimum`, reads as converged at step 0.
    :func:`matrix_minimum` and :func:`solve_discrete_ot` write ``mass``
    from the basis edges alone, so in their plans every cell off
    ``basis_edges`` holds exactly 0.0.
    """

    mass: np.ndarray
    basis_edges: frozenset = field(repr=False)

    def __post_init__(self) -> None:
        m = as_float_array(self.mass, "mass")
        if m.ndim != 2:
            raise DomainError(f"mass must be a matrix, got shape {m.shape}")
        tol = CERT_TOL * m.sum()
        if (m < -tol).any():
            raise DomainError("mass entries must be nonnegative")
        rows, cols = m.shape
        edges = frozenset((int(i), int(j)) for i, j in self.basis_edges)
        _check_basis(edges, rows, cols)
        if any(divmod(k, cols) not in edges for k in np.flatnonzero(m > tol).tolist()):
            raise DomainError("plan support must be contained in the basis")
        object.__setattr__(self, "mass", frozen(m))
        object.__setattr__(self, "basis_edges", edges)

    @property
    def shape(self) -> tuple[int, int]:
        return self.mass.shape

    def marginal_residual(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        """Largest violation of the adding-up constraints against mu, nu."""
        return _marginal_gap(
            self.mass.sum(axis=1), self.mass.sum(axis=0), mu.weights, nu.weights
        )


@dataclass(frozen=True)
class DualPotentials:
    """Row and column potentials, normalized so phi[0] == 0."""

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi", frozen(np.asarray(self.phi, dtype=float)))
        object.__setattr__(self, "psi", frozen(np.asarray(self.psi, dtype=float)))

    def objective(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
        return float(mu.weights @ self.phi + nu.weights @ self.psi)


def _find(label: list[int], a: int) -> int:
    """Root of node a in the union-find forest label, halving its path."""
    while label[a] != a:
        label[a] = label[label[a]]
        a = label[a]
    return a


def _check_basis(edges, rows: int, cols: int) -> None:
    """Reject basis edges that are not M + N - 1 edges of a spanning tree."""
    if len(edges) != rows + cols - 1:
        raise DomainError(f"basis must have {rows + cols - 1} edges, got {len(edges)}")
    if not _is_spanning_tree(edges, rows, cols):
        raise DomainError("basis edges must form a spanning tree")


def _is_spanning_tree(edges, rows: int, cols: int) -> bool:
    """Check the bipartite edge set is acyclic and connected."""
    n_nodes = rows + cols
    parent = list(range(n_nodes))
    merged = 0
    for i, j in edges:
        if not (0 <= i < rows and 0 <= j < cols):
            return False
        ra, rb = _find(parent, i), _find(parent, rows + j)
        if ra == rb:
            return False
        parent[ra] = rb
        merged += 1
    return merged == n_nodes - 1


def matrix_minimum(
    mu: DiscreteMeasure, nu: DiscreteMeasure, cost: CostMatrix
) -> TransportPlan:
    """Matrix-minimum starting plan with exactly M + N - 1 basis edges.

    The cells are visited by increasing cost (ties row-major), and each
    cell whose row and column are both open gets the smaller of their
    remaining masses; a line closes when its remainder is <= 0.  Every
    allocation closes a line that takes no later edge, so the allocated
    edges form a forest.  The forest is joined into a tree rooted at row 0:
    visiting rows in index order, each component not yet reached hangs by a
    zero-mass edge from its first row to the cheapest column already in the
    tree.  A column still unreached, one with no row in its component,
    hangs from row 0.

    The cells come from a heap with one (cost, row) entry per open row, at
    the row's next cell, in the row's own stable cost order, whose column
    was open when the entry was made; a row leaves the heap when it closes.
    The heap order, (cost, row) and then the column order within the row,
    is the stable row-major order of all the cells, so the plan is the one
    a scan of every cell in that order makes, without the cells of closed
    rows or those a row has passed.

    The join is computed at once, not row by row.  If a zero-weight row 0
    took no edge, it first hangs on its cheapest column, and its component
    becomes that column's.  From then on, when row i's turn comes the tree
    holds exactly the components whose first row is below i: row 0's, and
    those of the earlier rows that joined.  So row i joins if and only if
    it is the first row of its component, and the columns in the tree are
    those whose component's first row is below i.  One masked argmin over
    the joining rows picks each one's column, with the ties the sequential
    join breaks, and the columns whose component has no row are the ones
    left unreached.
    """
    rows, cols = cost.shape
    edges, masses = _matrix_minimum(mu, nu, cost.entries, cost.entries.tolist())
    # Every cell off the basis holds exactly 0.0, as do the joining edges.
    mass = np.zeros((rows, cols))
    ei, ej = zip(*edges)
    mass[ei, ej] = masses
    return TransportPlan(mass, frozenset(edges))


def _matrix_minimum(
    mu: DiscreteMeasure, nu: DiscreteMeasure, c: np.ndarray, cl: list
) -> tuple[list[tuple[int, int]], list[float]]:
    """:func:`matrix_minimum`'s basis edges and their masses, on the cost
    array c whose entries are given as the lists cl."""
    _check_cost_shape(c, mu.size, nu.size)
    _check_balanced(mu, nu)
    rows, cols = c.shape
    supply, demand = mu.weights.tolist(), nu.weights.tolist()
    col_open = [w > 0.0 for w in demand]
    edges: list[tuple[int, int]] = []
    masses: list[float] = []
    order = np.argsort(c, axis=1, kind="stable").tolist()
    at = [0] * rows  # position of each row's heap entry in its order
    heap = [(cl[i][order[i][0]], i) for i in range(rows) if supply[i] > 0.0]
    heapq.heapify(heap)
    while heap:
        i = heap[0][1]
        row = order[i]
        j = row[at[i]]
        if col_open[j]:
            step = min(supply[i], demand[j])
            edges.append((i, j))
            masses.append(step)
            supply[i] -= step
            demand[j] -= step
            col_open[j] = demand[j] > 0.0
            if supply[i] <= 0.0:
                heapq.heappop(heap)
                continue
        # The row is open and column j closed: move on to its next open one.
        # Only rounding dust left on the row once every column has closed
        # runs off the end.
        k = at[i] + 1
        while k < cols and not col_open[row[k]]:
            k += 1
        if k == cols:
            heapq.heappop(heap)
        else:
            at[i] = k
            heapq.heapreplace(heap, (cl[i][row[k]], i))

    # A forest with M + N - 1 edges spans every node already.
    if len(edges) < rows + cols - 1:
        # Nodes 0..M-1 are rows and M..M+N-1 columns, as in the solver.
        label = list(range(rows + cols))  # union-find over the forest
        for i, j in edges:
            label[_find(label, i)] = _find(label, rows + j)
        # Each union roots at a column, so row 0 is its own root only when,
        # of zero weight, it took no edge: hang it on its cheapest column.
        if _find(label, 0) == 0:
            j = int(c[0].argmin())
            edges.append((0, j))
            label[0] = _find(label, rows + j)
        root = [_find(label, node) for node in range(rows + cols)]
        first: dict[int, int] = {}  # each component's first row
        for i in range(rows):
            first.setdefault(root[i], i)
        joining = [i for i in range(1, rows) if first[root[i]] == i]
        # rows stands for the first row of a component that has none.
        col_first = np.array([first.get(r, rows) for r in root[rows:]])
        in_tree = col_first < np.array(joining)[:, None]
        picks = np.where(in_tree, c[joining], np.inf).argmin(axis=1)
        edges += zip(joining, picks.tolist())
        # Each column still out of the tree took no edge.
        edges += [(0, j) for j in np.flatnonzero(col_first == rows).tolist()]
    return edges, masses + [0.0] * (len(edges) - len(masses))


def solve_discrete_ot(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
    max_iter: int | None = None,
) -> tuple[TransportPlan, DualPotentials, float]:
    """Solve the discrete transport LP exactly; return plan, duals, value.

    The edge with the most negative reduced cost enters (Dantzig's rule,
    ties to the row-major first); the search stops when no reduced cost is
    below ``-PIVOT_TOL * (max C - min C)``, a tolerance above the rounding
    noise in the reduced costs.  The pivots run on C - min C, which has the
    same optimal plans, so the offset min C adds no rounding noise to the
    pivots; it is added back to the column potentials, which round it to
    its ulps, and the value is the plan's cost on C itself.  Among the edges
    on the induced cycle that lose mass and carry the least of it, the last
    one met when the cycle is walked from its apex in the entering edge's
    direction leaves (Cunningham's rule).  Zero-mass basic edges are
    retained so the basis stays a spanning tree under degeneracy.

    Rooted at row 0, a basis is strongly feasible when every zero-mass edge
    has its row end as the child, so that some flow can move from every
    node to the root.  Cunningham's rule keeps that property, and a strongly
    feasible basis never repeats, so degenerate pivots cannot cycle.  The
    start is :func:`matrix_minimum`'s basis edges and masses on C - min C,
    taken as lists without a plan object: the edges are checked to be
    M + N - 1 edges of a spanning tree, and the masses, each the smaller of
    two positive remainders or a joining 0.0, need no check.  Its heap of
    open rows yields the cells in the stable row-major cost order.  When
    all weights are positive, each of its allocations is positive, and each
    zero-mass edge that joins its forest hangs a component from that
    component's first row, which is then the edge's child: the start is
    strongly feasible.  A zero-weight atom makes that impossible: no tree
    rooted at row 0 is strongly feasible, since a zero-weight column can
    send no flow toward the root.  There the rule carries no guarantee,
    and ``max_iter`` (default ``200 * M * N + 1000``, at least 1), a cap
    on the pivots, is the safety net.

    The plan is the solve's :class:`~otecon.measures.SolveReport`.  At
    every basis the loop records its dual violation, ``max(0, -min
    reduced cost)`` on C - min C; it stops with ``stop_reason`` ``tol`` when
    that is within the tolerance, and with ``max_iter`` after ``max_iter``
    pivots.  ``iterations`` counts the pivots, ``residual`` is the final
    violation and ``history`` holds one violation per basis.  A plan at the
    cap is the last basis: feasible, but its tree potentials are not
    certified.

    The basis is kept as a tree rooted at row 0 (nodes 0..M-1 are rows,
    M..M+N-1 columns), with parent and depth arrays and an adjacency
    updated in place.  Each node other than the root also keeps the mass on
    its edge to its parent, so the M + N - 1 masses are M + N floats and the
    leaving edge is one minimum over the losing nodes of the cycle.  After
    each pivot only the subtree cut off by the leaving edge is re-hung under
    the entering edge: the edges on the path from the entering edge's end
    to the leaving edge turn over, and each one's mass moves to its new
    child.  Only the subtree's potentials are recomputed, each from its tree
    parent and written into the array that prices the next pivot.  The mass
    of the leaving edge is the least on the cycle, so it drops to exactly
    0.0, and every cell off the basis holds 0.0: the plan's array is written
    from the basis edges.
    """
    low, high = float(cost.entries.min()), float(cost.entries.max())
    span = high - low  # max(C - min C), tested before C - min C is formed
    if not math.isfinite(span):
        raise DomainError(
            f"cost range max C - min C = {high:g} - ({low:g}) is not finite"
        )
    c = cost.entries - low
    cl = c.tolist()  # row i's edge costs; column j's are cl[i][j] over i
    edges, masses = _matrix_minimum(mu, nu, c, cl)
    rows, cols = c.shape
    _check_basis(edges, rows, cols)
    if max_iter is None:
        max_iter = 200 * rows * cols + 1000
    check_count(max_iter, "max_iter", 1)
    tol = PIVOT_TOL * span
    n_nodes = rows + cols
    adj: list[list[int]] = [[] for _ in range(n_nodes)]
    for i, j in edges:
        adj[i].append(rows + j)
        adj[rows + j].append(i)
    parent = [-1] * n_nodes
    depth = [0] * n_nodes
    pot = [0.0] * n_nodes  # phi for rows, then psi for columns
    p = np.zeros(n_nodes)  # pot again, as the array that prices
    phi, psi = p[:rows, None], p[None, rows:]

    def descend(top: int) -> None:
        """Reset parent, depth and potential below top from top's own."""
        below = [top]  # the loop reaches each node appended to it
        for node in below:
            up = parent[node]
            d = depth[node] + 1
            base = pot[node]
            if node < rows:
                costs = cl[node]
                for nxt in adj[node]:
                    if nxt != up:
                        parent[nxt] = node
                        depth[nxt] = d
                        pot[nxt] = p[nxt] = costs[nxt - rows] - base
                        below.append(nxt)
            else:
                j = node - rows
                for nxt in adj[node]:
                    if nxt != up:
                        parent[nxt] = node
                        depth[nxt] = d
                        pot[nxt] = p[nxt] = cl[nxt][j] - base
                        below.append(nxt)

    descend(0)
    # flow[x] is the mass on the tree edge from node x to parent[x]; the
    # root, row 0, has no such edge.
    flow = [0.0] * n_nodes
    for (i, j), w in zip(edges, masses):
        flow[i if parent[i] == rows + j else rows + j] = w
    # One buffer for the reduced costs: a fresh large array each pivot
    # costs more in page faults than the arithmetic.
    reduced = np.empty_like(c)
    history: list[float] = []
    for pivots in range(max_iter + 1):
        # Dantzig's rule: the most negative reduced cost enters (argmin
        # breaks ties row-major).
        np.subtract(c, phi, out=reduced)
        np.subtract(reduced, psi, out=reduced)
        flat = int(reduced.argmin())
        violation = max(0.0, -float(reduced.flat[flat]))
        history.append(violation)
        if violation <= tol or pivots == max_iter:
            break
        i, j = divmod(flat, cols)

        # Climb from both ends to their common ancestor.  The cycle runs
        # the entering edge, then the tree path from the column end to the
        # row end.  Both halves alternate column and row nodes, so the
        # edge to a node's parent loses mass at the columns of col_side
        # and at the rows of row_side, its even positions.
        a, b = rows + j, i
        col_side: list[int] = []
        row_side: list[int] = []
        while depth[a] > depth[b]:
            col_side.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            row_side.append(b)
            b = parent[b]
        while a != b:
            col_side.append(a)
            a = parent[a]
            row_side.append(b)
            b = parent[b]
        # Cunningham's rule: the last losing edge with the least mass met
        # on the walk from the apex along the entering edge's direction,
        # down to the row end, across, up from the column end; so the first
        # met from the apex down the column side, then up the row side:
        # min returns the first of equal minima in that order.
        losing = col_side[::2][::-1] + row_side[::2]
        cut = min(losing, key=flow.__getitem__)
        theta = flow[cut]

        # The leaving edge carried theta, so it drops to exactly 0.0.  A
        # degenerate pivot (theta 0.0) would add and subtract only 0.0.
        if theta > 0.0:
            for x in losing:
                flow[x] -= theta
            for x in col_side[1::2] + row_side[1::2]:
                flow[x] += theta

        up = parent[cut]
        adj[cut].remove(up)
        adj[up].remove(cut)
        adj[i].append(rows + j)
        adj[rows + j].append(i)
        # Re-hang the cut-off subtree from the entering edge's end inside it
        # (a column cut lies on the column side).  On the old path from top
        # to cut each edge turns over, so its mass moves to its new child,
        # and top takes the entering edge's theta.
        top, up = (rows + j, i) if cut >= rows else (i, rows + j)
        node, carried = top, theta
        while node != cut:
            flow[node], carried, node = carried, flow[node], parent[node]
        flow[cut] = carried
        parent[top] = up
        depth[top] = depth[up] + 1
        pot[top] = p[top] = cl[i][j] - pot[up]
        descend(top)
    # The tree edges, each from a node other than the root to its parent.
    ei = list(range(1, rows)) + parent[rows:]
    ej = [up - rows for up in parent[1:rows]] + list(range(cols))
    final = np.zeros((rows, cols))  # every cell off the basis holds 0.0
    final[ei, ej] = flow[1:]
    plan = TransportPlan(
        final,
        frozenset(zip(ei, ej)),
        iterations=pivots,
        stop_reason="tol" if violation <= tol else "max_iter",
        residual=violation,
        history=tuple(history),
    )
    pots = DualPotentials(p[:rows], p[rows:] + low)
    return plan, pots, float(np.sum(plan.mass * cost.entries))


def verify_optimality(
    plan: TransportPlan,
    potentials: DualPotentials,
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    cost: CostMatrix,
) -> bool:
    """Certificate check: primal and dual feasibility plus complementary slackness.

    Independent of how plan and potentials were computed; a True result
    proves optimality of the plan for the given cost up to a tolerance of
    ``CERT_TOL * (max C - min C)`` plus 8 ulps of max|C|: column
    potentials that carry an offset in the costs are rounded to the ulps of
    that offset, which can exceed any fraction of a small cost range.  The
    slack is evaluated as (C - min C) - phi - (psi - min C), so that the
    offset cancels before the slack is summed.  The plan's row and column
    sums must match mu and nu within ``CERT_TOL`` times the total mass, and
    its entries above 1e-12 times the plan's total mass must be binding.
    """
    c = cost.entries
    if plan.shape != c.shape:
        raise DomainError(
            f"plan shape {plan.shape} does not match cost shape {c.shape}"
        )
    _check_cost_shape(cost, mu.size, nu.size)
    phi, psi = potentials.phi, potentials.psi
    if phi.size != c.shape[0] or psi.size != c.shape[1]:
        raise DomainError("potential lengths do not match cost shape")
    gap = plan.marginal_residual(mu, nu)
    if not gap <= CERT_TOL * max(mu.total_mass, nu.total_mass):  # nan fails too
        return False
    low = c.min()
    ulp = np.finfo(float).eps * np.abs(c).max()
    tol = CERT_TOL * (c.max() - low) + 8 * ulp
    slack = (c - low) - phi[:, None] - (psi - low)[None, :]
    if np.min(slack) < -tol:
        return False
    binding = np.abs(slack) <= tol
    return bool(np.all(binding[plan.mass > 1e-12 * plan.mass.sum()]))


def extract_assignment(plan: TransportPlan) -> np.ndarray:
    """Read a permutation off a plan between uniform n-point measures.

    Requires a square plan with exactly one positive entry per row and per
    column, each equal to 1/n within 1e-9.  Returns sigma with
    sigma[i] = column assigned to row i (0-based).
    """
    rows, cols = plan.shape
    if rows != cols:
        raise NonAssignmentError(f"plan is {rows} x {cols}, not square")
    positive = plan.mass > 1e-9
    if np.any(positive.sum(axis=1) != 1) or np.any(positive.sum(axis=0) != 1):
        raise NonAssignmentError("plan mass is split; no unique assignment")
    sigma = np.argmax(positive, axis=1)
    if np.max(np.abs(plan.mass[np.arange(rows), sigma] - 1.0 / rows)) > 1e-9:
        raise NonAssignmentError("positive entries differ from 1/n")
    return sigma

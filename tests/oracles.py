"""Independent reference solvers the tests check the library against.

Nothing here shares code with the package: the transport LP goes through
scipy's HiGHS, the vertex oracle enumerates spanning-tree basic solutions
directly, the tree-potential oracle propagates duals over a basis from
scratch, and the robust-expectation oracle solves the primal ball program
as an explicit LP.
"""

import itertools

import numpy as np
from scipy import optimize


def lp_transport_value(w_mu, w_nu, cost):
    """Transportation LP minimum via scipy linprog."""
    m, n = cost.shape
    rows = []
    rhs = []
    for i in range(m):
        coef = np.zeros((m, n))
        coef[i, :] = 1.0
        rows.append(coef.ravel())
        rhs.append(w_mu[i])
    # the last column constraint is implied by mass balance
    for j in range(n - 1):
        coef = np.zeros((m, n))
        coef[:, j] = 1.0
        rows.append(coef.ravel())
        rhs.append(w_nu[j])
    res = optimize.linprog(
        np.asarray(cost, dtype=float).ravel(),
        A_eq=np.array(rows),
        b_eq=np.array(rhs),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return float(res.fun)


def _tree_flows(edges, w_mu, w_nu):
    """Unique flow on a candidate basis, or None if it is not a spanning tree.

    Nodes 0..m-1 are rows, m..m+n-1 columns.  Leaf stripping resolves the
    flows; anything left over means a cycle, an isolated node means the
    edge set does not span.
    """
    m, n = len(w_mu), len(w_nu)
    incident = [[] for _ in range(m + n)]
    for i, j in edges:
        incident[i].append((i, j))
        incident[m + j].append((i, j))
    if any(not inc for inc in incident):
        return None
    supply = list(w_mu) + list(w_nu)
    degree = [len(inc) for inc in incident]
    alive = set(edges)
    flows = {}
    stack = [node for node in range(m + n) if degree[node] == 1]
    while stack:
        node = stack.pop()
        if degree[node] != 1:
            continue
        edge = next(e for e in incident[node] if e in alive)
        flows[edge] = supply[node]
        i, j = edge
        other = m + j if node == i else i
        supply[other] -= supply[node]
        supply[node] = 0.0
        alive.discard(edge)
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            stack.append(other)
    if alive:
        return None
    return flows


def vertex_minimum_value(w_mu, w_nu, cost):
    """Minimum cost over every basic feasible solution, enumerated outright.

    Every vertex of the transportation polytope is the flow of some
    spanning tree on the bipartite graph, so trying all edge subsets of
    size m+n-1 covers them.  Only viable for small instances.
    """
    m, n = cost.shape
    best = np.inf
    for combo in itertools.combinations(itertools.product(range(m), range(n)), m + n - 1):
        flows = _tree_flows(combo, w_mu, w_nu)
        if flows is None:
            continue
        if min(flows.values()) < -1e-12:
            continue
        value = sum(cost[e] * f for e, f in flows.items())
        best = min(best, value)
    return float(best)


def dro_primal_value(f, delta, w, rho):
    """Worst-case expectation by the primal LP over the transport ball.

    Variables pi[i, j] move mass w_i from reference point i to point j at
    cost delta[j, i]; maximize the expectation of f under the moved mass.
    """
    f = np.asarray(f, dtype=float)
    n = f.size
    objective = -np.tile(f, n)  # index k = i * n + j
    a_eq = np.zeros((n, n * n))
    for i in range(n):
        a_eq[i, i * n : (i + 1) * n] = 1.0
    a_ub = np.array(
        [[delta[k % n, k // n] for k in range(n * n)]]
    )
    res = optimize.linprog(
        objective,
        A_eq=a_eq,
        b_eq=np.asarray(w, dtype=float),
        A_ub=a_ub,
        b_ub=[rho],
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0, res.message
    return -float(res.fun)


def binary_dual_maximum(w_mu, w_nu, gamma):
    """Exhaustive max over subsets A of mu(A) - nu(A^Gamma).

    A^Gamma holds every column j related outside Gamma to some row of A,
    i.e. gamma[i, j] == 0 for some i in A.
    """
    m, n = gamma.shape
    best = -np.inf
    for bits in itertools.product((0, 1), repeat=m):
        rows = [i for i in range(m) if bits[i]]
        cols = {j for i in rows for j in range(n) if gamma[i, j] == 0}
        best = max(best, sum(w_mu[i] for i in rows) - sum(w_nu[j] for j in cols))
    return float(best)


def tree_potentials(edges, cost):
    """Dual potentials on a spanning-tree basis, propagated from phi[0] = 0.

    Walks the tree outward from row 0 and sets each node's potential from
    the node it was reached by: psi_j = C_ij - phi_i for a column reached
    from row i, phi_i = C_ij - psi_j for a row reached from column j.
    """
    m, n = cost.shape
    pending = set(edges)
    assert len(pending) == m + n - 1
    phi = [None] * m
    psi = [None] * n
    phi[0] = 0.0
    while pending:
        for i, j in sorted(pending):
            if phi[i] is not None and psi[j] is None:
                psi[j] = float(cost[i, j]) - phi[i]
            elif psi[j] is not None and phi[i] is None:
                phi[i] = float(cost[i, j]) - psi[j]
        left = {(i, j) for i, j in pending if phi[i] is None or psi[j] is None}
        assert len(left) < len(pending), "edges do not span from row 0"
        pending = left
    return np.array(phi), np.array(psi)

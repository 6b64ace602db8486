"""Independent reference solvers the tests check the library against.

Nothing here shares code with the package: the transport LP goes through
scipy's HiGHS, the vertex oracle enumerates spanning-tree basic solutions
directly, the tree-potential oracle propagates duals over a basis from
scratch, the matrix-minimum scan visits every cell in one flat sorted
order, as the package did before it kept a heap of open rows, and the
robust-expectation oracle solves the primal ball program
as an explicit LP.  The loop references at the end walk the quantile grids,
rank candidates and Halton digits one element at a time, as the package
did before those paths became array operations; the winners formula
after them is the array form the package wrote inline before it called
its empirical quantile and cdf.  The loop references also run the Sinkhorn
loops that build the plan on every sweep to measure their residual, and
the log-sum-exp loop the package ran before its kernel scaling.  The
one-shot sliced distance holds the projections of all directions at once
and merges the quantile grids by a sorted union, as the package did
before it took the directions in blocks.  The sista loop is the
proximal-gradient method the package ran before its Newton solver, and
the Laguerre loop is the two-pass gradient ascent on the weights that
recounted the cell masses apart from the objective on every step; the
grid masses and semidual after it recount a Laguerre diagram on their own
grid, to certify the package's Newton weights, and the top-two scoring
takes two row-wise argmins over the grid points' scores, as the package
did before it scored the grid one site at a time.  The
CSV readers and the JSON writer at the end are the row-by-row csv-module
readers and the element-by-element serializer the command line used
before it parsed and formatted whole arrays; the readers stop where the
package builds its measure and table objects, and raise
:class:`CsvLoopError` with the message the package's ``CsvError`` carries.
"""

import csv
import itertools
import json
import math

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


def binary_dual_maximizers(w_mu, w_nu, gamma):
    """The maximum of mu(A) - nu(A^Gamma) and every row set A attaining it.

    Enumerates all 2^m row subsets as one boolean matrix, so it is only
    viable for small m.  Ties are decided by exact float equality, which
    is exact when every weight is a dyadic rational with few bits.
    """
    m, _ = gamma.shape
    subsets = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1 == 1
    outside = np.asarray(gamma) == 0
    reach = (subsets[:, :, None] & outside[None, :, :]).any(axis=1)
    duals = np.array(
        [np.sum(w_mu[s]) - np.sum(w_nu[r]) for s, r in zip(subsets, reach)]
    )
    best = float(duals.max())
    maximizers = [
        frozenset(np.flatnonzero(s).tolist()) for s in subsets[duals == best]
    ]
    return best, maximizers


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


def matrix_minimum_scan(w_mu, w_nu, cost):
    """Matrix-minimum start by a scan of every cell; returns (mass, edges).

    Walks all M * N cells in one stable argsort of the cost (ties
    row-major), giving each cell whose row and column are both open the
    smaller remainder, until every row or every column has closed.  The
    forest is joined as the package joins it: rows in index order hang
    each component not yet reached from its first row on the cheapest
    column already in the tree, and unreached columns hang from row 0.
    """
    cost = np.asarray(cost, dtype=float)
    rows, cols = cost.shape
    left = [float(w) for w in w_mu] + [float(w) for w in w_nu]
    is_open = [w > 0.0 for w in left]
    open_rows, open_cols = sum(is_open[:rows]), sum(is_open[rows:])
    label = list(range(rows + cols))

    def find(a):
        while label[a] != a:
            a = label[a]
        return a

    mass = np.zeros((rows, cols))
    edges = set()
    for flat in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(flat, cols)
        if not (is_open[i] and is_open[rows + j]):
            continue
        step = min(left[i], left[rows + j])
        mass[i, j] = step
        edges.add((i, j))
        label[find(i)] = find(rows + j)
        left[i] -= step
        left[rows + j] -= step
        for node in (i, rows + j):
            if left[node] <= 0.0:
                is_open[node] = False
                open_rows -= node < rows
                open_cols -= node >= rows
        if not (open_rows and open_cols):
            break
    root = np.array([find(node) for node in range(rows + cols)])
    in_tree = root == root[0]
    if not in_tree[rows:].any():
        j = int(cost[0].argmin())
        edges.add((0, j))
        in_tree |= root == root[rows + j]
    for i in range(1, rows):
        if not in_tree[i]:
            j = int(np.where(in_tree[rows:], cost[i], np.inf).argmin())
            edges.add((i, j))
            in_tree |= root == root[i]
    edges |= {(0, j) for j in np.flatnonzero(~in_tree[rows:]).tolist()}
    return mass, edges


def merged_segments_loop(m, n):
    """Merged quantile grid of an m- and an n-point sample, one segment at a time.

    Walks the breakpoints (i+1)/m and (j+1)/n with two pointers and returns
    the segment lengths and the order-statistic indices used on each.
    """
    lengths, ix, iy = [], [], []
    i = j = 0
    t = 0.0
    while i < m and j < n:
        nxt = min((i + 1) / m, (j + 1) / n)
        lengths.append(nxt - t)
        ix.append(i)
        iy.append(j)
        if (i + 1) / m <= nxt:
            i += 1
        if (j + 1) / n <= nxt:
            j += 1
        t = nxt
    return lengths, ix, iy


def integrate_quantile_loop(values, lo, hi):
    """Integral of the empirical quantile of sorted values over (lo, hi]."""
    n = len(values)
    total = 0.0
    for k in range(int(np.floor(lo * n)), min(int(np.ceil(hi * n)), n)):
        seg_lo = max(lo, k / n)
        seg_hi = min(hi, (k + 1) / n)
        if seg_hi > seg_lo:
            total += values[k] * (seg_hi - seg_lo)
    return total


def winners_loop(a, b, v0, v1):
    """Winners lower bound, each rank-grid candidate evaluated on its own."""
    n0 = len(v0)
    ranks = np.arange(1, n0 + 1, dtype=float) / n0
    candidates = [r for r in ranks if a < r <= b] + [b] + ([a] if a > 0.0 else [])
    best = 0.0
    for abar in candidates:
        k = min(int(np.searchsorted(ranks, abar, side="left")), n0 - 1)
        cdf = float(np.searchsorted(v1, v0[k], side="right")) / len(v1)
        best = max(best, abar - a - cdf)
    return best / (b - a)


def winners_inline(a, b, v0, v1):
    """Winners lower bound with the quantile and cdf searches written out."""
    n0 = len(v0)
    ranks = np.arange(1, n0 + 1, dtype=float) / n0
    candidates = np.concatenate(
        (ranks[(ranks > a) & (ranks <= b)], [b], [a] if a > 0.0 else [])
    )
    k = np.minimum(np.searchsorted(ranks, candidates, side="left"), n0 - 1)
    f1 = np.searchsorted(v1, v0[k], side="right") / len(v1)
    return max(0.0, float(np.max(candidates - a - f1))) / (b - a)


def halton_loop(n, bases):
    """Halton points by the digit-by-digit radical inverse of each index."""
    points = np.empty((n, len(bases)))
    for col, base in enumerate(bases):
        for row in range(n):
            i, inv, denom = row + 1, 0.0, 1.0
            while i > 0:
                i, digit = divmod(i, base)
                denom *= base
                inv += digit / denom
            points[row, col] = inv
    return points


def philox_directions(d, n_dir, seed):
    """The package's sliced directions: normalized Philox Gaussian draws."""
    dirs = np.random.Generator(np.random.Philox(seed)).standard_normal((n_dir, d))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms < 1e-12] = 1.0
    return dirs / norms[:, None]


def sliced_one_shot(x, y, p, n_dir, seed):
    """Sliced distance with every direction projected, sorted and gathered at once.

    Same Philox directions as the package; the merged quantile grid is the
    sorted union of the two breakpoint progressions, located in each by
    binary search.
    """
    dirs = philox_directions(x.shape[1], n_dir, seed)
    bx = np.arange(1, x.shape[0] + 1) / x.shape[0]
    by = np.arange(1, y.shape[0] + 1) / y.shape[0]
    ends = np.union1d(bx, by)
    lengths = np.diff(ends, prepend=0.0)
    ix = np.searchsorted(bx, ends, side="left")
    iy = np.searchsorted(by, ends, side="left")
    proj_x = np.sort((x @ dirs.T).T, axis=1)
    proj_y = np.sort((y @ dirs.T).T, axis=1)
    gap = np.abs(proj_x[:, ix] - proj_y[:, iy]) ** p * lengths
    return float((np.sum(gap) / n_dir) ** (1.0 / p))


def wasserstein_log_space(qx, qy, p):
    """Order-p distance between sorted samples, summed in log space.

    qx and qy hold sorted samples along their last axis, one row per
    projection.  Each segment of the merged quantile grid adds
    log(length) + p log|gap|, the terms are combined by a max-subtracted
    log-sum-exp and averaged over the rows, so no p-th power is ever
    formed and none can under- or overflow.  Some gap must be nonzero.
    """
    qx, qy = np.atleast_2d(qx), np.atleast_2d(qy)
    bx = np.arange(1, qx.shape[1] + 1) / qx.shape[1]
    by = np.arange(1, qy.shape[1] + 1) / qy.shape[1]
    ends = np.union1d(bx, by)
    ix = np.searchsorted(bx, ends, side="left")
    iy = np.searchsorted(by, ends, side="left")
    with np.errstate(divide="ignore"):
        gaps = np.log(np.abs(qx[:, ix] - qy[:, iy]))
    terms = np.log(np.diff(ends, prepend=0.0)) + p * gaps
    top = terms.max()
    return float(np.exp((top + np.log(np.sum(np.exp(terms - top)) / len(qx))) / p))


def _lse(a, axis):
    amax = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - amax), axis=axis, keepdims=True)) + amax
    return np.squeeze(out, axis=axis)


def _gibbs(log_mu, log_nu, phi, psi, c, eps):
    return np.exp(
        log_mu[:, None] + log_nu[None, :] + (phi[:, None] + psi[None, :] - c) / eps
    )


def sinkhorn_loop(w_mu, w_nu, c, eps, tol=1e-9, max_iter=10000):
    """Log-domain Sinkhorn that builds the plan every sweep for its residual.

    Returns (phi, psi, iterations, errors, converged) with phi[0] == 0.
    """
    log_mu, log_nu = np.log(w_mu), np.log(w_nu)
    phi, psi = np.zeros(len(w_mu)), np.zeros(len(w_nu))
    errors = []
    for it in range(1, max_iter + 1):
        phi = -eps * _lse(log_nu[None, :] + (psi[None, :] - c) / eps, axis=1)
        psi = -eps * _lse(log_mu[:, None] + (phi[:, None] - c) / eps, axis=0)
        plan = _gibbs(log_mu, log_nu, phi, psi, c, eps)
        errors.append(max(
            float(np.max(np.abs(plan.sum(axis=1) - w_mu))),
            float(np.max(np.abs(plan.sum(axis=0) - w_nu))),
        ))
        if errors[-1] < tol:
            break
    return phi - phi[0], psi + phi[0], it, errors, errors[-1] < tol


def unbalanced_loop(w_mu, w_nu, c, eps, lam_mu, lam_nu, tol=1e-9, max_iter=10000):
    """Damped log-domain Sinkhorn without a translation step.

    The residual is the first-order one, phi + lam_mu log(pi 1 / mu) and
    psi + lam_nu log(pi' 1 / nu), from the plan built every sweep.  Returns
    (plan, iterations, converged).
    """
    log_mu, log_nu = np.log(w_mu), np.log(w_nu)
    phi, psi = np.zeros(len(w_mu)), np.zeros(len(w_nu))
    for it in range(1, max_iter + 1):
        phi = -eps * lam_mu / (lam_mu + eps) * _lse(
            log_nu[None, :] + (psi[None, :] - c) / eps, axis=1
        )
        psi = -eps * lam_nu / (lam_nu + eps) * _lse(
            log_mu[:, None] + (phi[:, None] - c) / eps, axis=0
        )
        plan = _gibbs(log_mu, log_nu, phi, psi, c, eps)
        residual = max(
            float(np.max(np.abs(phi + lam_mu * np.log(plan.sum(axis=1) / w_mu)))),
            float(np.max(np.abs(psi + lam_nu * np.log(plan.sum(axis=0) / w_nu)))),
        )
        if residual < tol:
            return plan, it, True
    return plan, it, False


def lse_scaling_loop(w_mu, w_nu, c, eps, lam=None, tol=1e-9, max_iter=10000,
                     omega=1.0, start=0, stop=None):
    """Damped log-domain Sinkhorn with a translation step; ``lam=None`` is balanced.

    Every half-sweep is a full log-sum-exp over the cost matrix, and the
    stop residual is read off the next row half-sweep: for the balanced
    problem the largest marginal violation, for the unbalanced one (lam_mu
    + eps) / eps times the change d = phi - phi_next plus one spacing of the
    potentials, and |t| for the columns.  From sweep start + 1 to sweep stop
    (to the end when stop is None), each half-sweep is over-relaxed: the new
    potential is (1 - omega) times the old one plus omega times the update.  The residuals then read the
    unrelaxed row update, and the unbalanced column residual adds (lam_nu +
    eps) / eps times the largest distance of psi from its update.  Returns
    (plan, phi, psi, iterations, errors, converged), the balanced potentials
    with phi[0] == 0.
    """
    log_mu, log_nu = np.log(w_mu), np.log(w_nu)
    damp_mu = damp_nu = 1.0
    if lam is not None:
        lam_mu, lam_nu = lam
        damp_mu = lam_mu / (lam_mu + eps)
        damp_nu = lam_nu / (lam_nu + eps)
        shift = 1.0 / (1.0 / lam_mu + 1.0 / lam_nu)

    def row_lse(psi):
        return _lse(log_nu[None, :] + (psi[None, :] - c) / eps, axis=1)

    phi_next = -eps * damp_mu * row_lse(np.zeros(len(w_nu)))
    psi = np.zeros(len(w_nu))
    errors = []
    for it in range(1, max_iter + 1):
        w = omega if start < it and (stop is None or it <= stop) else 1.0
        phi = phi_next
        lse_col = _lse(log_mu[:, None] + (phi[:, None] - c) / eps, axis=0)
        psi_update = -eps * damp_nu * lse_col
        lag = 0.0
        if w == 1.0:
            psi = psi_update
        else:
            psi = (1.0 - w) * psi + w * psi_update
            lag = np.max(np.abs(psi - psi_update))
        if lam is not None:
            t = shift * (
                np.logaddexp.reduce(log_mu - phi / lam_mu)
                - np.logaddexp.reduce(log_nu - psi / lam_nu)
            )
            phi = phi + t
            psi = psi - t
        phi_next = -eps * damp_mu * row_lse(psi)
        d = phi - phi_next
        if w != 1.0:
            phi_next = (1.0 - w) * phi + w * phi_next
        if lam is None:
            row_error = np.max(np.abs(w_mu * np.expm1(d / eps)))
            col_error = np.max(np.abs(w_nu * np.expm1(psi / eps + lse_col)))
        else:
            ulp_phi = np.spacing(np.max(np.abs(phi)))
            row_error = (lam_mu + eps) / eps * (np.max(np.abs(d)) + ulp_phi)
            col_error = abs(t) + (lam_nu + eps) / eps * (
                lag + np.spacing(np.max(np.abs(psi)))
            )
        errors.append(float(max(row_error, col_error)))
        if errors[-1] < tol:
            break
    if lam is None:
        phi, psi = phi - phi[0], psi + phi[0]
    plan = _gibbs(log_mu, log_nu, phi, psi, c, eps)
    return plan, phi, psi, it, errors, errors[-1] < tol


def sista_loop(pi_hat, mu, nu, basis, eps, l1=0.0, beta=None, tol=1e-12,
               max_iter=100000):
    """Proximal-gradient sista: Sinkhorn half-sweeps, then a soft-thresholded step.

    basis is the (X, Y, K) array.  Each iteration makes the row and then the
    column marginals exact and takes one gradient step on beta, starting at
    eps / (nu.sum() * max_xy |basis[x, y, :]|^2) and halved while the
    composite objective -F + l1 |beta|_1 would increase.  Stops when beta
    moves less than tol.  Returns (beta, plan, iterations, converged).
    """
    log_mu, log_nu = np.log(mu), np.log(nu)
    beta = np.zeros(basis.shape[2]) if beta is None else np.array(beta, dtype=float)
    step = eps / (nu.sum() * np.max(np.sum(basis**2, axis=2)))
    phi, psi = np.zeros(len(mu)), np.zeros(len(nu))
    for it in range(1, max_iter + 1):
        c = -(basis @ beta)
        phi = -eps * _lse(log_nu[None, :] + (psi[None, :] - c) / eps, axis=1)
        psi = -eps * _lse(log_mu[:, None] + (phi[:, None] - c) / eps, axis=0)
        plan = _gibbs(log_mu, log_nu, phi, psi, c, eps)
        grad = np.einsum("xy,xyk->k", plan - pi_hat, basis)

        def composite(b):
            arg = phi[:, None] + psi[None, :] + basis @ b
            mass = np.exp(log_mu[:, None] + log_nu[None, :] + arg / eps).sum()
            return -np.sum(pi_hat * arg) + eps * mass + l1 * np.abs(b).sum()

        current = composite(beta)
        trial = step
        while True:
            cand = beta - trial * grad
            cand = np.sign(cand) * np.maximum(np.abs(cand) - l1 * trial, 0.0)
            if composite(cand) <= current + 1e-12 * max(1.0, abs(current)):
                break
            trial *= 0.5
        delta = np.max(np.abs(cand - beta))
        beta = cand
        if delta < tol:
            return beta, plan, it, True
    return beta, plan, it, False


def midpoint_grid(d, res):
    """Centres of the res^d cells of the unit cube, the last axis fastest."""
    axis = (np.arange(res) + 0.5) / res
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def laguerre_two_pass_loop(sites, q, grid_res, tol=1e-3, max_iter=2000):
    """Semidual gradient ascent that counts cell masses and objective apart.

    The uniform cube is the midpoint grid of grid_res cells per axis.  Each
    step recounts the masses at psi for the gradient, halves from a unit
    step until the semidual min_j(d2 - psi) mean + psi . q does not
    decrease, and stops below tol or when 47 halvings fail.  Returns
    (psi with its last entry 0, iterations, objectives, converged).
    """
    grid = midpoint_grid(sites.shape[1], grid_res)
    d2 = np.sum((grid[:, None, :] - sites[None, :, :]) ** 2, axis=2)

    def masses(psi):
        idx = np.argmin(d2 - psi[None, :], axis=1)
        return np.bincount(idx, minlength=len(q)) / len(grid)

    def semidual(psi):
        return float(np.min(d2 - psi[None, :], axis=1).mean() + psi @ q)

    psi = np.zeros(len(q))
    current = semidual(psi)
    objectives = [current]
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        grad = q - masses(psi)
        if float(np.max(np.abs(grad))) < tol:
            converged = True
            break
        step = 1.0
        accepted = False
        while step > 1e-14:
            trial = psi + step * grad
            value = semidual(trial)
            if value >= current - 1e-14 * max(1.0, abs(current)):
                psi, current, accepted = trial, value, True
                objectives.append(current)
                break
            step *= 0.5
        if not accepted:
            break
    if not converged:
        converged = float(np.max(np.abs(q - masses(psi)))) < tol
    return psi - psi[-1], it, objectives, converged


def _laguerre_grid_scores(sites, weights, grid_res):
    grid = midpoint_grid(sites.shape[1], grid_res)
    return np.sum((grid[:, None, :] - sites[None, :, :]) ** 2, axis=2) - weights


def laguerre_grid_masses(sites, weights, grid_res):
    """Share of the midpoint grid of grid_res cells per axis won by each site.

    A point goes to the site minimizing ||x - y_j||^2 - weights_j, the
    lowest index on ties.
    """
    won = np.argmin(_laguerre_grid_scores(sites, weights, grid_res), axis=1)
    return np.bincount(won, minlength=len(weights)) / won.size


def laguerre_grid_semidual(sites, q, weights, grid_res):
    """Grid semidual mean_x min_j (||x - y_j||^2 - weights_j) + weights . q."""
    scores = _laguerre_grid_scores(sites, weights, grid_res)
    return float(np.min(scores, axis=1).mean() + weights @ q)


def laguerre_grid_best(sites, q, weights, grid_res):
    """Grid semidual, cell masses and best sites, by row-wise argmin.

    Returns (objective, masses, idx) over the midpoint grid, points in its
    order: idx is each grid point's best site, the lowest index on ties.
    """
    scores = _laguerre_grid_scores(sites, weights, grid_res)
    idx = np.argmin(scores, axis=1)
    best = scores[np.arange(scores.shape[0]), idx]
    masses = np.bincount(idx, minlength=scores.shape[1]) / scores.shape[0]
    return float(best.mean() + weights @ q), masses, idx


def laguerre_neighbour_counts(sites, weights, grid_res):
    """Pairs of neighbouring grid points in different Laguerre cells.

    Loops over the midpoint grid's points and, on each axis, the point one
    cell further along it; counts[i, j] = counts[j, i] is the number of
    such pairs with one point in cell i and the other in cell j.
    """
    n, d = sites.shape
    won = np.argmin(_laguerre_grid_scores(sites, weights, grid_res), axis=1)
    cells = won.reshape((grid_res,) * d)
    counts = np.zeros((n, n), dtype=int)
    for point in itertools.product(range(grid_res), repeat=d):
        for k in range(d):
            if point[k] + 1 < grid_res:
                near = point[:k] + (point[k] + 1,) + point[k + 1:]
                a, b = cells[point], cells[near]
                if a != b:
                    counts[a, b] += 1
                    counts[b, a] += 1
    return counts


class CsvLoopError(ValueError):
    """Malformed CSV input, as reported by the row-by-row readers."""


class ResourceError(Exception):
    """An array its labels ask for is over the readers' cell limit."""


def _check_cells_loop(path, *shape):
    if math.prod(shape) > 10_000_000:
        raise ResourceError(
            f"{path}: labels need a {' x '.join(str(size) for size in shape)} array,"
            " over the 10,000,000 cell limit"
        )


def _float_loop(field, path, line):
    try:
        value = float(field)
    except ValueError:
        raise CsvLoopError(f"{path}, line {line}: not a number: {field!r}") from None
    if not math.isfinite(value):
        raise CsvLoopError(f"{path}, line {line}: non-finite value: {field!r}")
    return value


def _int_loop(field, path, line):
    try:
        return int(field)
    except ValueError:
        raise CsvLoopError(f"{path}, line {line}: not an integer: {field!r}") from None


def csv_rows_loop(path):
    """Non-empty rows as (line number, stripped fields), header row dropped."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            raw = []
            for row in reader:
                fields = [f.strip() for f in row]
                if not any(fields):
                    continue
                raw.append((reader.line_num, fields))
    except OSError as exc:
        raise CsvLoopError(f"{path}: {exc.strerror or exc}") from None
    if not raw:
        raise CsvLoopError(f"{path}: no data rows")

    def numeric(field):
        try:
            float(field)
        except ValueError:
            return False
        return True

    if not any(numeric(f) for f in raw[0][1]):
        raw = raw[1:]
        if not raw:
            raise CsvLoopError(f"{path}: no data rows after header")
    return raw


def read_matrix_loop(path):
    rows = csv_rows_loop(path)
    width = len(rows[0][1])
    out = []
    for line, fields in rows:
        if len(fields) != width:
            raise CsvLoopError(
                f"{path}, line {line}: expected {width} columns, got {len(fields)}"
            )
        out.append([_float_loop(f, path, line) for f in fields])
    return np.array(out)


def read_values_loop(path):
    values = []
    for line, fields in csv_rows_loop(path):
        if len(fields) != 1:
            raise CsvLoopError(
                f"{path}, line {line}: expected a single value, got {len(fields)} fields"
            )
        values.append(_float_loop(fields[0], path, line))
    return np.array(values)


def read_matching_loop(path):
    """(flows, singles_x, singles_y) of an x,y,count table."""
    entries = {}
    for line, fields in csv_rows_loop(path):
        if len(fields) != 3:
            raise CsvLoopError(
                f"{path}, line {line}: expected x,y,count, got {len(fields)} fields"
            )
        x = _int_loop(fields[0], path, line)
        y = _int_loop(fields[1], path, line)
        count = _float_loop(fields[2], path, line)
        if x < 0 or y < 0:
            raise CsvLoopError(f"{path}, line {line}: labels must be nonnegative")
        if x == 0 and y == 0:
            raise CsvLoopError(f"{path}, line {line}: x and y cannot both be 0")
        if (x, y) in entries:
            raise CsvLoopError(f"{path}, line {line}: duplicate entry for x={x}, y={y}")
        entries[(x, y)] = count
    nx = max(x for x, _ in entries)
    ny = max(y for _, y in entries)
    if nx == 0 or ny == 0:
        raise CsvLoopError(f"{path}: no matched pairs present")
    _check_cells_loop(path, nx, ny)
    flows = np.zeros((nx, ny))
    singles_x = np.zeros(nx)
    singles_y = np.zeros(ny)
    for (x, y), count in entries.items():
        if x == 0:
            singles_y[y - 1] = count
        elif y == 0:
            singles_x[x - 1] = count
        else:
            flows[x - 1, y - 1] = count
    for arr, what in ((flows, "pair"), (singles_x, "x-single"), (singles_y, "y-single")):
        if np.any(arr <= 0):
            idx = np.argwhere(arr <= 0)[0]
            raise CsvLoopError(
                f"{path}: missing or nonpositive {what} count at index"
                f" {tuple(int(i) + 1 for i in idx)}"
            )
    return flows, singles_x, singles_y


def read_basis_loop(path, shape=None):
    entries = {}
    for line, fields in csv_rows_loop(path):
        if len(fields) != 4:
            raise CsvLoopError(
                f"{path}, line {line}: expected x,y,k,value, got {len(fields)} fields"
            )
        x = _int_loop(fields[0], path, line)
        y = _int_loop(fields[1], path, line)
        k = _int_loop(fields[2], path, line)
        value = _float_loop(fields[3], path, line)
        if x < 1 or y < 1 or k < 1:
            raise CsvLoopError(f"{path}, line {line}: indices are 1-based")
        if shape is not None and (x > shape[0] or y > shape[1]):
            raise CsvLoopError(
                f"{path}, line {line}: cell ({x}, {y}) outside table"
                f" {shape[0]} x {shape[1]}"
            )
        if (x, y, k) in entries:
            raise CsvLoopError(
                f"{path}, line {line}: duplicate entry for x={x}, y={y}, k={k}"
            )
        entries[(x, y, k)] = value
    nx = max(x for x, _, _ in entries)
    ny = max(y for _, y, _ in entries)
    nk = max(k for _, _, k in entries)
    if shape is not None:
        nx, ny = shape
    _check_cells_loop(path, nx, ny, nk)
    basis = np.zeros((nx, ny, nk))
    for (x, y, k), value in entries.items():
        basis[x - 1, y - 1, k - 1] = value
    return basis


def to_json_loop(value, indent=0):
    """The command line's JSON text: %.17g floats, two-space indentation."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = (
            f'{inner}"{key}": {to_json_loop(val, indent + 1)}'
            for key, val in value.items()
        )
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, np.ndarray):
        return to_json_loop(value.tolist(), indent)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = (f"{inner}{to_json_loop(val, indent + 1)}" for val in value)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {float(value)!r}")
        return "%.17g" % float(value)
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")

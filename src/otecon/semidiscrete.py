"""Semidiscrete transport from the uniform cube and transport-based ranks.

A quadratic-cost transport from the continuous uniform measure on [0,1]^d
onto finitely many weighted sites is described by a Laguerre diagram: site j
collects all x with ||x - y_j||^2 - psi_j minimal.  The site weights psi
solve a concave maximization whose gradient is the mismatch between target
masses and current cell masses, and whose Hessian is a graph Laplacian over
adjacent cells.  The continuum is discretized by a midpoint grid, its
squared distances stored one row per site.  One pass over the sites per
trial gives the objective, the cell masses and each grid point's cell;
the Laplacian's facet weights come from counting the pairs of
neighbouring grid points that lie in different cells, one pass over the
grid per Newton step.  The diagram is the solve's :class:`SolveReport`,
with the objective of each accepted step as its history.
Composing the resulting assignment with a Halton point set gives
multivariate quantiles; matching a sample against Halton points through the
exact discrete solver gives multivariate ranks, whose law is
distribution-free for samples with ties-free cost structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import (
    GRID_LIMIT, SCORE_LIMIT, as_float_array, check_budget, check_count, frozen,
)
from .errors import DomainError, ResourceError
from .measures import CostMatrix, DiscreteMeasure, HaltonSet, _NoSolve, halton

DEFAULT_GRID_RES = {1: 4096, 2: 256, 3: 64}


@dataclass(frozen=True)
class LaguerreDiagram(_NoSolve):
    """Sites, additive weights, and target masses of a Laguerre partition.

    Weights are gauge-normalized so the last one is zero.  The report of
    the solve that fitted the weights does not affect the partition itself;
    a diagram built with no report reads as converged at step 0.
    """

    sites: np.ndarray
    weights: np.ndarray
    target_masses: np.ndarray

    def __post_init__(self) -> None:
        s = as_float_array(self.sites, "sites", ndim=2)
        w = as_float_array(self.weights, "weights", ndim=1)
        q = as_float_array(self.target_masses, "target_masses", ndim=1)
        if not (s.shape[0] == w.size == q.size):
            raise DomainError("sites, weights and target_masses must align")
        if abs(w[-1]) > 1e-12:
            raise DomainError("weights must be normalized with the last one zero")
        if np.any(q < 0) or abs(q.sum() - 1.0) > 1e-10:
            raise DomainError("target masses must be a probability vector")
        object.__setattr__(self, "sites", frozen(s))
        object.__setattr__(self, "weights", frozen(w))
        object.__setattr__(self, "target_masses", frozen(q))

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @property
    def dim(self) -> int:
        return self.sites.shape[1]


@dataclass(frozen=True)
class RankAssignment(_NoSolve):
    """Permutation matching each observation to one Halton reference point,
    with the report of the simplex solve that found it (step 0 if none ran)."""

    permutation: np.ndarray
    reference: HaltonSet

    def __post_init__(self) -> None:
        perm = np.asarray(self.permutation, dtype=int)
        if perm.ndim != 1 or perm.size != self.reference.n:
            raise DomainError("permutation length must match the reference set")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise DomainError("permutation must be a bijection on 0..n-1")
        perm = perm.copy()
        perm.flags.writeable = False
        object.__setattr__(self, "permutation", perm)

    @property
    def ranks(self) -> np.ndarray:
        """Reference point assigned to each observation, row per observation."""
        return self.reference.points[self.permutation]


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and those of b.

    Summed one coordinate at a time, in place: the same additions in the
    same order as a sum over a broadcast length-d axis, without the
    three-dimensional temporary.
    """
    d2 = (a[:, None, 0] - b[None, :, 0]) ** 2
    for k in range(1, a.shape[1]):
        d2 += (a[:, None, k] - b[None, :, k]) ** 2
    return d2


def laguerre_assign(x: np.ndarray, diagram: LaguerreDiagram) -> np.ndarray:
    """Index of the Laguerre cell containing each query point.

    Cell j wins where ||x - y_j||^2 - psi_j is smallest; exact ties go to
    the lowest site index.
    """
    x = as_float_array(x, "x")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != diagram.dim:
        raise DomainError(f"points must have dimension {diagram.dim}")
    idx = np.argmin(_sq_dists(x, diagram.sites) - diagram.weights, axis=1)
    return int(idx[0]) if single else idx


def _grid_sq_dists(d: int, res: int, sites: np.ndarray) -> np.ndarray:
    """Squared distances from the sites to the midpoint grid, a row per site.

    The grid has res cells per axis.  Each site's row is contiguous, and
    its column r is the grid point whose axis indices are the base-res
    digits of r, first axis most significant.  Each axis gives a sites x
    res table of squared coordinate gaps, and the tables are added by
    broadcasting in axis order: the additions of :func:`_sq_dists` on the
    grid points, in its order, without forming the grid or recomputing a
    gap per point.
    """
    if res**d > GRID_LIMIT:
        raise ResourceError(
            f"grid of {res}^{d} points exceeds the {GRID_LIMIT:,} limit"
        )
    axis = (np.arange(res) + 0.5) / res
    d2 = (axis[None, :] - sites[:, 0, None]) ** 2
    for k in range(1, d):
        gap = (axis[None, :] - sites[:, k, None]) ** 2
        d2 = (d2[:, :, None] + gap[:, None, :]).reshape(sites.shape[0], -1)
    return d2


def _score(d2: np.ndarray, psi: np.ndarray, q: np.ndarray) -> tuple:
    """Semidual objective, grid cell masses and best sites, one site at a time.

    Returns (objective, masses, idx): idx is each grid point's best site.
    A site takes a point only when it scores strictly lower, so ties go to
    the lowest index.
    """
    best = d2[0] - psi[0]
    idx = np.zeros(d2.shape[1], dtype=np.intp)
    for j in range(1, d2.shape[0]):
        s = d2[j] - psi[j]
        idx[s < best] = j
        np.minimum(best, s, out=best)
    masses = np.bincount(idx, minlength=d2.shape[0]) / d2.shape[1]
    return float(best.mean() + psi @ q), masses, idx


def _neighbour_laplacian(
    idx: np.ndarray, sites: np.ndarray, grid_res: int
) -> np.ndarray:
    """Grid estimate of the semidual Hessian, a Laplacian over facets.

    Its weights are |facet(i, j)| / (2 |y_i - y_j|), measured by the pairs
    of grid points adjacent along an axis whose best sites differ.  A facet
    with unit normal v is crossed by about |facet| |v_k| / h^(d-1) such
    pairs along axis k, h = 1 / grid_res, and v is parallel to y_i - y_j,
    so the c_ij pairs of cells i and j over all axes give
    |facet| = c_ij h^(d-1) / |v|_1 and the weight
    c_ij h^(d-1) / (2 |y_i - y_j|_1); in 1-D it is exact.  A counted pair
    joins two sites at different points: sites at the same point tie
    everywhere, and the lower index takes every grid point, so
    |y_i - y_j|_1 > 0.  idx is in the point order of
    :func:`_grid_sq_dists`, first axis most significant.
    """
    n, d = sites.shape
    cells = idx.reshape((grid_res,) * d)
    keys = []
    for k in range(d):
        axis = np.moveaxis(cells, k, 0)
        lo, hi = np.minimum(axis[:-1], axis[1:]), np.maximum(axis[:-1], axis[1:])
        cross = lo != hi
        keys.append(lo[cross] * n + hi[cross])
    pair, count = np.unique(np.concatenate(keys), return_counts=True)
    i, j = np.divmod(pair, n)
    span = np.abs(sites[i] - sites[j]).sum(axis=1)
    weights = np.zeros((n, n))
    weights[i, j] = count / (2.0 * grid_res ** (d - 1) * span)
    weights += weights.T
    return np.diag(weights.sum(axis=1)) - weights


def semidiscrete_solve(
    nu: DiscreteMeasure,
    d: int,
    grid_res: int | None = None,
    tol: float = 1e-3,
    max_iter: int = 2000,
) -> LaguerreDiagram:
    """Fit Laguerre weights transporting uniform [0,1]^d mass onto nu.

    Maximizes the concave semidual objective over the site weights by
    damped Newton (Kitagawa, Merigot & Thibert 2019), with the continuum
    replaced by a midpoint grid of grid_res cells per axis (defaults 4096,
    256, 64 for d = 1, 2, 3; in 1-D one cell holds less mass than the
    default tol).  The gradient is q minus the grid cell masses; the
    Hessian is a graph Laplacian with weights |facet(i, j)| / (2 |y_i - y_j|),
    each facet measured by the neighbouring grid points that lie in cells
    i and j.  The step solves the Laplacian system with the last weight
    fixed and a small ridge for a facet graph that falls apart.  Its
    length halves from 1.0 until the objective does not decrease and no
    nonempty cell empties; if no length down to 2^-46 qualifies, the loop
    ends at ``"step_exhausted"``.  Accepted objectives are nondecreasing.
    One pass over the sites per trial gives its objective, cell masses and
    grid cells, and one pass over the grid before a Newton step gives the
    Laplacian.  The squared distances are stored one row per site, and no
    trial copies them.  The start weights make the cells those of the
    Voronoi diagram of the sites shrunk into the cube (zero weights when
    the sites lie in it).  The residual is the largest mismatch between
    final grid cell and target masses; below tol it makes the stop reason
    ``"tol"``, at the cap too.  The distance array, grid_res^d points times
    the sites, may not exceed SCORE_LIMIT entries, and the n x n Laplacian
    of the n sites GRID_LIMIT entries.
    """
    if nu.dim != d:
        raise DomainError(f"nu has dimension {nu.dim}, expected {d}")
    if d not in DEFAULT_GRID_RES:
        raise DomainError(f"dimension must be 1, 2 or 3, got {d}")
    # all-zero weights have total mass 0, and would give q = nan
    q = nu.weights / nu.total_mass if nu.total_mass > 0 else nu.weights
    if np.any(q <= 0):
        raise DomainError("site masses must be strictly positive")
    if grid_res is None:
        grid_res = DEFAULT_GRID_RES[d]
    check_count(grid_res, "grid_res", 2)
    check_budget(tol, max_iter)
    if int(grid_res) ** d * nu.size > SCORE_LIMIT:
        raise ResourceError(
            f"{grid_res}^{d} grid points times {nu.size} sites exceeds the"
            f" {SCORE_LIMIT:,} score limit"
        )
    if nu.size**2 > GRID_LIMIT:
        raise ResourceError(
            f"{nu.size} sites need {nu.size} x {nu.size} Laplacian entries,"
            f" over the {GRID_LIMIT:,} entry limit"
        )
    sites = nu.points
    d2 = _grid_sq_dists(d, grid_res, sites)
    # (1 - s) |y - c|^2 makes the Laguerre cells the Voronoi cells of the
    # points c + s (y - c), which lie in the cube, so a site far outside it
    # does not start with an empty cell
    shrink = 0.5 / max(float(np.max(np.abs(sites - 0.5))), 0.5)
    psi = (1.0 - shrink) * np.sum((sites - 0.5) ** 2, axis=1)
    current, masses, idx = _score(d2, psi, q)
    objectives = [current]
    for _ in range(max_iter):
        grad = q - masses
        if float(np.max(np.abs(grad))) < tol:
            break
        lap = _neighbour_laplacian(idx, sites, grid_res)[:-1, :-1]
        ridge = 1e-9 * max(1.0, float(lap.diagonal().max()))
        lap[np.diag_indices_from(lap)] += ridge
        newton = np.append(np.linalg.solve(lap, grad[:-1]), 0.0)
        floor = current - 1e-14 * max(1.0, abs(current))
        for halvings in range(47):
            trial = psi + 0.5**halvings * newton
            scored = _score(d2, trial, q)
            if scored[0] >= floor and scored[1][masses > 0].all():
                break
        else:
            break  # no step down to 2^-46 ascends and keeps every nonempty cell
        psi, (current, masses, idx) = trial, scored
        objectives.append(current)
    # masses are those of the final psi, however the loop ended
    residual = float(np.max(np.abs(q - masses)))
    unmet = "max_iter" if len(objectives) > max_iter else "step_exhausted"
    return LaguerreDiagram(
        sites=sites,
        weights=psi - psi[-1],
        target_masses=q,
        iterations=len(objectives) - 1,
        stop_reason="tol" if residual < tol else unmet,
        residual=residual,
        history=tuple(objectives),
    )


def vector_quantile(diagram: LaguerreDiagram, u: np.ndarray) -> np.ndarray:
    """Site attained by the quantile map at a point of the unit cube."""
    u = as_float_array(u, "u", ndim=1)
    if u.size != diagram.dim:
        raise DomainError(f"u must have dimension {diagram.dim}")
    if np.any(u < 0) or np.any(u > 1):
        raise DomainError("u must lie in the unit cube")
    return np.array(diagram.sites[laguerre_assign(u, diagram)])


def vector_rank(sample: np.ndarray) -> RankAssignment:
    """Multivariate ranks: match observations to Halton points optimally.

    Solves the quadratic assignment between the n observations and the
    first n Halton points in dimension d, both weighted uniformly.  The
    network simplex returns a vertex of the transport polytope, and with
    uniform marginals every vertex is a permutation matrix
    (Birkhoff-von Neumann), so the plan is an assignment even when cost
    ties leave several optimal ones; which of them is returned is fixed by
    the solver's deterministic pivot order.

    In d = 1 no solve is needed: the monotone rearrangement is an optimal
    assignment for the quadratic cost, ties included, so the permutation is
    ``perm[argsort(y, kind="stable")] = argsort(ref, kind="stable")``,
    which sends the k-th smallest observation (tied ones in index order)
    to the k-th smallest Halton point.  In d >= 2 the n x n cost may not
    exceed GRID_LIMIT entries.  At the pivot cap the result is the last
    basis's assignment, with ``stop_reason`` ``"max_iter"``: the
    matrix-minimum start allocates exactly 1/n per cell and each pivot
    moves exactly 0 or 1/n, so every basis is a permutation.
    """
    y = as_float_array(sample, "sample")
    if y.ndim == 1:
        y = y[:, None]
    n, d = y.shape
    if d > 1 and n * n > GRID_LIMIT:
        raise ResourceError(
            f"{n} observations need a {n} x {n} cost, over the {GRID_LIMIT:,}"
            " entry limit"
        )
    ref = halton(n, d)
    if d == 1:
        perm = np.empty(n, dtype=int)
        perm[np.argsort(y[:, 0], kind="stable")] = np.argsort(
            ref.points[:, 0], kind="stable"
        )
        return RankAssignment(perm, ref)
    from . import discrete  # only ranks need the simplex

    cost = _sq_dists(y, ref.points)
    uniform = DiscreteMeasure(np.full(n, 1.0 / n))
    plan, _, _ = discrete.solve_discrete_ot(uniform, uniform, CostMatrix(cost))
    return RankAssignment(
        discrete.extract_assignment(plan), ref, iterations=plan.iterations,
        stop_reason=plan.stop_reason, residual=plan.residual, history=plan.history,
    )

"""Partial identification bounds built on transport arguments.

Treatment effects are never observed jointly, so functionals of the joint
distribution of potential outcomes are only set-identified.  This module
computes sharp bounds of several kinds: rearrangement (Frechet-Hoeffding)
bounds for supermodular or submodular functionals, quantile bounds for
subgroup average effects, a lower bound on the fraction of winners within
a rank subgroup, exact transport values for binary (indicator) costs with
a certifying dual witness set, and distributionally robust expectation
bounds over a Wasserstein ball on a finite support.  The quantile and rank
computations are array operations on the samples' step grids; the binary
witness is a residual-graph search on the optimal plan, not a subset
enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import as_float_array, check_scalar, frozen
from .errors import DomainError
from .measures import (
    CostMatrix, DiscreteMeasure, Sample1D, empirical_cdf, empirical_quantile
)

# Plan masses below WITNESS_TOL * total mass are rounding noise to the
# binary-cost witness search.
WITNESS_TOL = 1e-12


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lower, upper].

    The endpoints must be in order.  Membership allows a slack of 1e-12
    times the larger endpoint magnitude, so a value summed in another order
    than an endpoint still lies inside.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise DomainError("interval endpoints must be finite")
        if self.lower > self.upper:
            raise DomainError(
                f"lower endpoint {self.lower!r} exceeds upper {self.upper!r}"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __contains__(self, x: float) -> bool:
        slack = 1e-12 * max(abs(self.lower), abs(self.upper))
        return self.lower - slack <= x <= self.upper + slack


@dataclass(frozen=True)
class BinaryRelation:
    """Zero-one matrix marking which source-target pairs are 'related'."""

    gamma: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gamma)
        if g.ndim != 2:
            raise DomainError(f"gamma must be a matrix, got shape {g.shape}")
        vals = np.unique(g)
        if not np.all(np.isin(vals, (0, 1))):
            raise DomainError("gamma entries must be 0 or 1")
        object.__setattr__(self, "gamma", frozen(g.astype(float)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.gamma.shape


def rearrangement_bounds(
    h: Callable[[np.ndarray, np.ndarray], np.ndarray],
    y0: Sample1D,
    y1: Sample1D,
    modularity: str,
) -> Interval:
    """Sharp bounds on E[h(Y0, Y1)] over all couplings of two samples.

    The comonotone coupling pairs equal ranks, the antitone coupling pairs
    opposite ranks; for a submodular h these give the minimum and maximum,
    for a supermodular h the reverse.  The two are returned in order, so
    means that cross by rounding (a modular h, or a constant sample, makes
    them one sum taken in two orders) still form an interval.  Requires
    equal sample sizes.  h is called once per coupling, on two arrays of
    paired values, and must act elementwise.
    """
    if modularity not in ("submodular", "supermodular"):
        raise DomainError(
            f"modularity must be 'submodular' or 'supermodular', got {modularity!r}"
        )
    if y0.n != y1.n:
        raise DomainError(f"sample sizes differ: {y0.n} vs {y1.n}")
    v0, v1 = y0.values, y1.values
    comonotone = float(np.mean(h(v0, v1)))
    antitone = float(np.mean(h(v0, v1[::-1])))
    return Interval(*sorted((comonotone, antitone)))


def _mean_quantile(values: np.ndarray, lo: float, hi: float) -> float:
    """Exact mean over (lo, hi] of the step function equal to values[k] on
    (k/n, (k+1)/n]: the empirical quantile for sorted values, and for sorted
    values reversed the quantile at 1 - t.

    The mean is a finite sum of step values, each weighted by its overlap
    with (lo, hi] over hi - lo.  The weights are taken before the sum, so
    a window narrower than the values' resolution keeps their digits.  The
    steps scanned reach one past each end, since lo * n and hi * n may
    round across a grid point.  Requires lo < hi.
    """
    n = values.size
    k = np.arange(max(int(lo * n) - 1, 0), min(int(np.ceil(hi * n)) + 1, n))
    overlap = np.minimum(hi, (k + 1) / n) - np.maximum(lo, k / n)
    return float(np.sum(values[k] * (np.maximum(overlap, 0.0) / (hi - lo))))


def kaji_subgroup_bounds(a: float, b: float, y0: Sample1D, y1: Sample1D) -> Interval:
    """Sharp bounds on the mean effect within the rank subgroup (a, b).

    For units whose rank under the control outcome lies in (a, b), the
    subgroup average treatment effect is bounded below by coupling the
    subgroup with the lowest b - a quantiles of the treated outcome and
    above by coupling it with the highest ones:

        lower = mean over u in (a,b) of Q1(u - a) - Q0(u)
        upper = mean over u in (a,b) of Q1(1 - u + a) - Q0(u)

    Both means are evaluated exactly on the quantile step grids; the upper
    one as the mean over (0, b - a] of the quantile of y1 reversed, since
    1 - (b - a) rounds to 1 for a window narrower than 2^-53.
    At (a, b) = (0, 1), or for a constant y1, both endpoints collapse to one
    value; they are returned in order, so endpoints that cross by rounding
    there still form an interval.
    """
    if not (0.0 <= a < b <= 1.0):
        raise DomainError(f"need 0 <= a < b <= 1, got a={a!r}, b={b!r}")
    width = b - a
    base = _mean_quantile(y0.values, a, b)
    lower = _mean_quantile(y1.values, 0.0, width) - base
    upper = _mean_quantile(y1.values[::-1], 0.0, width) - base
    return Interval(*sorted((lower, upper)))


def winners_lower_bound(a: float, b: float, y0: Sample1D, y1: Sample1D) -> float:
    """Sharp lower bound on the fraction of winners in the rank subgroup.

    Bounds from below the probability that a unit with control rank in
    (a, b) gains from treatment (Y1 > Y0).  The bound is

        max(0, sup over abar in (a, b] of (abar - a - F1(Q0(abar)))) / (b - a)

    and the supremum over the piecewise-linear objective is attained on the
    rank grid of y0 or at b, so only those candidates are evaluated.
    """
    if not (0.0 <= a < b <= 1.0):
        raise DomainError(f"need 0 <= a < b <= 1, got a={a!r}, b={b!r}")
    ranks = np.arange(1, y0.n + 1, dtype=float) / y0.n
    candidates = np.concatenate(
        (ranks[(ranks > a) & (ranks <= b)], [b], [a] if a > 0.0 else [])
    )
    f1 = empirical_cdf(y1, empirical_quantile(y0, candidates))
    best = max(0.0, float(np.max(candidates - a - f1)))
    return best / (b - a)


def binary_cost_ot(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    rel: BinaryRelation,
    witness: bool = True,
    log: bool = False,
) -> tuple:
    """Minimal coupled mass on a relation, with a certifying witness set.

    Computes min over couplings of the mass placed on pairs with
    gamma = 1.  By strong duality this equals
    max over subsets A of rows of mu(A) - nu(A^Gamma), where A^Gamma
    collects every column reachable from A outside the relation.  The
    witness is the minimal maximizing A, the intersection of all
    maximizers and so also the first one in subset enumeration order (up
    to floating-point near-ties).  It is read off the optimal plan, whose
    mass off the relation is a maximum flow on the gamma = 0 edges: the
    rows its residual graph reaches from the source are the source side
    of the minimal minimum cut.  The search starts at every row with mass
    on a gamma = 1 edge, steps from a row to its gamma = 0 columns and
    from a column back to the rows sending it gamma = 0 mass.  Masses
    below ``WITNESS_TOL`` times the total mass count as zero.  There is no
    row cap; each step is O(MN).

    Returns (value, witness), the witness None when not asked for.  With
    ``log=True`` a third element, info, holds ``report``, the simplex's
    plan, which is its :class:`~otecon.measures.SolveReport`, and, with a
    witness, ``certified``: whether the witness's dual value
    mu(A) - nu(A^Gamma) meets the value within ``CERT_TOL`` times the
    total mass.  The 2-tuple stays the default because acceptance
    criterion 7 unpacks it.  At the pivot cap the value is the last
    basis's.  That basis is feasible, so the value is an upper bound on
    the optimum, and the witness is its plan's residual-graph set, whose
    dual value is a lower bound.
    """
    g = rel.gamma
    m_rows, n_cols = g.shape
    if mu.size != m_rows or nu.size != n_cols:
        raise DomainError(
            f"relation shape {g.shape} does not match measures ({mu.size}, {nu.size})"
        )
    from .discrete import solve_discrete_ot  # the other bounds need no solver

    plan, _, value = solve_discrete_ot(mu, nu, CostMatrix(g))
    if not witness:
        return (value, None, {"report": plan}) if log else (value, None)
    tol = WITNESS_TOL * mu.total_mass
    pi = plan.mass
    free = g == 0.0
    back = free & (pi > tol)
    reached = np.sum(pi * g, axis=1) > tol
    frontier = reached
    while frontier.any():
        cols = free[frontier].any(axis=0)
        frontier = back[:, cols].any(axis=1) & ~reached
        reached |= frontier
    rows = frozenset(np.flatnonzero(reached).tolist())
    if not log:
        return value, rows
    certified = _witness_certified(value, rows, mu, nu, rel)
    return value, rows, {"report": plan, "certified": certified}


def _witness_certified(
    value: float, rows: frozenset, mu: DiscreteMeasure, nu: DiscreteMeasure,
    rel: BinaryRelation,
) -> bool:
    """Whether the rows A certify value: |value - (mu(A) - nu(A^Gamma))| is
    within CERT_TOL times the total mass.  Every A's dual value is a lower
    bound on the optimum, so a feasible value that meets one is optimal."""
    from .discrete import CERT_TOL

    a = sorted(rows)
    reach = (rel.gamma[a] == 0.0).any(axis=0)
    dual = mu.weights[a].sum() - nu.weights[reach].sum()
    return bool(abs(value - dual) <= CERT_TOL * mu.total_mass)


def dro_expectation_bound(
    f: np.ndarray,
    delta: CostMatrix,
    mu: DiscreteMeasure,
    rho: float,
) -> float:
    """Worst-case expectation of f over a transport ball around mu.

    Upper-bounds E_nu[f] over all nu on the same finite support whose
    transport discrepancy from mu (ground cost delta) is at most rho, via
    the univariate dual

        inf over lam >= 0 of  lam rho + sum_i mu_i max_j (f_j - lam delta_ji).

    The dual is convex and piecewise linear, so its minimum is at a kink.
    Each evaluation also gives the right slope, taking the least delta among
    tied maximizers.  If the slope at 0 is negative, the bracket [0, 2 lam_max]
    (lam_max = range(f) / least positive delta) is cut where its ends' lines
    meet, until that point lies on an end's piece (equal slopes) or rounds
    out of the bracket.  The search needs no tolerance.
    """
    f = as_float_array(f, "f", ndim=1)
    d = delta.entries
    n = f.size
    if d.shape != (n, n):
        raise DomainError(f"delta must be {n} x {n}, got {d.shape}")
    if mu.size != n:
        raise DomainError(f"mu must have {n} atoms, got {mu.size}")
    if np.any(np.abs(np.diag(d)) > 0):
        raise DomainError("delta must vanish on the diagonal")
    if np.any(d < 0):
        raise DomainError("delta must be nonnegative")
    check_scalar(rho, "rho", 0.0)
    if mu.total_mass <= 0:
        raise DomainError("mu must have positive total mass")
    w = mu.weights / mu.total_mass

    def dual(lam: float) -> tuple[float, float]:
        # delta[j, i]: discrepancy of moving reference mass at i to point j.
        inner = f[:, None] - lam * d
        best = inner.max(axis=0)
        moved = np.where(inner == best, d, np.inf).min(axis=0)
        return lam * rho + float(w @ best), rho - float(w @ moved)

    v_lo, s_lo = dual(0.0)
    if s_lo >= 0:
        return v_lo
    lo, hi = 0.0, 2.0 * float(np.ptp(f)) / float(d[d > 0].min())
    v_hi, s_hi = dual(hi)
    while True:
        lam = lo + (v_hi - v_lo - s_hi * (hi - lo)) / (s_lo - s_hi)
        if not lo < lam < hi:
            return min(v_lo, v_hi)
        v, s = dual(lam)
        if s in (s_lo, s_hi):
            return min(v, v_lo, v_hi)
        if s < 0:
            lo, v_lo, s_lo = lam, v, s
        else:
            hi, v_hi, s_hi = lam, v, s

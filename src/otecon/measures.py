"""Core data types: discrete measures, cost matrices, samples, Gaussians.

Every type here is an immutable dataclass that validates its invariants at
construction time.  Solver modules build on these types and assume the
invariants hold, so all defensive checking lives in one place.  The checks
that several solver modules share are also defined here, once each: equal
total masses (:func:`_check_balanced`), a cost matrix that fits two
marginals (:func:`_check_cost_shape`), the symmetric positive semidefinite
test (:func:`_symmetric_eigh`), the marginal gap of a plan
(:func:`_marginal_gap`), the empirical quantile and cdf convention
(:func:`empirical_quantile`, :func:`empirical_cdf`), and how an iterative
solve ended (:class:`SolveReport`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import PRIMES, as_float_array, check_count, frozen
from .errors import DomainError, InfeasibleError, NotPSDError


@dataclass(frozen=True, kw_only=True)
class SolveReport:
    """How an iterative solve ended: its sweeps or accepted steps, why it
    stopped ("tol", "max_iter", or "step_exhausted" when a Newton loop found
    no usable step), its final residual, the quantity tol bounds, and the
    history of what the loop watched.  ``converged`` is read off the stop
    reason."""

    iterations: int
    stop_reason: str
    residual: float
    history: tuple = field(repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "tol"


@dataclass(frozen=True, kw_only=True)
class _NoSolve(SolveReport):
    """A report that, left out of a result made by hand, reads as converged
    at step 0."""

    iterations: int = 0
    stop_reason: str = "tol"
    residual: float = 0.0
    history: tuple = field(default=(), repr=False)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported nonnegative measure, optionally with atom locations.

    Parameters
    ----------
    weights : array of shape (n,)
        Nonnegative atom masses.
    points : array of shape (n, d), optional
        Atom locations.  May be omitted when only weights matter.
    """

    weights: np.ndarray
    points: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = as_float_array(self.weights, "weights", ndim=1)
        if w.size == 0:
            raise DomainError("a measure needs at least one atom")
        if (w < 0).any():
            raise DomainError("weights must be nonnegative")
        object.__setattr__(self, "weights", frozen(w))
        if self.points is not None:
            p = as_float_array(self.points, "points")
            if p.ndim == 1:
                p = p[:, None]
            if p.ndim != 2 or p.shape[0] != w.size:
                raise DomainError(
                    f"points must have shape ({w.size}, d), got {p.shape}"
                )
            object.__setattr__(self, "points", frozen(p))

    @property
    def size(self) -> int:
        return self.weights.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @property
    def dim(self) -> int:
        if self.points is None:
            raise DomainError("measure carries no atom locations")
        return self.points.shape[1]


def _check_balanced(mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
    gap = abs(mu.total_mass - nu.total_mass)
    if gap > 1e-10 * max(mu.total_mass, nu.total_mass):
        raise InfeasibleError(
            f"total masses differ by {gap!r}; transport is infeasible"
        )


def _check_cost_shape(cost: CostMatrix | np.ndarray, rows: int, cols: int) -> None:
    """Reject a cost matrix, or an array of its entries, that is not rows x
    cols, the sizes of two marginals."""
    if cost.shape != (rows, cols):
        raise DomainError(
            f"cost shape {cost.shape} does not match measures ({rows}, {cols})"
        )


def _marginal_gap(
    row_sums: np.ndarray, col_sums: np.ndarray, mu: np.ndarray, nu: np.ndarray
) -> float:
    """max(|row sums - mu|, |column sums - nu|), a plan's largest violation
    of its adding-up constraints."""
    return float(max(np.abs(row_sums - mu).max(), np.abs(col_sums - nu).max()))


def _symmetric_eigh(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of a symmetric PSD matrix.

    a must be symmetric within 1e-10 times its largest entry
    (:class:`DomainError`), and no eigenvalue may lie below -1e-10 times the
    largest one (:class:`NotPSDError`); the decomposition is that of the
    symmetric part (a + a') / 2.  Both messages name the matrix.
    """
    if np.max(np.abs(a - a.T)) > 1e-10 * np.max(np.abs(a)):
        raise DomainError(f"{name} must be symmetric")
    vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
    if vals[0] < -1e-10 * max(vals[-1], 0.0):
        raise NotPSDError(f"{name} has negative eigenvalue {vals[0]!r}")
    return vals, vecs


@dataclass(frozen=True)
class CostMatrix:
    """Dense M x N matrix of pairwise costs; every entry must be finite."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        c = as_float_array(self.entries, "cost entries", ndim=2)
        object.__setattr__(self, "entries", frozen(c))

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class Sample1D:
    """Sorted scalar sample, the empirical counterpart of a 1D distribution.

    ``values`` must already be in nondecreasing order; use :meth:`from_data`
    to sort raw draws.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        v = as_float_array(self.values, "values", ndim=1)
        if v.size == 0:
            raise DomainError("a sample needs at least one observation")
        if (np.diff(v) < 0).any():
            raise DomainError("values must be nondecreasing; use from_data to sort")
        object.__setattr__(self, "values", frozen(v))

    @classmethod
    def from_data(cls, data) -> "Sample1D":
        return cls(np.sort(np.asarray(data, dtype=float)))

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian distribution given by mean vector and covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        m = as_float_array(self.mean, "mean", ndim=1)
        c = as_float_array(self.cov, "cov", ndim=2)
        if c.shape != (m.size, m.size):
            raise DomainError(f"cov must be {m.size} x {m.size}, got {c.shape}")
        _symmetric_eigh(c, "cov")
        object.__setattr__(self, "mean", frozen(m))
        object.__setattr__(self, "cov", frozen(0.5 * (c + c.T)))

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class HaltonSet:
    """First n points of the d-dimensional Halton sequence."""

    points: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        p = as_float_array(self.points, "points", ndim=2)
        if (p <= 0.0).any() or (p >= 1.0).any():
            raise DomainError("Halton points must lie in the open unit cube")
        object.__setattr__(self, "points", frozen(p))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def empirical_quantile(sample: Sample1D, t):
    """Left-continuous generalized inverse of the empirical cdf.

    Returns the smallest order statistic x_(k) whose cdf value k/n reaches t.
    The comparison runs against the float grid {k/n}, so quantile and cdf are
    exactly consistent in floating point: cdf(quantile(t)) >= t always holds.
    t may be a level, which gives a float, or an array of levels, which
    gives an array of the same shape.
    """
    t = np.asarray(t, dtype=float)
    inside = (0.0 < t) & (t <= 1.0)
    if not inside.all():
        bad = float(t[~inside][0])
        raise DomainError(f"quantile level must be in (0, 1], got {bad!r}")
    n = sample.n
    grid = np.arange(1, n + 1, dtype=float) / n
    k = np.minimum(np.searchsorted(grid, t, side="left"), n - 1)
    q = sample.values[k]
    return float(q) if q.ndim == 0 else q


def empirical_cdf(sample: Sample1D, y):
    """Fraction of observations less than or equal to y.

    y may be a value, which gives a float, or an array of values, which
    gives an array of the same shape.
    """
    y = np.asarray(y, dtype=float)
    frac = np.searchsorted(sample.values, y, side="right") / sample.n
    return float(frac) if frac.ndim == 0 else frac


def halton(n: int, d: int) -> HaltonSet:
    """First n Halton points in dimension d (prime bases 2, 3, 5, ...).

    Indexing starts at 1, so the first point is (1/2, 1/3, 1/5, ...).  The
    sequence is deterministic: the first n points never change as n grows.
    """
    check_count(n, "n", 1)
    check_count(d, "d", 1)
    if d > len(PRIMES):
        raise DomainError(f"d must be at most {len(PRIMES)}, got {d}")
    pts = np.empty((n, d))
    for j, base in enumerate(PRIMES[:d]):
        # Van der Corput radical inverse of the indices 0..n by digit
        # doubling: the indices below base^(k+1) are those below base^k with
        # each digit appended at place k, and the digits are added from the
        # lowest place up, as in the one-index-at-a-time expansion.  The
        # last level appends only the digits needed to reach index n.
        inv = np.zeros(1)
        denom = 1.0
        while inv.size <= n:
            denom *= base
            digits = np.arange(min(base, -(-(n + 1) // inv.size)))
            inv = (inv + (digits / denom)[:, None]).ravel()
        pts[:, j] = inv[1 : n + 1]
    return HaltonSet(pts)


def spd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    The matrix must be symmetric within 1e-10 times its largest entry.
    Eigenvalues in [-1e-10 * lambda_max, 0) are clamped to zero; anything
    more negative raises :class:`NotPSDError`.
    """
    a = as_float_array(a, "matrix", ndim=2)
    if a.shape[0] != a.shape[1]:
        raise DomainError(f"matrix must be square, got {a.shape}")
    vals, vecs = _symmetric_eigh(a, "matrix")
    root = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    return 0.5 * (root + root.T)

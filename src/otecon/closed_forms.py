"""Closed-form transport values: one dimension, Gaussians, sliced distances.

On the real line the comonotone coupling is optimal for any submodular cost,
so transport values reduce to exact sums over the merged quantile grid of
the two samples.  That grid depends only on the two sample sizes; it is
built as segment lengths plus the order-statistic index of each sample on
each segment, kept read-only for the last few size pairs, and values are
gathered through it.  Powers |Q_x - Q_y|^p are taken after dividing the
gaps by a power of two near the largest one, or by the largest one itself
when p is so large that the power of that quotient would underflow, so
they neither overflow nor underflow at any scale of the data or order p.
Between Gaussians the quadratic problem has an explicit affine optimal
map.  Sliced distances reduce multivariate samples to averages of
one-dimensional values over random projection directions, taken in
cache-sized blocks of directions that are each gathered through the same
grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._util import GRID_LIMIT, as_float_array, check_count, check_scalar, frozen
from .errors import DomainError, NotInvertibleError, ResourceError
from .measures import GaussianMeasure, Sample1D, _symmetric_eigh, spd_sqrt

# Lowest binary exponent a gap scale may take: 2^1022 is the largest power
# of two whose reciprocal is a normal float.
_LOW = -1022

# Projected values of all m + n points that the sliced distance holds per
# block of directions: 512 KB of floats, so a block's projections, sorts and
# gather stay in cache.
SLICED_BLOCK_VALUES = 65536


@dataclass(frozen=True)
class AffineMap:
    """Map x -> linear @ x + shift with symmetric PSD linear part."""

    linear: np.ndarray
    shift: np.ndarray

    def __post_init__(self) -> None:
        a = as_float_array(self.linear, "linear", ndim=2)
        b = as_float_array(self.shift, "shift", ndim=1)
        if a.shape != (b.size, b.size):
            raise DomainError(f"linear must be {b.size} x {b.size}, got {a.shape}")
        _symmetric_eigh(a, "linear part")
        object.__setattr__(self, "linear", frozen(a))
        object.__setattr__(self, "shift", frozen(b))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.linear.T + self.shift


@functools.lru_cache(maxsize=4)
def _merged_grid(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged quantile breakpoint grid of an m-point and an n-point sample.

    Returns the segment lengths and, per segment, the order-statistic
    indices ix and iy at which the two empirical quantile functions sit
    there.  Breakpoints are the floats (i+1)/m and (j+1)/n, merged on exact
    equality, so integrals of h(Q_x(t), Q_y(t)) over (0, 1) are exact sums.
    One stable sort merges the two progressions, in linear time on two
    sorted runs.  A segment ends at the first occurrence k of its
    breakpoint, after exactly ix + iy = k smaller breakpoints; there sits
    x's breakpoint i, so ix = i, unless only y's breakpoint j does, so
    iy = j (on a tie the stable sort puts x's first).

    The grid depends only on (m, n), so the last 4 size pairs' grids are
    kept, and repeated calls on the same sizes (resampling, several values
    of one pair) reuse them.  That holds at most 4 grids of about
    24 (m + n) bytes each.  The arrays are shared, so they are read-only.
    """
    breaks = np.concatenate((np.arange(1, m + 1) / m, np.arange(1, n + 1) / n))
    order = np.argsort(breaks, kind="stable")
    steps = np.diff(breaks[order], prepend=0.0)
    first = np.flatnonzero(steps)
    at = order[first]
    ix = np.where(at < m, at, first + m - at)
    grid = steps[first], ix, first - ix
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _gap_power_sum(
    qx: np.ndarray,
    qy: np.ndarray,
    p: float,
    grid: tuple[np.ndarray, ...],
    low: tuple[int, float] = (_LOW, 1.0),
) -> tuple[float, int, float]:
    """Sum over the merged grid of length * |Q_x - Q_y|^p, as (s, e, m).

    qx and qy hold sorted samples along their last axis, one row per
    projection; the sum runs over every row, and it is s * (m 2^e)^p.  The
    gaps are divided by 2^e, for e the larger of low's exponent and the
    exponent that puts the largest gap in (1/2, 1], which a power of two
    does exactly, and m is 1.  Only when that scaled largest gap g would
    fall below 2^-1022 at the power p, which takes p above 1022, are the
    gaps also divided by m, the larger of g and the scale low = (e', m')
    stands for, m' 2^(e' - e); the largest quotient is then at most 1, and
    not lost to underflow.  low's exponent may not be below _LOW, where
    2^-e overflows.  The two gathers are the only arrays made; the rest is
    done in place.
    """
    lengths, ix, iy = grid
    gap = qx[..., ix]
    gap -= qy[..., iy]
    np.abs(gap, out=gap)
    largest = gap.max()
    mantissa, e = math.frexp(largest)
    e = max(low[0], e - (mantissa == 0.5))
    gap *= math.ldexp(1.0, -e)
    largest = math.ldexp(largest, -e)
    m = 1.0
    if largest > 0.0 and p * math.log2(largest) < _LOW:
        m = max(largest, math.ldexp(low[1], low[0] - e))
        gap /= m
    gap **= p
    gap *= lengths
    return float(np.sum(gap)), e, m


def ot_value_1d(
    x: Sample1D, y: Sample1D, cost: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> float:
    """Exact transport value between two scalar samples for a submodular cost.

    Computes the integral of cost(Q_x(t), Q_y(t)) over t in (0, 1) on the
    merged breakpoint grid, which is the optimal value whenever the cost is
    submodular.  Submodularity cannot be verified pointwise here, so the
    caller is responsible for it.  The cost is called once, on the arrays of
    quantile values at the grid segments, and must act elementwise.
    """
    lengths, ix, iy = _merged_grid(x.n, y.n)
    return float(np.sum(lengths * cost(x.values[ix], y.values[iy])))


def wasserstein_1d(x: Sample1D, y: Sample1D, p: float = 2.0) -> float:
    """Order-p Wasserstein distance between scalar samples, exactly.

    Equals the p-th root of the merged-grid integral of |Q_x - Q_y|^p.
    """
    check_scalar(p, "p", 1.0)
    total, e, m = _gap_power_sum(x.values, y.values, p, _merged_grid(x.n, y.n))
    return math.ldexp(total ** (1.0 / p) * m, e)


def gaussian_ot_map(g1: GaussianMeasure, g2: GaussianMeasure) -> AffineMap:
    """Optimal quadratic-cost transport map between two Gaussians.

    The map is x -> A x + b with
    A = S^{-1/2} (S^{1/2} cov2 S^{1/2})^{1/2} S^{-1/2} for S = cov1 and
    b = mean2 - A mean1.  Requires cov1 to be strictly positive definite.
    """
    if g1.dim != g2.dim:
        raise DomainError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    vals, vecs = np.linalg.eigh(g1.cov)
    if vals[0] <= 1e-12 * vals[-1]:
        raise NotInvertibleError("cov1 is singular; no transport map exists")
    half = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    inv_half = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    middle = spd_sqrt(half @ g2.cov @ half)
    a = inv_half @ middle @ inv_half
    a = 0.5 * (a + a.T)
    b = g2.mean - a @ g1.mean
    return AffineMap(a, b)


def gaussian_w2(g1: GaussianMeasure, g2: GaussianMeasure) -> float:
    """Quadratic Wasserstein distance between Gaussians, in closed form.

    W2^2 = |m1 - m2|^2 + tr(cov1 + cov2 - 2 (cov1^{1/2} cov2 cov1^{1/2})^{1/2});
    the trace term is clamped at zero against rounding.  Only positive
    semidefiniteness is required here.
    """
    if g1.dim != g2.dim:
        raise DomainError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    half = spd_sqrt(g1.cov)
    cross = spd_sqrt(half @ g2.cov @ half)
    gap = float(np.trace(g1.cov) + np.trace(g2.cov) - 2.0 * np.trace(cross))
    sq = float(np.sum((g1.mean - g2.mean) ** 2)) + max(gap, 0.0)
    return float(np.sqrt(max(sq, 0.0)))


def sliced_wasserstein(
    x: np.ndarray,
    y: np.ndarray,
    p: float = 2.0,
    n_dir: int = 100,
    seed: int = 0,
) -> float:
    """Sliced Wasserstein distance between two point clouds.

    Averages the p-th power of the one-dimensional distance between the
    projections of x and y over n_dir random directions (normalized Gaussian
    draws from a counter-based Philox generator under the given seed), then
    takes the p-th root.  In dimension 1 this reduces exactly to the
    one-dimensional distance.  Directions are projected, sorted and
    gathered through the one merged grid a block at a time, about
    SLICED_BLOCK_VALUES projected values per block, and the blocks' sums
    are added up, each rescaled to the largest gap seen so far.  n_dir and
    seed must be integers.  n_dir (m + n), the number of projected values
    and so the work, may not exceed GRID_LIMIT.
    """
    check_scalar(p, "p", 1.0)
    check_count(n_dir, "n_dir", 1)
    check_count(seed, "seed", 0)
    x = as_float_array(x, "x")
    y = as_float_array(y, "y")
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[1] != y.shape[1]:
        raise DomainError(f"dimension mismatch: {x.shape[1]} vs {y.shape[1]}")
    d = x.shape[1]
    if d == 0:
        raise DomainError("points must have at least one coordinate")
    points = x.shape[0] + y.shape[0]
    if n_dir * points > GRID_LIMIT:
        raise ResourceError(
            f"n_dir {n_dir} times {points} points exceeds the {GRID_LIMIT:,}"
            " projected-value limit"
        )
    rng = np.random.Generator(np.random.Philox(seed))
    dirs = rng.standard_normal((n_dir, d))
    norms = np.linalg.norm(dirs, axis=1)
    norms[norms < 1e-12] = 1.0
    dirs /= norms[:, None]
    grid = _merged_grid(x.shape[0], y.shape[0])
    block = max(1, SLICED_BLOCK_VALUES // points)
    # The sum so far is total * (m 2^e)^p; a block with a larger gap raises
    # the scale, and the sum so far is carried over to it.
    total, e, m = 0.0, _LOW, 1.0
    for start in range(0, n_dir, block):
        # One row per direction of the block, sorted in place.
        d_blk = dirs[start : start + block]
        proj_x = d_blk @ x.T
        proj_x.sort(axis=1)
        proj_y = d_blk @ y.T
        proj_y.sort(axis=1)
        part, e_blk, m_blk = _gap_power_sum(proj_x, proj_y, p, grid, (e, m))
        total = total * math.ldexp(m / m_blk, e - e_blk) ** p + part
        e, m = e_blk, m_blk
    return math.ldexp((total / n_dir) ** (1.0 / p) * m, e)


def barycenter_1d(samples: list[Sample1D], lam: np.ndarray) -> Sample1D:
    """Quadratic-cost barycenter of equally sized scalar samples.

    With equal sample sizes the barycenter is again an n-point sample whose
    i-th order statistic is the lam-weighted average of the i-th order
    statistics of the inputs.
    """
    if not samples:
        raise DomainError("need at least one sample")
    lam = as_float_array(lam, "lam", ndim=1)
    if lam.size != len(samples):
        raise DomainError(f"need {len(samples)} weights, got {lam.size}")
    if np.any(lam < 0) or abs(lam.sum() - 1.0) > 1e-10:
        raise DomainError("weights must be nonnegative and sum to 1")
    n = samples[0].n
    if any(s.n != n for s in samples):
        raise DomainError("all samples must have the same size")
    stacked = np.stack([s.values for s in samples], axis=0)
    return Sample1D(lam @ stacked)

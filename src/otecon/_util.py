"""Small numerical helpers used by several solver modules."""

from __future__ import annotations

import math

import numpy as np

# Exponents above this are refused before calling exp, so failures are loud
# rather than silent inf propagation.
EXP_CAP = 700.0

# Largest number of entries one call may build from a size option: grid
# points of the semidiscrete grid, entries (n^2) of its Laplacian over n
# sites, projected values of the sliced distance, cost entries (n^2)
# of a multivariate rank solve, cells of a matching table or a surplus basis
# read from its largest labels.
GRID_LIMIT = 10_000_000

# Largest number of grid points times sites of a semidiscrete solve.  Its
# squared distances are one N x n float array, and the scores are taken one
# site at a time, so little else is live at the peak: under tracemalloc on
# a 2-vCPU x86-64 VM, 57 MB at 256^2 x 100 and 0.43 GB at this limit
# (256^2 x 762 and 64^3 x 190), where the distances take 0.40 GB.
SCORE_LIMIT = 50_000_000

# First 20 primes, enough for every supported low-discrepancy dimension.
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def as_float_array(x, name: str, ndim: int | None = None) -> np.ndarray:
    """Coerce to a float ndarray, rejecting non-finite entries."""
    from .errors import DomainError

    arr = np.asarray(x, dtype=float)
    if ndim is not None and arr.ndim != ndim:
        raise DomainError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} must contain only finite values")
    return arr


def check_scalar(value: float, name: str, low: float, strict: bool = False) -> None:
    """Reject a scalar parameter that is nan, infinite or below low, with a
    message naming it; strict (used with low = 0) also rejects low itself."""
    from .errors import DomainError

    if not (low < value < math.inf if strict else low <= value < math.inf):
        bound = "positive" if strict else f"at least {low:g}" if low else "nonnegative"
        raise DomainError(f"{name} must be finite and {bound}, got {value!r}")


def check_count(value: int, name: str, low: int) -> None:
    """Reject a count that is a bool, not an integer (numpy integers are
    integers) or below low, with a message naming it."""
    from .errors import DomainError

    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be at least {low}, got {value}")


def check_budget(tol: float, max_iter: int) -> None:
    """Reject a stopping tolerance that is not finite and positive, or a cap
    that is not an integer of at least one iteration."""
    check_scalar(tol, "tol", 0.0, strict=True)
    check_count(max_iter, "max_iter", 1)


def frozen(arr: np.ndarray) -> np.ndarray:
    """Return a read-only view-safe copy used inside immutable dataclasses."""
    out = np.array(arr, dtype=float, copy=True)
    out.flags.writeable = False
    return out

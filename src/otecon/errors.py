"""Exception types shared across the library.

Solvers distinguish bad inputs (:class:`DomainError` and subclasses) from
runtime failures of the algorithm itself (non-identification, resource
limits, overflow guards).  Every iterative solver (the network simplex and
``vector_rank`` on it, the scaling solvers, the semidiscrete Newton loop,
the equilibrium and the two Newton fits, ``moment_matching`` and
``sista``) returns its last iterate with a
:class:`~otecon.measures.SolveReport`, whose ``stop_reason`` is
``"max_iter"`` at the cap and ``"step_exhausted"`` when a line search
finds no usable step; ``binary_cost_ot`` returns the simplex's report
with ``log=True``.  The command line maps both to exit code 3 and still
writes its JSON document, with ``converged: false``.
:class:`NonIdentificationError` is raised only before a fit's first step,
for a basis that does not identify the coefficients; the command line
then writes an empty ``result``.
An iteration cap that is not an integer of at least 1, or a ``tol`` that
is not finite and positive, is malformed input (:class:`DomainError`).
"""


class OteconError(Exception):
    """Base class for all library-specific errors."""


class DomainError(OteconError, ValueError):
    """An input violates a documented precondition."""


class InfeasibleError(DomainError):
    """Marginals are incompatible (total masses differ beyond tolerance)."""


class NotPSDError(DomainError):
    """A matrix required to be positive semidefinite is not."""


class NotInvertibleError(DomainError):
    """A matrix required to be invertible is numerically singular."""


class NonAssignmentError(OteconError):
    """A transport plan expected to be a permutation matrix is not."""


class ResourceError(OteconError):
    """A requested computation exceeds a hard size limit."""


class NonIdentificationError(OteconError):
    """An estimation problem has no parameter value fitting the data."""


class ExpOverflowError(OteconError):
    """An exponent exceeded the overflow guard before exponentiation."""

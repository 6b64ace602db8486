"""Exception types shared across the library.

Solvers distinguish bad inputs (:class:`DomainError` and subclasses) from
runtime failures of the algorithm itself (stalls, resource limits,
overflow guards).  Running out of an iteration budget is reported in one
of two ways.  The scaling and ascent solvers and ``sista`` (proximal
Newton) return their last iterate with a ``converged`` flag, also when a
line search finds no decrease.  Solvers that have no iterate worth
returning raise instead: ``solve_discrete_ot`` raises
:class:`SolverStallError` at its pivot cap, and ``moment_matching`` raises
:class:`NonIdentificationError` at its step budget.  The command line maps
both ways to exit code 3 and still writes its JSON document, with
``converged: false`` and an empty ``result`` when the solver raised.  An
iteration cap below 1, or a ``tol`` that is not finite and positive, is
malformed input (:class:`DomainError`).
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


class SolverStallError(OteconError):
    """An iterative solver made no progress before its iteration cap."""


class NonIdentificationError(OteconError):
    """An estimation problem has no parameter value fitting the data."""


class ExpOverflowError(OteconError):
    """An exponent exceeded the overflow guard before exponentiation."""

"""Exception hierarchy.

``DomainError`` covers semantic/validation failures (CLI exit code 1);
``FileFormatError`` covers malformed input files and output paths that
cannot be written (CLI exit code 2, like a usage error); ``SolverError``
signals that the exact transportation solver gave up (CLI exit code 1).
Valid inputs can reach it, but only through Bland's rule, which runs on
inputs whose optimum the first solve could not prove unique: a large,
highly degenerate problem with ties can run past its pivot limit.

``_require`` is the one check that a public function's argument is of the
kind it needs, raising the given error class with both kinds named.
"""


class DomainError(ValueError):
    """Base class for semantic failures on structurally well-formed input."""


class TreeStructureError(DomainError):
    """The tree description violates a structural invariant."""


class PointLocationError(DomainError):
    """A point reference does not denote a location on the tree."""


class GeodesicError(DomainError):
    """A geodesic is malformed, or a point/coordinate is not on it."""


class CompletenessError(DomainError):
    """An operation requiring a leafless (geodesically complete) tree was
    invoked on a tree with leaves."""


class MeasureError(DomainError):
    """A measure definition violates positivity or total-mass-one."""


class RadonError(DomainError):
    """Flag table or inversion preconditions are violated."""


class OracleInconsistencyError(DomainError):
    """Radon oracle answers are mutually inconsistent, or the hidden measure
    violates the reconstruction preconditions."""


class GenerationError(DomainError):
    """Random-generation bounds are unsatisfiable."""


class FileFormatError(ValueError):
    """An input file could not be parsed against its schema."""


class SolverError(RuntimeError):
    """The transportation solver gave up: ``pivot limit exceeded``
    (``_bland_simplex``, which ``_transportation_simplex`` runs only where
    its first solve finds a tight cell off the basis or reaches its cap;
    one row scan serves both rules) or ``plan marginals do not match the
    measures`` (``optimal_plan``'s check of the solver's flows, ints over
    the one mass scale it forms for the two measures, against each
    measure's masses over that scale)."""


def _require(value, kind: type, role: str, error: type[DomainError]) -> None:
    """Raise ``error`` unless ``value`` is a ``kind``; asked once per call,
    so a wrong kind is named, not met as a missing attribute."""
    if not isinstance(value, kind):
        raise error(f"{role} is a {type(value).__name__}, not a {kind.__name__}")

"""Exception types shared across the toolkit."""


class ScatteringError(Exception):
    """Base class for all toolkit-specific errors."""


class DomainError(ScatteringError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class WrongDimensionError(DomainError):
    """Operation only defined for a specific spatial dimension."""


class TruncationError(ScatteringError, RuntimeError):
    """A series or partial-wave sum did not converge within its budget."""


class ConsistencyError(ScatteringError, RuntimeError):
    """A built-in cross-check between two evaluation routes failed."""


class OverflowGuardError(ScatteringError, OverflowError):
    """Result magnitude exceeded the representable range for the requested order."""


class DegenerateCurrentError(ScatteringError, RuntimeError):
    """Scattered current too small to define a tilt angle or a flux ratio."""


class MatchingError(ScatteringError, RuntimeError):
    """Radial solution could not be matched to the free solution within tolerance."""

"""Exception types shared across the package."""


class OffloadError(Exception):
    """Base class for all package errors."""


class DomainError(OffloadError):
    """An argument is outside the model's domain (bad location, off-grid
    size, inadmissible action)."""


class PreconditionError(OffloadError):
    """A solver precondition does not hold; the message names the violated
    requirement."""


class ResourceLimitError(OffloadError):
    """The requested computation exceeds a configured resource budget."""


class OracleSizeError(OffloadError):
    """The brute-force oracle refused an instance above its size guard."""


class ConfigError(OffloadError):
    """A scenario configuration is missing, malformed, or inconsistent."""


class SchemeError(OffloadError):
    """A decision scheme emitted an action that is not admissible in the
    current state (diagnostic path used by the simulator)."""


class GridRoundingWarning(UserWarning):
    """A file size was rounded up to the next multiple of its grid step."""

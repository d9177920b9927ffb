"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or mutually inconsistent configuration values."""


class DatasetFormatError(ValueError):
    """A dataset line, environment file or anchor file is not valid JSON,
    lacks a field of the schema or holds a bad value."""


class InsufficientDataError(ValueError):
    """Not enough measurements to perform the requested operation."""


class InsufficientAnchorsError(InsufficientDataError):
    """Fewer distinct anchors than position solving requires."""


class MissingAnchorError(ValueError):
    """A measurement references an anchor id with no known position."""


class OutOfBoundsError(ValueError):
    """A position lies outside the environment extent."""


class IncompatibleOrderingError(ValueError):
    """The input tensor ordering does not fit the requested patching."""


class IncompatibleEncodingError(ValueError):
    """The positional encoding kind does not fit the patching strategy."""

"""Exception types shared across the package."""


class UwbcorrError(ValueError):
    """Base of every error the package raises on bad input, config or data."""


class ConfigError(UwbcorrError):
    """Invalid or mutually inconsistent configuration values."""


class DatasetFormatError(UwbcorrError):
    """A dataset line, environment file or anchor file is not valid JSON,
    lacks a field of the schema or holds a bad value."""


class InsufficientDataError(UwbcorrError):
    """Not enough measurements to perform the requested operation."""


class InsufficientAnchorsError(InsufficientDataError):
    """Fewer distinct anchors than position solving requires."""


class MissingAnchorError(UwbcorrError):
    """A measurement references an anchor id with no known position."""


class OutOfBoundsError(UwbcorrError):
    """A position lies outside the environment extent."""


class IncompatibleOrderingError(UwbcorrError):
    """The input tensor ordering does not fit the requested patching."""


class IncompatibleEncodingError(UwbcorrError):
    """The positional encoding kind does not fit the patching strategy."""

"""Exception types shared across the package, and the value checks that
raise ConfigError."""

import numbers


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


def is_number(value) -> bool:
    """An int or float, as JSON gives numbers; a bool is not a number."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_int(name: str, value, minimum: int = 1) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")

"""Exception types shared across the package, and the value checks that
raise ConfigError."""

import numbers


class UwbcorrError(ValueError):
    """Base of every error the package raises on bad input, config or data."""


class ConfigError(UwbcorrError):
    """Invalid or mutually inconsistent configuration values."""


class DatasetFormatError(UwbcorrError):
    """A dataset line or environment file is not valid JSON, lacks a field
    of the schema or holds a bad value."""


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


def is_integer(value) -> bool:
    """An int or a numpy integer; a bool is not an integer."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_int(value, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def check_int(name: str, value, minimum: int = 1) -> None:
    if not _is_int(value, minimum):
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def check_ints(name: str, values) -> None:
    """A list or tuple of integers >= 1, as JSON or a dataclass default gives it."""
    if not (isinstance(values, (tuple, list)) and all(_is_int(v, 1) for v in values)):
        raise ConfigError(f"{name} must be a list of integers >= 1, got {values!r}")

"""Exception types shared across the package, and the integer check on
counts that raises one.

The CLI maps these onto exit codes: configuration problems exit with 2,
numeric failures with 3.
"""

import numbers


class AcslError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AcslError):
    """Invalid manifest, configuration, or input dimensions."""


class NumericError(AcslError, ValueError):
    """A numerical operation failed; also a ValueError, as numpy's LinAlgError is."""


def require_integers(name: str, *values) -> None:
    """ConfigError naming `name` unless every value is an integer (numpy
    integers too), so a count like 2.5 fails before any data is loaded."""
    for value in values:
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")

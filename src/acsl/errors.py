"""Exception types shared across the package, and the check on counts.

A bad count (not an integer, numpy integers aside, or below its bound) is
a ConfigError. Both ConfigError and NumericError are also ValueErrors; the
CLI exits with 2 on a configuration problem and 3 on a numeric failure.
"""

import numbers


class AcslError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AcslError, ValueError):
    """Invalid manifest, configuration, count or input dimensions; also a ValueError."""


class NumericError(AcslError, ValueError):
    """A numerical operation failed; also a ValueError, as numpy's LinAlgError is."""


def require_integers(name: str, *values, least: int | None = None) -> None:
    """ConfigError naming `name` unless every value is an integer (numpy
    integers too) and, when `least` is given, at least `least`."""
    for value in values:
        if not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if least is not None and value < least:
            bound = "non-negative" if least == 0 else f"at least {least}"
            raise ConfigError(f"{name} must be {bound}, got {value!r}")

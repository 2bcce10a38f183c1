"""Exception types shared across the package, and the checks on counts and arrays.

A bad count (not an integer, numpy integers aside, True and False
included, or below its bound) or array (not numeric, the wrong number of
axes, empty, or not finite) is a ConfigError naming the field; a float64
failure is a NumericError. Both are also ValueErrors, and the package
raises no other. The CLI exits with 2 on
a configuration problem and 3 on a numeric failure.
"""

import numbers

import numpy as np


class AcslError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AcslError, ValueError):
    """Invalid manifest, configuration, count or input array; also a ValueError."""


class NumericError(AcslError, ValueError):
    """A numerical operation failed; also a ValueError, as numpy's LinAlgError is."""


def is_number(value, kind: type = numbers.Real) -> bool:
    """Whether value is an instance of `kind`, a ``numbers`` class, and not
    a flag: True and False (and numpy.bool_) are not counts, weights or
    levels, though bool is an Integral."""
    return isinstance(value, kind) and not isinstance(value, (bool, np.bool_))


def require_integers(name: str, *values, least: int | None = None) -> None:
    """ConfigError naming `name` unless every value is an integer (numpy
    integers too, True and False not: ``is_number``) and, when `least` is
    given, at least `least`."""
    for value in values:
        if not is_number(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if least is not None and value < least:
            bound = "non-negative" if least == 0 else f"at least {least}"
            raise ConfigError(f"{name} must be {bound}, got {value!r}")


def require_numeric(name: str, a) -> np.ndarray:
    """`a` as a float array; ConfigError naming `name` unless it converts."""
    try:
        return np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be numeric: {exc}") from exc


def require_finite(name: str, a, ndim: int) -> np.ndarray:
    """`a` as a float array (``require_numeric``); ConfigError naming `name`
    unless it also has `ndim` axes and at least one entry, and every entry
    is finite."""
    a = require_numeric(name, a)
    if a.ndim != ndim or a.size == 0:
        raise ConfigError(f"{name} must be a non-empty {ndim}-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ConfigError(f"{name} must be finite")
    return a

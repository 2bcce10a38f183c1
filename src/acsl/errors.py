"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit with 2,
numeric failures with 3.
"""


class AcslError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AcslError):
    """Invalid manifest, configuration, or input dimensions."""


class NumericError(AcslError, ValueError):
    """A numerical operation failed; also a ValueError, as numpy's LinAlgError is."""

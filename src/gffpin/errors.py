"""Exception types shared across the package: one per kind of failure.

An argument an operation does not accept raises DomainError, whether it is a
value outside a mathematical domain (f(m) off (0, 1]), a box or tiling the
operation cannot use, a system it does not cover (the co-membrane in a
pinning-model routine) or a call that breaks its contract (another chain's
generator).  The message says which.  The CLI catches GffpinError.
"""


class GffpinError(Exception):
    """Base class for all package errors."""


class DomainError(GffpinError):
    """An argument the operation does not accept."""


class NumericError(GffpinError):
    """A numerical routine failed to reach its accuracy target."""


class ConfigError(GffpinError):
    """An experiment setting of the wrong type or out of range, a malformed config
    file, or an unknown experiment name."""

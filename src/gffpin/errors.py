"""Exception types shared across the package."""


class GffpinError(Exception):
    """Base class for all package errors."""


class InvalidGeometryError(GffpinError):
    """Box too small or otherwise ill-formed (e.g. N < 2 has no interior)."""


class EmptySubBoxError(GffpinError):
    """A sub-box prescription yields no sites at this box size."""


class TilingError(GffpinError):
    """Cell tiling parameters incompatible with the box (divisibility, parity)."""


class DomainError(GffpinError):
    """Argument outside the mathematical domain of an operation."""


class MassTooLargeError(DomainError):
    """Mass too large for the requested number of decomposition scales."""


class NumericError(GffpinError):
    """A numerical routine failed to reach its accuracy target."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ContractError(GffpinError):
    """A call's inputs break its contract: required precomputed data (scale
    stack, extension, ...) is missing, or a chain comes with arguments other
    than its own."""


class UnsupportedGeometryError(GffpinError):
    """A routine called on a system it does not cover: an exact small-system
    routine on a box that is not small, or a pinning-model one on the co-membrane."""


class ConfigError(GffpinError):
    """Malformed experiment configuration or unknown experiment name."""

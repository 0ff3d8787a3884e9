"""Exception types shared across the library."""


class EstimationError(Exception):
    """Base class for numerical-contract violations in this package."""


class GridTooNarrow(EstimationError):
    """State support or required resolution does not fit the quadrature window."""


class GridMismatch(EstimationError):
    """Operation requires operands sampled on the same quadrature grid."""


class DivergenceDetected(EstimationError):
    """Grid-doubling growth test flagged a logarithmically divergent quadrature."""


class EmptySupport(EstimationError):
    """All half-line sector weights vanish; no measurement seed can be built."""


class DomainViolation(EstimationError):
    """State lies outside the domain required by the measurement construction."""


class SupportViolation(EstimationError):
    """State carries non-negligible mass where the requested functional degenerates."""


class InsufficientMass(EstimationError):
    """Scan window captures too little probability mass for reliable statistics."""


class CutoffTooSmall(EstimationError):
    """Fock-space truncation drops more amplitude than the configured tolerance."""


class NoConvergence(EstimationError):
    """Iterative solver failed to converge."""


class ConfigError(EstimationError, ValueError):
    """An argument or run setting outside its range; also a ValueError."""

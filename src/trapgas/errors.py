"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """A root search failed to bracket or converge."""


class TruncationError(RuntimeError):
    """A level sum hit its term cap before the tail bound was satisfied."""


class QuadratureError(RuntimeError):
    """A quadrature's error estimate exceeds the requested tolerance."""

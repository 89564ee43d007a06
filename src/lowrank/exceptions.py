"""Exception types shared across the package."""


class LowRankError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LowRankError, ValueError):
    """Operand shapes are incompatible."""


class NonFiniteError(LowRankError, ValueError):
    """An input matrix has an infinite or NaN entry."""


class DefinitenessError(LowRankError, ValueError):
    """A matrix required to be symmetric positive definite is not."""


class NumericalError(LowRankError, RuntimeError):
    """An iterative numerical routine failed to converge."""


class DegenerateProblemError(LowRankError, ValueError):
    """The problem instance is degenerate (e.g. an all-zero weight matrix)."""


class DivergenceError(LowRankError, RuntimeError):
    """Solver iterates became non-finite.

    Carries the last finite trace in ``trace`` when available.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InvalidSpecError(LowRankError, ValueError):
    """A synthetic problem specification violates its invariants."""

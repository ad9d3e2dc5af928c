"""Exception types shared across the library."""


class GrassError(Exception):
    """Base class of the library's own errors; misuse, such as a wrong
    argument type or value, raises TypeError or ValueError instead."""


class DimensionMismatch(GrassError):
    """Operands do not have the shapes the operation requires."""


class RankDeficient(GrassError):
    """Input matrix does not have full column rank."""


class ConvergenceFailure(GrassError):
    """An iterative solver exhausted its iteration budget.

    Attributes
    ----------
    iterations : int or None
        Iteration budget that was exhausted.
    gap : float or None
        Remaining optimality gap, when the solver can report one.
    """

    def __init__(self, message, iterations=None, gap=None):
        super().__init__(message)
        self.iterations = iterations
        self.gap = gap


class EmbeddingTooLarge(GrassError):
    """Explicit embedding would exceed the configured coordinate cap."""


class DegenerateRatio(GrassError):
    """Distance ratio is undefined for identical subspaces."""


class InvalidKernelParameter(GrassError):
    """Kernel parameters violate the validity constraints of the family."""


class DegenerateLabels(GrassError):
    """Training labels contain fewer than two classes."""


class InsufficientData(GrassError):
    """Not enough data points for the requested construction."""


class NotPositiveSemidefinite(GrassError):
    """A Gram matrix required to be positive semidefinite is not."""


class NumericalOverflow(GrassError):
    """An intermediate result left the range of a float."""


class InputError(GrassError):
    """Bad user input: unreadable files, malformed configs, unknown keys."""

"""Exception types shared across the library."""


class GrassError(Exception):
    """Base class of the failures a caller tells apart by type.

    A bad argument value or shape raises ValueError and a wrong type
    TypeError.  A subclass exists only where a caller catches it by name:
    the command line reports InputError and InvalidKernelParameter as
    bad input (exit 2), tuning skips an InvalidKernelParameter grid value,
    and the task runners report NumericalOverflow and
    NotPositiveSemidefinite as a kernel's values breaking a step
    (experiments._kernel_failures).  An iterative solver that spends its
    budget raises nothing: it returns its result flagged unconverged.
    """


class InvalidKernelParameter(GrassError):
    """Kernel parameters violate the validity constraints of the family."""


class NotPositiveSemidefinite(GrassError):
    """A Gram matrix required to be positive semidefinite is not."""


class NumericalOverflow(GrassError):
    """An intermediate result left the range of a float."""


class InputError(GrassError):
    """Bad user input: unreadable files, malformed configs, unknown keys."""

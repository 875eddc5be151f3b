"""Exception types shared across the package.

ValueError subclasses signal bad inputs; RuntimeError subclasses signal
numeric failures.  The CLI maps the former to exit code 2 and the latter
to exit code 3.
"""


class TooManyUsersError(ValueError):
    """User count exceeds the 2**n enumeration guard."""


class InvalidSamplesError(ValueError):
    """Monte-Carlo sample budget below the supported minimum."""


class DimensionError(ValueError):
    """Incompatible or unsupported matrix dimensions."""


class MatrixFileError(ValueError):
    """Matrix file is malformed or violates its schema."""


class QuadratureFailure(RuntimeError):
    """The quadrature oracle missed its tolerance (library only: no CLI command calls it)."""


class NonConvergenceError(RuntimeError):
    """Iterative construction hit its iteration cap before converging."""


class NanFitnessError(RuntimeError):
    """A fitness evaluation returned NaN; the optimizer aborts."""

"""Exception types shared across the package."""


class SslgaussError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSupportError(SslgaussError):
    """Support set has duplicate, out-of-range, or wrongly sized indices."""


class EmptyDatasetError(SslgaussError):
    """A dataset with zero labeled and zero unlabeled samples was requested."""


class InsufficientSamplesError(SslgaussError):
    """An operation needs more samples than were provided (e.g. covariance with n < 2)."""


class MissingClassError(SslgaussError):
    """A labeled-data operation needs both classes but one is absent."""


class ScreeningTooSmallError(SslgaussError):
    """The screening step would retain fewer coordinates than the target sparsity."""


# The solvers flag non-convergence in their result; lspca raises this when a
# solve ends on a non-finite eigenpair. perfbench's tracer imports it too.
class ConvergenceError(SslgaussError):
    """An iterative solve failed: it ended on a non-finite eigenpair."""


class ContractError(SslgaussError):
    """An input violates a documented contract (non-unit direction, size mismatch...)."""


class ExactInfeasibleError(SslgaussError):
    """The degree is past the exact norm's guard; use the closed-form bound."""


class BoundInapplicableError(SslgaussError):
    """The closed-form bound's exponent condition fails for these parameters."""


class ConfigError(SslgaussError):
    """A config file or flag set is malformed or inconsistent."""

"""Exception types shared across the package."""


class NotPositiveDefinite(Exception):
    """Cholesky factorization failed.

    Usually means a kernel matrix is numerically indefinite, e.g. because
    of extreme hyperparameters.
    """


class BlasThreadsError(RuntimeError):
    """The BLAS thread count could not be set: it is not a positive integer,
    no loaded OpenBLAS copy was found, or one did not take the count."""


class DimensionMismatch(ValueError):
    """Array shapes are inconsistent with the operation's contract."""


class DomainError(ValueError):
    """Input points fall outside the domain a kernel is defined on."""


class InvalidRank(ValueError):
    """The requested coupling rank is not usable (must be a positive int)."""


class CapExceeded(ValueError):
    """Problem size exceeds the cap of a deliberately dense code path."""


class DataError(ValueError):
    """A data file could not be parsed or fails validation."""


class ModelFormatError(ValueError):
    """A model file is malformed or has an unsupported format version."""

"""Exception hierarchy shared by all oacal modules."""


class OacalError(Exception):
    """Base class for every error raised by this package."""


class DimMismatch(OacalError):
    """Operand dimensions are incompatible."""


class ShapeMismatch(DimMismatch):
    """Matrix shapes disagree with the layer being calibrated."""


class NonFinite(OacalError):
    """A NaN or infinity crossed a public operation boundary."""


class NotPositiveDefinite(OacalError):
    """Cholesky failed; the caller should apply (more) diagonal damping and retry."""


class NonPositiveDiagonal(OacalError):
    """An inverse-Hessian diagonal entry is not strictly positive; damping was insufficient."""


class NegativeAlpha(OacalError):
    """Damping factor must be finite and >= 0."""


class EmptyAccumulator(OacalError):
    """finalize() requires at least one accumulated sample."""


class EmptyInput(OacalError):
    """An operation that needs at least one sample received none."""


class EmptyGroup(OacalError):
    """A quantization group contains no values."""


class MalformedArchive(OacalError):
    """Bad magic or version, truncated archive, bad checkpoint sidecar or run report."""


class DuplicateName(MalformedArchive):
    """Tensor names inside one archive must be unique."""


class TokenOutOfRange(OacalError):
    """A token id is outside the model vocabulary."""


class CorpusTooSmall(OacalError):
    """The training corpus is below the minimum usable size."""


class ArchitectureMismatch(MalformedArchive):
    """Checkpoint tensors disagree with the architecture sidecar."""


class ConfigError(OacalError):
    """Invalid or inconsistent run configuration."""

"""Exception types raised across the pipeline.

Everything derives from PipelineError, so one except clause catches them all.
pipeline.stage passes BAD_INPUT through (the CLI exits 1) and wraps any other
failure as a StageError naming the stage (the CLI exits 2).
"""


class PipelineError(Exception):
    """Base class for all errors raised by this package."""


# --- volume decoding ---------------------------------------------------------

class IoError(PipelineError):
    """File could not be opened or read."""


class MalformedHeader(PipelineError):
    """File is not a structurally valid NIfTI-1 image."""


class UnsupportedDatatype(PipelineError):
    """NIfTI datatype code outside the supported set."""


class DimensionError(PipelineError):
    """Volume dimensionality unusable (not 3-D up to trailing singletons)."""


# --- texture / slice ranking -------------------------------------------------

class InvalidLevels(PipelineError):
    """Grey-level count below 2."""


class ZeroOffset(PipelineError):
    """Co-occurrence offset (0, 0) is meaningless."""


class EmptyGlcm(PipelineError):
    """No pixel pair fits the offset within the slice."""


class NotNormalized(PipelineError):
    """Co-occurrence matrix does not sum to 1."""


class EmptyInput(PipelineError):
    """An operation that needs at least one element got none."""


class InvalidK(PipelineError):
    """Selection/cluster count outside its valid range."""


# --- features ----------------------------------------------------------------

class InvalidSide(PipelineError):
    """Resample target side below 2."""


class ModelLoadError(PipelineError):
    """External feature model missing or undecodable."""


class ShapeMismatch(PipelineError):
    """Tensor shape incompatible with the declared interface."""


class ParseError(PipelineError):
    """An input file cannot be opened, or its CSV or JSON content is undecodable
    or violates the expected schema."""


class EmptyFile(PipelineError):
    """CSV contains no data rows."""


class DegenerateInput(PipelineError):
    """Too few (or zero-variance) samples for the requested fit."""


# --- decomposition -----------------------------------------------------------

class RangeTooShort(PipelineError):
    """Elbow search range shorter than 3 candidate values."""


class ClassTooSmall(PipelineError):
    """A class has too few members to cluster as configured."""


class UnknownSublabel(PipelineError):
    """Composite label not covered by the codec."""


# --- training / evaluation ---------------------------------------------------

class TooFewSubjects(PipelineError):
    """Subject-level split needs at least two subjects."""


class MissingSubclass(PipelineError):
    """A codec sub-class has no training samples."""


class DimMismatch(PipelineError):
    """Input vector length differs from the model's input dimension."""


class EmptyTestSet(PipelineError):
    """Evaluation requires at least one sample."""


# --- orchestration -----------------------------------------------------------

class ConfigError(PipelineError):
    """Configuration value or schema invalid."""


class StageError(PipelineError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


BAD_INPUT = (ConfigError, ParseError, EmptyFile)

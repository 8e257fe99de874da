"""Exception types raised across the pipeline.

Everything derives from PipelineError, so one except clause catches them all.
Only a few classes are told apart by code:
- ConfigError and ParseError (BAD_INPUT): pipeline.stage passes them through
  and the CLI exits 1;
- StageError: pipeline.stage wraps any other failure in it, naming the stage,
  and the CLI exits 2;
- ModelLoadError and EmptyGlcm, which minionnx and entropy catch by type.
The other classes group messages for library callers.
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

class EmptyGlcm(PipelineError):
    """No pixel pair fits the offset within the slice."""


class EmptyInput(PipelineError):
    """An operation that needs at least one element got none."""


class InvalidK(PipelineError):
    """Selection/cluster count outside its valid range."""


# --- features ----------------------------------------------------------------

class ModelLoadError(PipelineError):
    """External feature model missing or undecodable."""


class ShapeMismatch(PipelineError):
    """Tensor or matrix shape incompatible with the declared interface."""


class ParseError(PipelineError):
    """An input file cannot be opened, or its CSV or JSON content is empty,
    undecodable or violates the expected schema."""


class DegenerateInput(PipelineError):
    """Too few (or zero-variance) samples for the requested fit."""


# --- decomposition -----------------------------------------------------------

class UnknownSublabel(PipelineError):
    """Composite label not covered by the codec."""


# --- orchestration -----------------------------------------------------------

class ConfigError(PipelineError):
    """Configuration value or schema invalid, or an argument outside its
    valid range."""


class StageError(PipelineError):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


BAD_INPUT = (ConfigError, ParseError)

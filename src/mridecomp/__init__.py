"""mridecomp: MRI slice selection, class decomposition, and classification.

Pipeline: NIfTI volumes -> entropy-ranked axial slices -> per-slice feature
vectors -> standardization + PCA -> per-class k-means subclasses -> softmax
classifier over subclasses -> predictions composed back to original classes.

The top level exports what the README's library example uses; everything
else is imported from its submodule (mridecomp.pipeline, mridecomp.features,
...).
"""

__version__ = "0.1.0"

from .classifier import TrainingConfig, train
from .config import PipelineConfig
from .decomposition import DecompositionConfig, assign_sublabels, decompose
from .entropy import SliceSelectionConfig, rank_slices, select_top_k
from .evaluation import evaluate
from .features import FeatureMatrix, RawPixelBackend
from .nifti import read_nifti
from .pipeline import run_pipeline
from .synth import generate_dataset

__all__ = [
    "__version__",
    "DecompositionConfig",
    "FeatureMatrix",
    "PipelineConfig",
    "RawPixelBackend",
    "SliceSelectionConfig",
    "TrainingConfig",
    "assign_sublabels",
    "decompose",
    "evaluate",
    "generate_dataset",
    "rank_slices",
    "read_nifti",
    "run_pipeline",
    "select_top_k",
    "train",
]

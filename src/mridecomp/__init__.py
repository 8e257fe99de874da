"""mridecomp: MRI slice selection, class decomposition, and classification.

Pipeline: NIfTI volumes -> entropy-ranked axial slices -> per-slice feature
vectors -> standardization + PCA -> per-class k-means subclasses -> softmax
classifier over subclasses -> predictions composed back to original classes.
"""

__version__ = "0.1.0"

from .classifier import (
    ClassifierModel,
    TrainConfig,
    TrainResult,
    model_from_json,
    model_to_json,
    train,
)
from .cluster import ElbowResult, KMeansResult, elbow_select_k, kmeans, kmeans_restarts
from .config import PipelineConfig, load_config
from .decomposition import (
    DecomposedDataset,
    LabelCodec,
    assign_sublabels,
    decompose,
)
from .entropy import (
    EntropyConfig,
    GlcmMatrix,
    RankedSlice,
    glcm,
    glcm_entropy,
    rank_slices,
    select_top_k,
    slice_entropy,
)
from .errors import PipelineError, StageError
from .evaluation import EvalReport, confusion_matrix, evaluate, subject_split
from .features import (
    FeatureBackend,
    FeatureMatrix,
    OnnxBackend,
    RawPixelBackend,
    bilinear_resize,
    load_precomputed,
    save_features,
)
from .manifest import ManifestRow, read_manifest, write_manifest
from .nifti import QuantizedSlice, Slice2D, Volume, extract_axial_slices, quantize, read_nifti
from .pipeline import RunResult, extract_feature_matrix, run_pipeline
from .reduction import (
    PcaModel,
    ScalerParams,
    apply_standardize,
    fit_standardize,
    pca_fit,
    pca_inverse,
    pca_transform,
)
from .synth import generate_dataset, write_nifti

__all__ = [
    "__version__",
    "ClassifierModel",
    "TrainConfig",
    "TrainResult",
    "model_from_json",
    "model_to_json",
    "train",
    "ElbowResult",
    "KMeansResult",
    "elbow_select_k",
    "kmeans",
    "kmeans_restarts",
    "PipelineConfig",
    "load_config",
    "DecomposedDataset",
    "LabelCodec",
    "assign_sublabels",
    "decompose",
    "EntropyConfig",
    "GlcmMatrix",
    "RankedSlice",
    "glcm",
    "glcm_entropy",
    "rank_slices",
    "select_top_k",
    "slice_entropy",
    "PipelineError",
    "StageError",
    "EvalReport",
    "confusion_matrix",
    "evaluate",
    "subject_split",
    "FeatureBackend",
    "FeatureMatrix",
    "OnnxBackend",
    "RawPixelBackend",
    "bilinear_resize",
    "load_precomputed",
    "save_features",
    "ManifestRow",
    "read_manifest",
    "write_manifest",
    "QuantizedSlice",
    "Slice2D",
    "Volume",
    "extract_axial_slices",
    "quantize",
    "read_nifti",
    "RunResult",
    "extract_feature_matrix",
    "run_pipeline",
    "PcaModel",
    "ScalerParams",
    "apply_standardize",
    "fit_standardize",
    "pca_fit",
    "pca_inverse",
    "pca_transform",
    "generate_dataset",
    "write_nifti",
]

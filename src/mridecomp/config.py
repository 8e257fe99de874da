"""Pipeline configuration: nested dataclasses, JSON loading, validation.

The config file is a single JSON document with a versioned schema. Unknown
keys are errors, and every numeric field is validated up front so a bad
config fails before any work starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .artifacts import from_json, read_json
from .classifier import COMPOSE_MODES, TrainConfig, TrainSettings
from .entropy import EntropyConfig
from .errors import ConfigError, ParseError

DECOMPOSITION_MODES = ("fixed", "elbow")
FEATURE_BACKENDS = ("raw", "onnx")
CONFIG_VERSION = 1


@dataclass(frozen=True)
class SliceSelectionConfig(EntropyConfig):
    """The slice scorer's settings plus how many ranked slices to keep."""

    top_k: int = 20

    def validate(self) -> None:
        if self.levels < 2:
            raise ConfigError(f"slice_selection.levels must be >= 2, got {self.levels}")
        if self.offset == (0, 0):
            raise ConfigError("slice_selection.offset must be non-zero")
        if len(self.offset) != 2:
            raise ConfigError(f"slice_selection.offset must have 2 entries, got {self.offset}")
        if self.top_k < 1:
            raise ConfigError(f"slice_selection.top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True)
class FeatureConfig:
    backend: str = "raw"
    side: int = 16  # raw backend: slices are resized to side x side
    model_path: str | None = None  # onnx backend
    sidecar_path: str | None = None

    def validate(self) -> None:
        if self.backend not in FEATURE_BACKENDS:
            raise ConfigError(
                f"features.backend must be one of {FEATURE_BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "raw" and self.side < 2:
            raise ConfigError(f"features.side must be >= 2, got {self.side}")
        if self.backend == "onnx" and not self.model_path:
            raise ConfigError("features.model_path is required for the onnx backend")


@dataclass(frozen=True)
class PcaConfig:
    variance_threshold: float = 0.95

    def validate(self) -> None:
        if not 0.0 < self.variance_threshold <= 1.0:
            raise ConfigError(
                f"pca.variance_threshold must be in (0, 1], got {self.variance_threshold}"
            )


@dataclass(frozen=True)
class DecompositionConfig:
    mode: str = "fixed"
    k: int = 2
    k_min: int = 2
    k_max: int = 6
    n_init: int = 10

    def validate(self) -> None:
        if self.mode not in DECOMPOSITION_MODES:
            raise ConfigError(
                f"decomposition.mode must be one of {DECOMPOSITION_MODES}, got {self.mode!r}"
            )
        if self.mode == "fixed" and self.k < 1:
            raise ConfigError(f"decomposition.k must be >= 1, got {self.k}")
        if self.mode == "elbow":
            if self.k_min < 1:
                raise ConfigError(f"decomposition.k_min must be >= 1, got {self.k_min}")
            if self.k_max - self.k_min + 1 < 3:
                raise ConfigError(
                    f"decomposition elbow range [{self.k_min}, {self.k_max}] needs >= 3 values"
                )
        if self.n_init < 1:
            raise ConfigError(f"decomposition.n_init must be >= 1, got {self.n_init}")


@dataclass(frozen=True)
class TrainingConfig(TrainSettings):
    """The learning-rate grid plus the settings its cells share; unlike
    TrainConfig it is checked by validate, not when constructed."""

    learning_rates: tuple[float, ...] = (0.01, 0.001)

    def train_config(self, learning_rate: float, seed: int) -> TrainConfig:
        """Classifier settings of one learning-rate cell; TrainConfig checks them."""
        shared = {f.name: getattr(self, f.name) for f in fields(TrainSettings)}
        return TrainConfig(learning_rate=learning_rate, seed=seed, **shared)

    def validate(self) -> None:
        if not self.learning_rates:
            raise ConfigError("training.learning_rates must be non-empty")
        if len(set(self.learning_rates)) != len(self.learning_rates):
            # cells are named lr=<value>, so equal rates would share one name
            raise ConfigError(
                f"training.learning_rates must be distinct, got {list(self.learning_rates)}"
            )
        try:
            for lr in self.learning_rates:
                self.train_config(lr, seed=0)
        except ConfigError as exc:
            raise ConfigError(f"training: {exc}") from None


@dataclass(frozen=True)
class SplitConfig:
    train_frac: float = 0.8

    def validate(self) -> None:
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"split.train_frac must be in (0, 1), got {self.train_frac}")


@dataclass(frozen=True)
class PipelineConfig:
    version: int = CONFIG_VERSION
    classes: tuple[str, ...] = ("CN", "MCI", "AD")
    seed: int = 0
    compose_mode: str = "argmax-strip"
    slice_selection: SliceSelectionConfig = field(default_factory=SliceSelectionConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    pca: PcaConfig = field(default_factory=PcaConfig)
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    split: SplitConfig = field(default_factory=SplitConfig)

    def validate(self) -> None:
        if self.version != CONFIG_VERSION:
            raise ConfigError(f"unsupported config version {self.version}")
        if len(self.classes) < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if len(set(self.classes)) != len(self.classes):
            raise ConfigError(f"duplicate class names in {self.classes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.compose_mode not in COMPOSE_MODES:
            raise ConfigError(
                f"compose_mode must be one of {COMPOSE_MODES}, got {self.compose_mode!r}"
            )
        self.slice_selection.validate()
        self.features.validate()
        self.pca.validate()
        self.decomposition.validate()
        self.training.validate()
        self.split.validate()


def config_from_dict(obj: dict) -> PipelineConfig:
    try:
        cfg = from_json(PipelineConfig, obj, "config")
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate()
    return cfg


def load_config(path) -> PipelineConfig:
    try:
        obj = read_json(path)
    except ParseError as exc:
        raise ConfigError(str(exc)) from None
    return config_from_dict(obj)

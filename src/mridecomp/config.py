"""Pipeline configuration: nested dataclasses, JSON loading, validation.

The config file is a single JSON document with a versioned schema. Unknown
keys are errors, and every numeric field is validated up front so a bad
config fails before any work starts. Each section checks itself. The
slice_selection, features, decomposition and training sections are defined
beside what takes and checks them (rank_slices, build_backend, decompose,
train) and the mode lists they validate; pca and split are defined here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, is_dataclass

from .artifacts import from_json, read_json
from .classifier import TrainingConfig, check_compose_mode
from .decomposition import DecompositionConfig
from .entropy import SliceSelectionConfig
from .errors import ConfigError, ParseError
from .features import FeatureConfig

CONFIG_VERSION = 1


@dataclass(frozen=True)
class PcaConfig:
    variance_threshold: float = 0.95

    def validate(self) -> None:
        if not 0.0 < self.variance_threshold <= 1.0:
            raise ConfigError(
                f"pca.variance_threshold must be in (0, 1], got {self.variance_threshold}"
            )


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
        check_compose_mode(self.compose_mode)
        for section in vars(self).values():
            if is_dataclass(section):
                section.validate()


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

"""Pipeline configuration: parsing, validation, round trips."""

import json
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mridecomp.artifacts import write_json
from mridecomp.config import (
    DecompositionConfig,
    FeatureConfig,
    PcaConfig,
    PipelineConfig,
    SliceSelectionConfig,
    SplitConfig,
    TrainingConfig,
    config_from_dict,
    load_config,
)
from mridecomp.errors import ConfigError
from mridecomp.features import build_backend


def test_defaults_are_valid():
    cfg = PipelineConfig()
    cfg.validate()
    assert cfg.classes == ("CN", "MCI", "AD")
    assert cfg.compose_mode == "argmax-strip"
    assert cfg.slice_selection.top_k == 20
    assert cfg.pca.variance_threshold == 0.95
    assert cfg.split.train_frac == 0.8
    assert cfg.training.learning_rates == (0.01, 0.001)
    assert (cfg.training.epochs, cfg.training.batch_size, cfg.training.hidden_dim) == (200, 64, 0)


def test_dict_round_trip():
    cfg = PipelineConfig(seed=7)
    again = config_from_dict(asdict(cfg))
    assert again == cfg


def test_file_round_trip(tmp_path):
    cfg = PipelineConfig(seed=3)
    path = tmp_path / "cfg.json"
    write_json(asdict(cfg), path)
    assert load_config(path) == cfg


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_write_json_rejects_non_finite_floats_before_opening(tmp_path, value):
    path = tmp_path / "kept.json"
    write_json({"kept": 1}, path)
    with pytest.raises(ValueError):
        write_json({"losses": [0.5, value]}, path)
    assert path.read_text() == '{\n  "kept": 1\n}\n'


def test_unknown_root_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"seeed": 3})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        config_from_dict({"training": {"learning_rate": 0.01}})  # must be plural


def test_non_object_section_rejected():
    with pytest.raises(ConfigError, match="must be a JSON object"):
        config_from_dict({"training": [1, 2]})


def test_invalid_json_file_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


def test_load_config_validates(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"split": {"train_frac": 1.0}}))
    with pytest.raises(ConfigError, match="train_frac"):
        load_config(path)


def test_tuple_fields_coerced_from_lists():
    cfg = config_from_dict(
        {
            "classes": ["A", "B"],
            "slice_selection": {"offset": [1, 0]},
            "training": {"learning_rates": [0.1]},
        }
    )
    assert cfg.classes == ("A", "B")
    assert cfg.slice_selection.offset == (1, 0)
    assert cfg.training.learning_rates == (0.1,)


# each rejected section with its full message; new cases go last, so that the
# ids section0.. keep naming the same cases
_REJECTED = {
    SliceSelectionConfig(levels=1): "slice_selection.levels must be >= 2, got 1",
    SliceSelectionConfig(offset=(0, 0)): "slice_selection.offset must be non-zero",
    SliceSelectionConfig(offset=(1, 2, 3)): (
        "slice_selection.offset must have 2 entries, got (1, 2, 3)"
    ),
    SliceSelectionConfig(top_k=0): "slice_selection.top_k must be >= 1, got 0",
    FeatureConfig(backend="mystery"): (
        "features.backend must be one of ('raw', 'onnx'), got 'mystery'"
    ),
    FeatureConfig(side=1): "features.side must be >= 2, got 1",
    FeatureConfig(backend="onnx", model_path=None): (
        "features.model_path is required for the onnx backend"
    ),
    PcaConfig(variance_threshold=0.0): "pca.variance_threshold must be in (0, 1], got 0.0",
    PcaConfig(variance_threshold=1.5): "pca.variance_threshold must be in (0, 1], got 1.5",
    DecompositionConfig(mode="magic"): (
        "decomposition.mode must be one of ('fixed', 'elbow'), got 'magic'"
    ),
    DecompositionConfig(k=0): "decomposition.k must be >= 1, got 0",
    DecompositionConfig(mode="elbow", k_min=0): "decomposition.k_min must be >= 1, got 0",
    DecompositionConfig(mode="elbow", k_min=5, k_max=4): (
        "decomposition elbow range [5, 4] needs >= 3 values"
    ),
    DecompositionConfig(n_init=0): "decomposition.n_init must be >= 1, got 0",
    TrainingConfig(learning_rates=()): "training.learning_rates must be non-empty",
    TrainingConfig(learning_rates=(0.1, -0.1)): (
        "training.learning_rates must be > 0, got [0.1, -0.1]"
    ),
    TrainingConfig(learning_rates=(0.0,)): "training.learning_rates must be > 0, got [0.0]",
    TrainingConfig(epochs=0): "training.epochs must be >= 1, got 0",
    TrainingConfig(batch_size=0): "training.batch_size must be >= 1, got 0",
    TrainingConfig(hidden_dim=-2): "training.hidden_dim must be >= 0, got -2",
    TrainingConfig(beta1=1.0): "training.beta1 and training.beta2 must lie in [0, 1)",
    TrainingConfig(eps=0.0): "training.eps must be > 0, got 0.0",
    TrainingConfig(beta2=1.0): "training.beta1 and training.beta2 must lie in [0, 1)",
    TrainingConfig(beta2=-0.1): "training.beta1 and training.beta2 must lie in [0, 1)",
    SplitConfig(train_frac=0.0): "split.train_frac must be in (0, 1), got 0.0",
    SplitConfig(train_frac=1.0): "split.train_frac must be in (0, 1), got 1.0",
    TrainingConfig(learning_rates=(0.01, 0.001, 0.01)): (
        "training.learning_rates must be distinct, got [0.01, 0.001, 0.01]"
    ),
    SliceSelectionConfig(levels=257): "slice_selection.levels must be <= 256, got 257",
}


@pytest.mark.parametrize("section", list(_REJECTED))
def test_section_validation_rejects(section):
    match = f"^{re.escape(_REJECTED[section])}$"
    with pytest.raises(ConfigError, match=match):
        section.validate()
    if isinstance(section, FeatureConfig):
        # build_backend checks its section before it loads anything
        with pytest.raises(ConfigError, match=match):
            build_backend(section)


def test_root_validation_rejects():
    for cfg, message in (
        (PipelineConfig(version=2), "unsupported config version 2"),
        (PipelineConfig(classes=("A",)), "need at least 2 classes, got ('A',)"),
        (PipelineConfig(classes=("A", "A")), "duplicate class names in ('A', 'A')"),
        (
            PipelineConfig(compose_mode="vote"),
            "compose_mode must be one of ('argmax-strip', 'prob-sum'), got 'vote'",
        ),
    ):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            cfg.validate()


def test_validate_recurses_into_sections():
    cfg = PipelineConfig(pca=PcaConfig(variance_threshold=2.0))
    with pytest.raises(ConfigError, match="variance_threshold"):
        cfg.validate()


def test_float_field_keeps_an_in_range_integer():
    cfg = config_from_dict({"training": {"eps": 1, "learning_rates": [1]}})
    assert type(cfg.training.eps) is int and type(cfg.training.learning_rates[0]) is int


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        config_from_dict({"seed": -1})


_DEFAULTS = asdict(PipelineConfig())
_KEYS = [(None, key) for key in _DEFAULTS] + [
    (section, key) for section, keys in _DEFAULTS.items() if isinstance(keys, dict) for key in keys
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@settings(deadline=None, max_examples=300)
@given(where=st.sampled_from(_KEYS), value=_JSON)
def test_any_json_value_is_a_config_or_a_config_error(where, value):
    section, key = where
    document = {key: value} if section is None else {section: {key: value}}
    try:
        assert isinstance(config_from_dict(document), PipelineConfig)
    except ConfigError:
        pass

"""Pipeline configuration: parsing, validation, round trips."""

import json
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


def test_defaults_are_valid():
    cfg = PipelineConfig()
    cfg.validate()
    assert cfg.classes == ("CN", "MCI", "AD")
    assert cfg.compose_mode == "argmax-strip"
    assert cfg.slice_selection.top_k == 20
    assert cfg.pca.variance_threshold == 0.95
    assert cfg.split.train_frac == 0.8


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


@pytest.mark.parametrize(
    "section",
    [
        SliceSelectionConfig(levels=1),
        SliceSelectionConfig(offset=(0, 0)),
        SliceSelectionConfig(offset=(1, 2, 3)),
        SliceSelectionConfig(top_k=0),
        FeatureConfig(backend="mystery"),
        FeatureConfig(side=1),
        FeatureConfig(backend="onnx", model_path=None),
        PcaConfig(variance_threshold=0.0),
        PcaConfig(variance_threshold=1.5),
        DecompositionConfig(mode="magic"),
        DecompositionConfig(k=0),
        DecompositionConfig(mode="elbow", k_min=0),
        DecompositionConfig(mode="elbow", k_min=5, k_max=4),
        DecompositionConfig(n_init=0),
        TrainingConfig(learning_rates=()),
        TrainingConfig(learning_rates=(0.1, -0.1)),
        TrainingConfig(epochs=0),
        TrainingConfig(batch_size=0),
        TrainingConfig(hidden_dim=-2),
        TrainingConfig(beta1=1.0),
        TrainingConfig(eps=0.0),
        TrainingConfig(beta2=1.0),
        SplitConfig(train_frac=0.0),
        SplitConfig(train_frac=1.0),
        TrainingConfig(learning_rates=(0.01, 0.001, 0.01)),
    ],
)
def test_section_validation_rejects(section):
    with pytest.raises(ConfigError):
        section.validate()


def test_root_validation_rejects():
    with pytest.raises(ConfigError):
        PipelineConfig(version=2).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(classes=("A",)).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(classes=("A", "A")).validate()
    with pytest.raises(ConfigError):
        PipelineConfig(compose_mode="vote").validate()


def test_validate_recurses_into_sections():
    cfg = PipelineConfig(pca=PcaConfig(variance_threshold=2.0))
    with pytest.raises(ConfigError, match="variance_threshold"):
        cfg.validate()


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

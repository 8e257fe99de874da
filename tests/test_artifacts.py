"""The JSON codec: every fitted dataclass survives write_json, read_json and
from_json unchanged; read_json rejects numbers write_json cannot write, and
from_json what its fields' types do not allow."""

import dataclasses
import re

import numpy as np
import pytest

from mridecomp.artifacts import from_json, read_json, write_json
from mridecomp.classifier import ClassifierModel, init_model
from mridecomp.config import DecompositionConfig, PipelineConfig, TrainingConfig
from mridecomp.decomposition import LabelCodec
from mridecomp.errors import ParseError
from mridecomp.features import FeatureMatrix
from mridecomp.reduction import ScalerParams, fit_standardize, pca_fit

from oracles import same_bytes

CODEC = LabelCodec(classes=("AD", "CN", "MCI"), cluster_counts=(2, 1, 3))


def assert_same(got, want):
    """got equals want field by field, with bit-identical float64 arrays."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert same_bytes(got, want.astype(np.float64))
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, dict):
        assert got.keys() == want.keys()  # sorted in the file
        for key in want:
            assert_same(got[key], want[key])
    else:
        assert got == want


def round_trip(obj, tmp_path):
    path = tmp_path / "artifact.json"
    write_json(obj, path)
    return from_json(type(obj), read_json(path), "artifact")


def fitted_scaler_and_pca():
    rng = np.random.default_rng(5)
    X = FeatureMatrix(
        values=rng.normal(size=(12, 4)) * [1.0, 1e-3, 1e5, 3.0],
        labels=("A",) * 12,
        subject_ids=tuple(f"s{i}" for i in range(12)),
    )
    return fit_standardize(X), pca_fit(X, variance_threshold=0.99)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: fitted_scaler_and_pca()[0], id="ScalerParams"),
        pytest.param(lambda: fitted_scaler_and_pca()[1], id="PcaModel"),
        pytest.param(lambda: CODEC, id="LabelCodec"),
        pytest.param(lambda: init_model(3, CODEC, hidden_dim=0, seed=1), id="ClassifierModel"),
        pytest.param(lambda: init_model(3, CODEC, hidden_dim=4, seed=2), id="ClassifierModel-mlp"),
        pytest.param(lambda: PipelineConfig(), id="PipelineConfig"),
        pytest.param(
            lambda: PipelineConfig(
                seed=9,
                compose_mode="prob-sum",
                decomposition=DecompositionConfig(mode="elbow", k_min=1, k_max=5),
                training=TrainingConfig(learning_rates=(0.5, 1e-7), hidden_dim=8),
            ),
            id="PipelineConfig-elbow",
        ),
    ],
)
def test_round_trip_gives_an_equal_object(tmp_path, make):
    obj = make()
    assert_same(round_trip(obj, tmp_path), obj)


def test_round_trip_keeps_integer_arrays_as_float64(tmp_path):
    scaler = ScalerParams(means=np.arange(3, dtype=np.int64), stds=np.ones(3))
    got = round_trip(scaler, tmp_path)
    assert same_bytes(got.means, np.arange(3, dtype=np.float64))


def test_write_json_refuses_an_unknown_type(tmp_path):
    with pytest.raises(TypeError, match="set"):
        write_json({"x": {1, 2}}, tmp_path / "x.json")
    assert not (tmp_path / "x.json").exists()


_MODEL = {
    "input_dim": 1,
    "hidden_dim": 0,
    "output_dim": 2,
    "codec": {"classes": ["A"], "cluster_counts": [2]},
    "params": {"W": [[0.5, -0.5]], "b": [0.0, 0.0]},
}


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "model root must be a JSON object"),
        ({**_MODEL, "extra": 1}, r"unknown model key\(s\): \['extra'\]"),
        ({k: v for k, v in _MODEL.items() if k != "params"}, r"missing model key\(s\): \['params'\]"),
        ({**_MODEL, "input_dim": 1.0}, "input_dim must be an integer, got 1.0"),
        ({**_MODEL, "hidden_dim": True}, "hidden_dim must be an integer, got True"),
        ({**_MODEL, "codec": []}, "model section 'codec' must be a JSON object"),
        ({**_MODEL, "codec": {"classes": ["A"]}}, r"missing model key\(s\) in codec"),
        ({**_MODEL, "codec": {"classes": ["A", "B"], "cluster_counts": [2]}}, "malformed codec"),
        ({**_MODEL, "params": [1.0]}, "params must be a JSON object"),
        ({**_MODEL, "params": {"W": [[0.5], [1.0, 2.0]]}}, "params.W must be a rectangular array"),
        ({**_MODEL, "params": {"W": [["0.5"]]}}, "params.W must be a rectangular array"),
        ({**_MODEL, "params": {"W": [[True]]}}, "params.W must be a rectangular array"),
        ({**_MODEL, "params": {"W": [[None]]}}, "params.W must be a rectangular array"),
        ({**_MODEL, "params": {"W": 0.5}}, "params.W must be a rectangular array"),
        ({**_MODEL, "params": {"W": [10**400]}}, "params.W must be a rectangular array"),
        ({**_MODEL, "codec": {"classes": "AD", "cluster_counts": [1, 1]}}, "codec.classes must be a list"),
        (
            {**_MODEL, "codec": {"classes": ["A"], "cluster_counts": [2.7]}},
            r"codec.cluster_counts\[0\] must be an integer, got 2.7",
        ),
        (
            {**_MODEL, "codec": {"classes": ["A"], "cluster_counts": [2], "note": "x"}},
            r"unknown model key\(s\) in codec: \['note'\]",
        ),
    ],
)
def test_a_bad_model_document_is_a_parse_error_naming_the_key(document, message):
    with pytest.raises(ParseError, match=message):
        from_json(ClassifierModel, document, "model")


@pytest.mark.parametrize(
    "number, message",
    [
        ("NaN", "NaN is not a JSON number"),
        ("Infinity", "Infinity is not a JSON number"),
        ("-Infinity", "-Infinity is not a JSON number"),
        ("1e999", "number 1e999 overflows float64"),
        ("-1e999", "number -1e999 overflows float64"),
    ],
)
def test_read_json_refuses_a_number_write_json_cannot_write(tmp_path, number, message):
    path = tmp_path / "scaler.json"
    path.write_text(f'{{"means": [0.5], "stds": [{number}]}}')
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: invalid JSON: {message}"):
        read_json(path)

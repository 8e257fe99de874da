"""End-to-end pipeline runs: artifacts, determinism, leakage, reruns."""

import dataclasses
import hashlib
import itertools
import json
import logging
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mridecomp import cluster, decomposition, nifti, pipeline, pool
from mridecomp.classifier import model_to_json, train
from mridecomp.config import (
    DecompositionConfig,
    PipelineConfig,
    SliceSelectionConfig,
    TrainingConfig,
    config_from_dict,
)
from mridecomp.decomposition import LabelCodec
from mridecomp.errors import DegenerateInput, IoError, ParseError, ShapeMismatch, StageError
from mridecomp.evaluation import subject_split
from mridecomp.features import FeatureMatrix, OnnxBackend, RawPixelBackend, load_precomputed
from mridecomp.manifest import ManifestRow, read_manifest
from mridecomp.pipeline import run_pipeline, run_slices_stage
from mridecomp.synth import generate_dataset, write_nifti

from conftest import write_conv_style_model, write_sidecar
from oracles import kmeans_restarts_reference

EXPECTED_FILES = {
    "centroids.json",
    "codec.json",
    "config.json",
    "decomposition_report.csv",
    "entropies.csv",
    "features.csv",
    "losses.json",
    "manifest.csv",
    "metrics.json",
    "pca.json",
    "report.txt",
    "run_info.json",
    "scaler.json",
    "seeds.json",
    "split.json",
    "sublabeled_test.csv",
    "sublabeled_train.csv",
}

TRAIN_ARTIFACTS = ["scaler.json", "pca.json", "codec.json", "centroids.json", "losses.json"]

# what fit_and_evaluate writes, apart from models/cell-*.json
FIT_AND_EVALUATE_ARTIFACTS = [
    "split.json",
    *TRAIN_ARTIFACTS,
    "decomposition_report.csv",
    "sublabeled_train.csv",
    "sublabeled_test.csv",
    "seeds.json",
    "metrics.json",
    "report.txt",
]


def quick_config(**overrides) -> PipelineConfig:
    return PipelineConfig(
        training=TrainingConfig(learning_rates=(0.01,), epochs=40),
        **overrides,
    )


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("data")
    manifest_path, rows = generate_dataset(data_dir, subjects_per_class=4, nz=8, seed=0)
    return manifest_path, rows


# the slice-stage files of the default fixture (3 x 6 subjects, 24 x 24 x 30,
# seed 0, default config); no other OpenBLAS kernel, nor numpy without its
# AVX-512 loops, changed them, so every machine writes these bytes
PINNED_SLICE_STAGE_SHA256 = {
    "entropies.csv": "6577c6e682e8783f0d463efeafa4135a9d8e4f7fb3cd7bc645b8e57c9b0ef02d",
    "features.csv": "95375e06ffd3ba465391e20262ae2ab7f140698feef9843830ce528f3d463156",
}


def test_slice_stage_files_are_pinned(tmp_path):
    manifest_path, _ = generate_dataset(tmp_path / "data", subjects_per_class=6, nz=30, seed=0)
    pipeline.run_features(manifest_path, PipelineConfig(), tmp_path / "run")
    assert {
        name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
        for name in PINNED_SLICE_STAGE_SHA256
    } == PINNED_SLICE_STAGE_SHA256


def test_run_produces_expected_artifacts(dataset, tmp_path):
    manifest_path, _ = dataset
    run_dir = tmp_path / "run"
    result = run_pipeline(manifest_path, quick_config(), run_dir)

    found = {p.name for p in run_dir.iterdir() if p.is_file()}
    assert found == EXPECTED_FILES
    assert not (run_dir / "cache").exists()
    assert list((run_dir / "models").glob("cell-*.json"))

    assert result.run_dir == run_dir
    assert result.best_cell in result.cell_results
    assert 0.0 <= result.report.composed_accuracy <= 1.0

    report_text = (run_dir / "report.txt").read_text()
    assert "Accuracy (%)" in report_text


def test_split_respects_subject_level(dataset, tmp_path):
    manifest_path, rows = dataset
    run_pipeline(manifest_path, quick_config(), tmp_path / "run")
    split = json.loads((tmp_path / "run" / "split.json").read_text())
    assert set(split) == {"train", "test"}
    all_ids = {r.subject_id for r in rows}
    train = set(split["train"])
    test = set(split["test"])
    assert train | test == all_ids
    assert train & test == set()
    # default 0.8 split over 4 subjects/class: 3 train + 1 test each
    assert len(test) == 3 and len(train) == 9


@pytest.mark.parametrize("seed", [0, 3])
def test_test_subjects_are_the_seeded_subject_split(dataset, tmp_path, seed):
    manifest_path, rows = dataset
    cfg = dataclasses.replace(quick_config(), seed=seed)
    run_pipeline(manifest_path, cfg, tmp_path / "run")
    split = json.loads((tmp_path / "run" / "split.json").read_text())
    labels = {r.subject_id: r.label for r in rows}
    expected = subject_split(labels, cfg.split.train_frac, seed=pipeline.derive_seed(seed, 1))
    assert split["test"] == expected[1]
    assert split["train"] == expected[0]


def test_rerun_is_byte_identical(dataset, tmp_path):
    manifest_path, _ = dataset
    cfg = quick_config()
    run_pipeline(manifest_path, cfg, tmp_path / "a")
    run_pipeline(manifest_path, cfg, tmp_path / "b")
    for name in ["metrics.json", "seeds.json", *TRAIN_ARTIFACTS]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    models_a = sorted((tmp_path / "a" / "models").glob("*.json"))
    models_b = sorted((tmp_path / "b" / "models").glob("*.json"))
    assert [p.name for p in models_a] == [p.name for p in models_b]
    for pa, pb in zip(models_a, models_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_test_subjects_do_not_influence_training(tmp_path):
    """Replacing held-out volumes must leave every fitted artifact untouched."""
    data_dir = tmp_path / "data"
    manifest_path, rows = generate_dataset(data_dir, subjects_per_class=4, nz=8, seed=7)
    cfg = quick_config()

    run_pipeline(manifest_path, cfg, tmp_path / "before")
    split = json.loads((tmp_path / "before" / "split.json").read_text())
    test_ids = set(split["test"])
    assert test_ids

    rng = np.random.default_rng(99)
    by_id = {r.subject_id: r for r in rows}
    for sid in test_ids:
        path = by_id[sid].path
        noise = rng.uniform(0.0, 200.0, size=(24, 24, 8))
        write_nifti(path, noise)

    run_pipeline(manifest_path, cfg, tmp_path / "after")

    # sanity: the inputs really changed where it would show (slice entropies)
    assert (tmp_path / "before" / "entropies.csv").read_bytes() != (
        tmp_path / "after" / "entropies.csv"
    ).read_bytes()

    for name in ["split.json", "seeds.json", *TRAIN_ARTIFACTS]:
        assert (tmp_path / "before" / name).read_bytes() == (
            tmp_path / "after" / name
        ).read_bytes(), name
    for model_path in sorted((tmp_path / "before" / "models").glob("*.json")):
        twin = tmp_path / "after" / "models" / model_path.name
        assert model_path.read_bytes() == twin.read_bytes(), model_path.name


def test_every_run_decodes_each_volume_once(dataset, tmp_path, monkeypatch):
    """A rerun into a used run directory decodes every volume again, and
    neither run writes a cache/ directory."""
    manifest_path, rows = dataset
    reads = []
    real_read_nifti = pipeline.read_nifti

    def counting_read_nifti(path, subject_id):
        reads.append(subject_id)
        return real_read_nifti(path, subject_id=subject_id)

    monkeypatch.setattr(pipeline, "read_nifti", counting_read_nifti)
    run_dir = tmp_path / "run"
    for _ in range(2):
        reads.clear()
        run_pipeline(manifest_path, quick_config(), run_dir)
        assert sorted(reads) == sorted(r.subject_id for r in rows)
    assert not (run_dir / "cache").exists()


def test_slice_stage_logs_in_manifest_order(dataset, tmp_path, monkeypatch, caplog):
    """Workers finish out of order, yet each subject's warning or error is
    logged in manifest order, so stderr does not depend on the schedule."""
    manifest_path, _ = dataset
    rows = read_manifest(manifest_path)
    read = pipeline.read_nifti

    def slow_first_failing_last(path, subject_id):
        if subject_id == rows[0].subject_id:
            time.sleep(0.3)
        if subject_id == rows[-1].subject_id:
            raise IoError(f"cannot read {path}")
        return read(path, subject_id=subject_id)

    monkeypatch.setattr(pipeline, "read_nifti", slow_first_failing_last)
    monkeypatch.setattr(pool, "_available_cpus", lambda: 2)
    with caplog.at_level(logging.WARNING, logger="mridecomp.pipeline"):
        stage = run_slices_stage(rows, quick_config(), tmp_path, RawPixelBackend(side=4))
    assert stage.workers == 2
    expected = [f"subject {r.subject_id} has only 8 slices, below top_k=20" for r in rows[:-1]]
    expected.append(f"subject {rows[-1].subject_id} failed: cannot read {rows[-1].path}")
    assert [r.getMessage() for r in caplog.records if r.name == pipeline.__name__] == expected


def test_run_manifest_is_valid_from_any_directory(dataset, tmp_path, monkeypatch):
    """A manifest given by a cwd-relative path still yields a reusable run manifest."""
    manifest_path, rows = dataset
    monkeypatch.chdir(manifest_path.parent.parent)
    relative = Path(manifest_path.parent.name) / manifest_path.name
    run_pipeline(relative, quick_config(), tmp_path / "run")
    monkeypatch.chdir(tmp_path)
    copied = read_manifest(tmp_path / "run" / "manifest.csv")
    assert [r.subject_id for r in copied] == [r.subject_id for r in rows]
    assert all(r.path.is_file() for r in copied)


def _held_arrays(obj):
    """Every ndarray reachable from obj through dataclass fields, dicts and lists."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _held_arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _held_arrays(value)
    elif dataclasses.is_dataclass(obj):
        yield from _held_arrays(vars(obj))


def test_slice_stage_holds_feature_rows_not_pixels(dataset, tmp_path, monkeypatch):
    manifest_path, _ = dataset
    volumes = []

    def recording_read_nifti(*args, **kwargs):
        volumes.append(real_read_nifti(*args, **kwargs))
        return volumes[-1]

    real_read_nifti = pipeline.read_nifti
    monkeypatch.setattr(pipeline, "read_nifti", recording_read_nifti)
    rows = read_manifest(manifest_path)
    stage = run_slices_stage(rows, quick_config(), tmp_path, RawPixelBackend(side=4))
    assert len(volumes) == len(rows)
    for row in rows:
        assert stage.features[row.subject_id].shape == (len(stage.selected[row.subject_id]), 16)
    smallest_rows = min(f.nbytes for f in stage.features.values())
    for array in _held_arrays(stage):
        assert array.nbytes <= smallest_rows
        assert not any(np.shares_memory(array, v.voxels) for v in volumes)


def test_onnx_features_from_worker_pool_match_serial_extract(dataset, tmp_path, monkeypatch):
    manifest_path, _ = dataset
    model_path, _, _ = write_conv_style_model(tmp_path / "enc.onnx", side=6, channels=3, out_dim=5)
    write_sidecar(
        model_path, input_shape=[1, 3, 6, 6], mean=[90.0, 100.0, 110.0], std=[40.0, 50.0, 60.0]
    )
    backend = OnnxBackend(model_path)
    monkeypatch.setattr(pool, "_available_cpus", lambda: 2)
    rows = read_manifest(manifest_path)
    stage = run_slices_stage(rows, quick_config(), tmp_path / "out", backend)
    assert stage.workers == 2 and not stage.errors
    for row in rows:
        busy = dict.fromkeys(pipeline._BUSY_PARTS, 0.0)
        pixels, indices, _ = pipeline._select_for_subject(row, quick_config().slice_selection, busy)
        np.testing.assert_array_equal(indices, stage.selected[row.subject_id])
        serial = backend.extract(pixels)
        got = stage.features[row.subject_id]
        assert got.dtype == serial.dtype
        assert got.tobytes() == serial.tobytes()


class _FailsOnThirdSubject(RawPixelBackend):
    def __init__(self):
        super().__init__(side=4)
        self.calls = itertools.count()

    def extract(self, stack):
        if next(self.calls) == 2:
            raise ShapeMismatch("model returned 3 features, expected 16")
        return super().extract(stack)


def test_backend_error_fails_features_stage(dataset, tmp_path, monkeypatch):
    manifest_path, _ = dataset
    monkeypatch.setattr(pipeline, "build_backend", lambda cfg: _FailsOnThirdSubject())
    with pytest.raises(StageError) as excinfo:
        run_pipeline(manifest_path, quick_config(), tmp_path / "run")
    assert excinfo.value.stage == "features"
    assert isinstance(excinfo.value.cause, ShapeMismatch)
    assert str(excinfo.value) == "stage 'features' failed: model returned 3 features, expected 16"


def test_float64_volume_beyond_float64_span_is_ranked(tmp_path):
    """A slice whose max - min overflows float64 still scores a finite, positive entropy."""
    voxels = np.random.default_rng(5).uniform(0.0, 200.0, size=(24, 24, 6))
    voxels[0, 0, 2], voxels[23, 23, 2] = -1.7e308, 1.7e308
    write_nifti(tmp_path / "wide.nii", voxels, datatype_code=64)
    rows = [ManifestRow("wide", "CN", tmp_path / "wide.nii")]
    cfg = PipelineConfig(slice_selection=SliceSelectionConfig(top_k=3))
    stage = run_slices_stage(rows, cfg, tmp_path / "out", RawPixelBackend(side=4))
    assert not stage.errors
    assert 0.0 < stage.entropies["wide"][2] < 6.0
    assert np.isfinite(stage.features["wide"]).all()


def _artifacts(run_dir):
    return {
        p.relative_to(run_dir).as_posix(): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "run_info.json"
    }


def test_rerun_into_a_run_directory_matches_a_fresh_run(dataset, tmp_path):
    manifest_path, _ = dataset
    three_rates = PipelineConfig(training=TrainingConfig(learning_rates=(0.01, 0.001, 0.1), epochs=40))
    run_pipeline(manifest_path, three_rates, tmp_path / "rerun")
    assert (tmp_path / "rerun" / "models" / "cell-2.json").exists()
    run_pipeline(manifest_path, quick_config(), tmp_path / "rerun")
    run_pipeline(manifest_path, quick_config(), tmp_path / "fresh")
    assert _artifacts(tmp_path / "rerun") == _artifacts(tmp_path / "fresh")


@pytest.mark.skipif(nifti._LIBDEFLATE is None, reason="libdeflate is not installed")
def test_run_does_not_depend_on_the_gzip_engine(dataset, tmp_path, monkeypatch):
    """libdeflate and the zlib engine inflate the .nii.gz volumes to the same
    bytes, so the runs write the same artifacts."""
    manifest_path, rows = dataset
    n_gz = sum(str(r.path).endswith(".gz") for r in rows)
    assert n_gz > 0
    engines = []
    for engine in ("_libdeflate_one_member", "_zlib_one_member"):
        inflate = getattr(nifti, engine)

        def recording(raw, isize, inflate=inflate, engine=engine):
            engines.append(engine)
            return inflate(raw, isize)

        monkeypatch.setattr(nifti, engine, recording)
    run_pipeline(manifest_path, quick_config(), tmp_path / "libdeflate")
    assert engines == ["_libdeflate_one_member"] * n_gz
    engines.clear()
    monkeypatch.setattr(nifti, "_LIBDEFLATE", None)
    run_pipeline(manifest_path, quick_config(), tmp_path / "zlib")
    assert engines == ["_zlib_one_member"] * n_gz
    assert _artifacts(tmp_path / "libdeflate") == _artifacts(tmp_path / "zlib")


def test_elbow_run_matches_one_restart_at_a_time(dataset, tmp_path, monkeypatch):
    """The elbow / MLP / prob-sum run writes the same bytes when every
    k-means restart is a kmeans_reference fit, made one after another."""
    manifest_path, _ = dataset
    cfg = config_from_dict(
        {
            "compose_mode": "prob-sum",
            "decomposition": {"mode": "elbow", "k_min": 2, "k_max": 6},
            "training": {"hidden_dim": 32},
        }
    )
    run_pipeline(manifest_path, cfg, tmp_path / "lockstep")
    monkeypatch.setattr(cluster, "kmeans_restarts", kmeans_restarts_reference)
    monkeypatch.setattr(decomposition, "kmeans_restarts", kmeans_restarts_reference)
    run_pipeline(manifest_path, cfg, tmp_path / "one-at-a-time")
    assert _artifacts(tmp_path / "lockstep") == _artifacts(tmp_path / "one-at-a-time")


def test_outputs_do_not_depend_on_worker_count(dataset, tmp_path, monkeypatch):
    manifest_path, rows = dataset
    select = pipeline._select_for_subject
    runs, selections = {}, {}

    def recording_select(row, scfg, busy):
        pixels, indices, entropies = select(row, scfg, busy)
        selections[cpus][row.subject_id] = {
            "pixels": pixels,
            "indices": indices,
            "entropies": entropies,
        }
        return pixels, indices, entropies

    monkeypatch.setattr(pipeline, "_select_for_subject", recording_select)
    # elbow k-selection, an MLP head and prob-sum composition
    elbow = quick_config(
        compose_mode="prob-sum", decomposition=DecompositionConfig(mode="elbow", k_min=2, k_max=6)
    )
    elbow = dataclasses.replace(elbow, training=dataclasses.replace(elbow.training, hidden_dim=32))
    for tag, cfg in (("default", quick_config()), ("elbow", elbow)):
        for cpus in (1, 3):
            monkeypatch.setattr(pool, "_available_cpus", lambda: cpus)
            runs[cpus] = tmp_path / f"{tag}-cpus{cpus}"
            selections[cpus] = {}
            run_pipeline(manifest_path, cfg, runs[cpus])
            info = json.loads((runs[cpus] / "run_info.json").read_text())
            assert info["slice_workers"] == cpus
        assert _artifacts(runs[1]) == _artifacts(runs[3])
        for row in rows:
            a, b = selections[1][row.subject_id], selections[3][row.subject_id]
            assert a.keys() == b.keys()
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])
                assert a[name].dtype == b[name].dtype


def test_train_stage_writes_cells_in_order_until_one_is_not_finite(tmp_path):
    # the grid trains in lockstep; the stage then checks and writes cell by cell
    rng = np.random.default_rng(0)
    codec = LabelCodec(classes=("A", "B"), cluster_counts=(1, 1))
    X, y = rng.normal(size=(20, 3)), np.arange(20) % 2
    cfg = PipelineConfig(training=TrainingConfig(learning_rates=(0.01, 1e308), epochs=3))
    seeds = {"lr=0.01": 11, "lr=1e+308": 12}
    with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
        pipeline.run_train_stage(X, y, codec, cfg, seeds, tmp_path)
    assert str(err.value) == "cell lr=1e+308: train loss is first not finite at epoch 1"
    [solo] = train(X, y, codec, dataclasses.replace(cfg.training, learning_rates=(0.01,)), [11])
    model_to_json(solo.model, tmp_path / "solo.json")
    assert (tmp_path / "models" / "cell-0.json").read_bytes() == (tmp_path / "solo.json").read_bytes()
    assert not (tmp_path / "models" / "cell-1.json").exists()
    assert not (tmp_path / "losses.json").exists()


def test_run_info_records_stage_times_and_busy_seconds(dataset, tmp_path):
    manifest_path, _ = dataset
    run_dir = tmp_path / "run"
    for _ in range(2):  # the rerun into the same directory decodes and ranks again
        run_pipeline(manifest_path, quick_config(), run_dir)
        info = json.loads((run_dir / "run_info.json").read_text())
        stages = {"manifest", "slices", "features", "split", "decompose", "train", "evaluate"}
        assert set(info["stage_seconds"]) == stages
        assert all(t >= 0.0 for t in info["stage_seconds"].values())
        assert "slice_cache" not in info, info
        busy = info["slice_busy_seconds"]
        assert set(busy) == {"decode", "rank", "features"}, info
        assert busy["decode"] > 0.0 and busy["rank"] > 0.0 and busy["features"] > 0.0, info


def test_unexpected_subject_error_propagates(dataset, tmp_path, monkeypatch):
    manifest_path, _ = dataset
    rows = read_manifest(manifest_path)

    def broken_read_nifti(*args, **kwargs):
        raise RuntimeError("not a pipeline error")

    monkeypatch.setattr(pipeline, "read_nifti", broken_read_nifti)
    with pytest.raises(RuntimeError, match="not a pipeline error"):
        run_slices_stage(rows, quick_config(), tmp_path, RawPixelBackend(side=4))


def test_missing_manifest_fails_in_manifest_stage(tmp_path):
    # bad input passes the manifest stage unwrapped, so the CLI exits 1 on it
    with pytest.raises(ParseError) as excinfo:
        run_pipeline(tmp_path / "nope.csv", quick_config(), tmp_path / "run")
    assert str(excinfo.value) == f"{tmp_path / 'nope.csv'}: cannot read: No such file or directory"
    assert not (tmp_path / "run").exists()


def test_missing_volume_fails_in_slices_stage(dataset, tmp_path):
    manifest_path, rows = dataset
    broken = tmp_path / "broken.csv"
    lines = manifest_path.read_text().splitlines()
    lines[1] = lines[1].replace(rows[0].path.name, "missing.nii")
    broken.write_text("\n".join(lines) + "\n")
    with pytest.raises(StageError) as excinfo:
        run_pipeline(broken, quick_config(), tmp_path / "run")
    assert excinfo.value.stage == "slices"
    assert rows[0].subject_id in str(excinfo.value)


def test_seeds_recorded(dataset, tmp_path):
    """seeds.json holds every seed of the run, each derived from the base seed
    with its stage's tag; a tag is never renumbered, so these values are fixed."""
    manifest_path, _ = dataset
    cfg = PipelineConfig(seed=7, training=TrainingConfig(learning_rates=(0.01, 0.1), epochs=5))
    run_pipeline(manifest_path, cfg, tmp_path / "run")
    seeds = json.loads((tmp_path / "run" / "seeds.json").read_text())
    derive = pipeline.derive_seed
    assert seeds == {
        "base": 7,
        "split": derive(7, 1),
        "decompose": derive(7, 3),
        "train_cells": {"lr=0.01": derive(7, 4, 0), "lr=0.1": derive(7, 4, 1)},
    }


def test_fit_and_evaluate_reproduces_a_run_from_its_features_and_split(dataset, tmp_path):
    """Fed a finished run's features.csv and its split.json, fit_and_evaluate
    writes that run's artifacts byte for byte into a fresh directory and
    selects the same cell."""
    manifest_path, _ = dataset
    cfg = PipelineConfig(training=TrainingConfig(learning_rates=(0.01, 0.001, 0.1), epochs=40))
    run_dir, out_dir = tmp_path / "run", tmp_path / "refit"
    run = run_pipeline(manifest_path, cfg, run_dir)

    X = load_precomputed(run_dir / "features.csv")
    split = pipeline.read_split(run_dir / "split.json", X)
    out_dir.mkdir()
    result = pipeline.fit_and_evaluate(X, cfg, out_dir, split)

    assert result.best_cell == run.best_cell
    assert result.run_dir == out_dir
    models = [f"models/cell-{i}.json" for i in range(3)]
    written = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file())
    assert written == sorted(FIT_AND_EVALUATE_ARTIFACTS + models)
    for name in FIT_AND_EVALUATE_ARTIFACTS + models:
        assert (out_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_failed_evaluate_keeps_what_train_wrote(dataset, tmp_path, monkeypatch):
    """seeds.json, losses.json and the models are written in the train stage,
    before evaluate runs; metrics.json and report.txt only once it succeeds."""
    manifest_path, _ = dataset

    def failing_evaluate(*args, **kwargs):
        raise RuntimeError("evaluation failed")

    monkeypatch.setattr(pipeline, "evaluate", failing_evaluate)
    run_dir = tmp_path / "run"
    with pytest.raises(StageError) as excinfo:
        run_pipeline(manifest_path, quick_config(), run_dir)
    assert excinfo.value.stage == "evaluate"
    for name in ("seeds.json", "losses.json", "models/cell-0.json"):
        assert (run_dir / name).is_file(), name
    for name in ("metrics.json", "report.txt", "run_info.json"):
        assert not (run_dir / name).exists(), name


def test_empty_train_side_fails_decompose_as_an_empty_input(tmp_path):
    """A split with no train subject fails the decompose stage naming the
    empty input, before any numpy reduction warns about the missing rows."""
    X = FeatureMatrix(
        values=np.arange(12.0).reshape(6, 2),
        labels=("A",) * 3 + ("B",) * 3,
        subject_ids=tuple(f"s{i}" for i in range(6)),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(StageError) as excinfo:
            split = pipeline.SubjectSplit(train=(), test=X.subject_ids)
            pipeline.fit_and_evaluate(X, quick_config(), tmp_path, split)
    assert excinfo.value.stage == "decompose"
    assert isinstance(excinfo.value.cause, DegenerateInput)
    assert str(excinfo.value) == (
        "stage 'decompose' failed: cannot standardize an empty feature matrix"
    )
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert [p.name for p in tmp_path.iterdir()] == ["split.json"]


def test_metrics_shape(dataset, tmp_path):
    manifest_path, _ = dataset
    cfg = PipelineConfig(training=TrainingConfig(learning_rates=(0.01, 0.001), epochs=30))
    result = run_pipeline(manifest_path, cfg, tmp_path / "run")
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["selected_cell"] == result.best_cell
    assert set(metrics["cells"]) == {"lr=0.01", "lr=0.001"}
    for cell in metrics["cells"].values():
        assert "final_train_loss" in cell
        assert "accuracy" in cell["test"]["composed_metrics"]

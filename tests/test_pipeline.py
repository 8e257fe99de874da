"""End-to-end pipeline runs: artifacts, determinism, leakage, caching."""

import dataclasses
import io
import itertools
import json
import logging
import time
from pathlib import Path

import numpy as np
import pytest

from mridecomp import pipeline, pool
from mridecomp.config import PipelineConfig, SliceSelectionConfig, TrainingConfig
from mridecomp.errors import IoError, ParseError, ShapeMismatch, StageError
from mridecomp.evaluation import subject_split
from mridecomp.features import OnnxBackend, RawPixelBackend
from mridecomp.manifest import ManifestRow, read_manifest
from mridecomp.pipeline import run_pipeline, run_slices_stage
from mridecomp.synth import generate_dataset, write_nifti

from conftest import write_conv_style_model, write_sidecar

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


def test_run_produces_expected_artifacts(dataset, tmp_path):
    manifest_path, _ = dataset
    run_dir = tmp_path / "run"
    result = run_pipeline(manifest_path, quick_config(), run_dir)

    found = {p.name for p in run_dir.iterdir() if p.is_file()}
    assert found == EXPECTED_FILES
    assert (run_dir / "cache").is_dir()
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


def test_slice_cache_reused_and_force_recomputes(dataset, tmp_path):
    manifest_path, _ = dataset
    cfg = quick_config()
    run_dir = tmp_path / "run"
    run_pipeline(manifest_path, cfg, run_dir)
    cache_files = sorted((run_dir / "cache").glob("*.npz"))
    assert cache_files
    stamps = {p.name: p.stat().st_mtime_ns for p in cache_files}

    run_pipeline(manifest_path, cfg, run_dir)
    for p in sorted((run_dir / "cache").glob("*.npz")):
        assert p.stat().st_mtime_ns == stamps[p.name], f"{p.name} was recomputed"

    run_pipeline(manifest_path, cfg, run_dir, force=True)
    changed = [
        p.name
        for p in sorted((run_dir / "cache").glob("*.npz"))
        if p.stat().st_mtime_ns != stamps[p.name]
    ]
    assert changed == sorted(stamps)


def test_slice_cache_misses_after_volume_rewrite(dataset, tmp_path):
    _, rows = dataset
    copies = []
    for row in rows[:2]:
        copy = tmp_path / row.path.name
        copy.write_bytes(row.path.read_bytes())
        copies.append(ManifestRow(row.subject_id, row.label, copy))
    cfg = quick_config()
    run_slices_stage(copies, cfg, tmp_path / "reused")
    write_nifti(copies[0].path, np.random.default_rng(3).uniform(0.0, 200.0, size=(24, 24, 8)))
    for out in ("reused", "fresh"):
        run_slices_stage(copies, cfg, tmp_path / out)
    assert (tmp_path / "reused" / "entropies.csv").read_bytes() == (
        tmp_path / "fresh" / "entropies.csv"
    ).read_bytes()


def _npy_bytes() -> bytes:
    buf = io.BytesIO()
    np.save(buf, np.zeros(3))
    return buf.getvalue()


def _entry_without_all_indices(row, cfg) -> bytes:
    """A cache entry written under the row's own key but lacking an array."""
    buf = io.BytesIO()
    key = np.asarray(pipeline._cache_key(row, cfg))
    np.savez(buf, key=key, pixels=np.zeros((1, 2, 2)), indices=np.zeros(1, dtype=np.int64))
    return buf.getvalue()


@pytest.mark.parametrize(
    "payload",
    [
        b"garbage\n",
        b"PK\x03\x04truncated",
        pytest.param(_npy_bytes(), id="npy-array"),
        pytest.param(_entry_without_all_indices, id="missing-array"),
    ],
)
def test_unreadable_cache_entry_is_recomputed(dataset, tmp_path, payload, caplog):
    manifest_path, _ = dataset
    rows = read_manifest(manifest_path)[:1]
    fresh = run_slices_stage(rows, quick_config(), tmp_path / "fresh")
    if callable(payload):
        payload = payload(rows[0], quick_config())
    entry = tmp_path / "reused" / "cache" / f"{rows[0].subject_id}.npz"
    entry.parent.mkdir(parents=True)
    entry.write_bytes(payload)
    with caplog.at_level(logging.WARNING, logger=pipeline.__name__):
        reused = run_slices_stage(rows, quick_config(), tmp_path / "reused")
    assert not reused.errors
    assert reused.ranked_all == fresh.ranked_all
    assert (reused.cache_hits, reused.cache_misses) == (0, 1)
    assert f"cache entry {entry} is unreadable; recomputing it" in caplog.messages


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
        assert run_slices_stage(rows, quick_config(), tmp_path).workers == 2
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
        with np.load(tmp_path / "out" / "cache" / f"{row.subject_id}.npz") as entry:
            np.testing.assert_array_equal(entry["indices"], stage.selected[row.subject_id])
            serial = backend.extract(entry["pixels"])
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
    entropy = {r.slice_index: r.entropy for r in stage.ranked_all["wide"]}
    assert 0.0 < entropy[2] < 6.0
    assert np.isfinite(stage.features["wide"]).all()


def _artifacts(run_dir):
    return {
        p.relative_to(run_dir).as_posix(): p.read_bytes()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file() and p.name != "run_info.json" and p.parent.name != "cache"
    }


def test_rerun_into_a_run_directory_matches_a_fresh_run(dataset, tmp_path):
    manifest_path, _ = dataset
    three_rates = PipelineConfig(training=TrainingConfig(learning_rates=(0.01, 0.001, 0.1), epochs=40))
    run_pipeline(manifest_path, three_rates, tmp_path / "rerun")
    assert (tmp_path / "rerun" / "models" / "cell-2.json").exists()
    run_pipeline(manifest_path, quick_config(), tmp_path / "rerun")
    run_pipeline(manifest_path, quick_config(), tmp_path / "fresh")
    assert _artifacts(tmp_path / "rerun") == _artifacts(tmp_path / "fresh")


def test_outputs_do_not_depend_on_worker_count(dataset, tmp_path, monkeypatch):
    manifest_path, rows = dataset
    runs = {}
    for cpus in (1, 3):
        monkeypatch.setattr(pool, "_available_cpus", lambda: cpus)
        runs[cpus] = tmp_path / f"cpus{cpus}"
        run_pipeline(manifest_path, quick_config(), runs[cpus])
        info = json.loads((runs[cpus] / "run_info.json").read_text())
        assert info["slice_workers"] == cpus
    assert _artifacts(runs[1]) == _artifacts(runs[3])
    for row in rows:
        with np.load(runs[1] / "cache" / f"{row.subject_id}.npz") as a, np.load(
            runs[3] / "cache" / f"{row.subject_id}.npz"
        ) as b:
            assert a.files == b.files
            for name in a.files:
                if name != "key":  # the key holds the resolved volume path only
                    np.testing.assert_array_equal(a[name], b[name])
                    assert a[name].dtype == b[name].dtype


def test_run_info_records_stage_times_and_cache_use(dataset, tmp_path):
    manifest_path, rows = dataset
    run_dir = tmp_path / "run"
    for expected_hits in (0, len(rows)):
        run_pipeline(manifest_path, quick_config(), run_dir)
        info = json.loads((run_dir / "run_info.json").read_text())
        stages = {"manifest", "slices", "features", "split", "decompose", "train", "evaluate"}
        assert set(info["stage_seconds"]) == stages
        assert all(t >= 0.0 for t in info["stage_seconds"].values())
        misses = len(rows) - expected_hits
        assert info["slice_cache"] == {"hits": expected_hits, "misses": misses}, info
        busy = info["slice_busy_seconds"]
        assert set(busy) == {"decode", "rank", "features"}, info
        assert busy["decode"] > 0.0 and busy["features"] > 0.0, info
        assert (busy["rank"] > 0.0) == (misses > 0), info


def test_unexpected_subject_error_propagates(dataset, tmp_path, monkeypatch):
    manifest_path, _ = dataset

    def broken_read_nifti(*args, **kwargs):
        raise RuntimeError("not a pipeline error")

    monkeypatch.setattr(pipeline, "read_nifti", broken_read_nifti)
    with pytest.raises(RuntimeError, match="not a pipeline error"):
        run_slices_stage(read_manifest(manifest_path), quick_config(), tmp_path)


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
    manifest_path, _ = dataset
    run_pipeline(manifest_path, quick_config(), tmp_path / "run")
    seeds = json.loads((tmp_path / "run" / "seeds.json").read_text())
    assert set(seeds) == {"base", "split", "decompose", "train_cells"}
    assert set(seeds["train_cells"]) == {"lr=0.01"}


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

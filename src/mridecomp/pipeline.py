"""End-to-end pipeline: manifest -> slices -> features -> split -> scaler/PCA
-> class decomposition -> training grid -> evaluation, with every artifact
written into the run directory as plain CSV/JSON.

Leakage policy: the scaler, PCA, per-class clustering and classifiers are
fit on training subjects only. Test subjects receive sublabels by nearest
class-consistent centroid. Hyperparameter cells are ranked by final
training loss.

The decompose and train subcommands call the same stage functions
(run_decompose_stage, run_train_stage) with the same derived seeds, so a
standalone chain fed the train rows reproduces a pipeline run.
"""

from __future__ import annotations

import json
import logging
import time
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, pool
from .artifacts import write_json, write_table
from .classifier import TrainResult, model_to_json, train
from .config import PipelineConfig, SliceSelectionConfig
from .decomposition import (
    DecomposedDataset,
    LabelCodec,
    assign_sublabels,
    decompose,
    write_report_csv,
)
from .entropy import RankedSlice, rank_slices, select_top_k
from .errors import BAD_INPUT, IoError, PipelineError, StageError
from .evaluation import EvalReport, evaluate, render_metrics_table, subject_split
from .features import (
    FeatureBackend,
    FeatureMatrix,
    OnnxBackend,
    RawPixelBackend,
    save_features,
)
from .manifest import ManifestRow, read_manifest, write_manifest
from .nifti import extract_axial_slices, read_nifti
from .reduction import apply_standardize, fit_standardize, pca_fit, pca_transform

logger = logging.getLogger(__name__)


def derive_seed(base: int, *tags: int) -> int:
    """Stable named sub-seed so independent stages never share streams."""
    return int(np.random.SeedSequence([base, *tags]).generate_state(1, np.uint64)[0])


# tags for derive_seed, recorded in seeds.json; 2 is unused, and no tag is
# renumbered, since a tag's value fixes its stage's stream
_TAG_SPLIT = 1
_TAG_DECOMPOSE = 3
_TAG_TRAIN = 4


@contextmanager
def stage(name: str, seconds: dict[str, float] | None = None):
    """Run a block as stage name: BAD_INPUT and StageError pass through, any other
    exception becomes StageError(name, cause); its wall time adds to seconds[name]."""
    logger.info("stage %s", name)
    t0 = time.perf_counter()
    try:
        yield
    except (*BAD_INPUT, StageError):
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc
    if seconds is not None:
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0


_BUSY_PARTS = ("decode", "rank", "features")  # parts of the slice stage's busy time


@dataclass
class SliceStage:
    """What the slice stage keeps of each subject: the selected slice indices
    and, when it ran a feature backend, their feature rows; never the pixels."""

    selected: dict[str, np.ndarray]  # selected slice indices, in volume order
    features: dict[str, np.ndarray]  # one feature row per selected slice, same order
    ranked_all: dict[str, list[RankedSlice]]
    errors: dict[str, str]
    workers: int = 1  # threads the stage ran subjects on
    cache_hits: int = 0  # subjects read from their cache entry
    cache_misses: int = 0  # subjects computed and written to the cache
    # per-subject seconds in each _BUSY_PARTS part, summed over workers
    busy_seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(_BUSY_PARTS, 0.0))


def _cache_path(cache_dir: Path, subject_id: str) -> Path:
    return cache_dir / f"{subject_id}.npz"


def _cache_key(row: ManifestRow, cfg: PipelineConfig) -> str:
    """Everything a cache entry depends on: slice settings, package version and
    the volume's identity. The volume is identified by resolved path, size and
    mtime, not by a digest of its bytes, which would read every volume twice.
    """
    path = row.path.resolve()
    try:
        st = path.stat()
    except OSError as exc:
        raise IoError(f"cannot read {row.path}: {exc}") from exc
    return json.dumps(
        {
            "slice_selection": asdict(cfg.slice_selection),
            "version": __version__,
            "path": str(path),
            "size": st.st_size,
            "mtime_ns": st.st_mtime_ns,
        },
        sort_keys=True,
    )


def _read_cache(cache_file: Path, key: str, subject_id: str):
    """(pixels, indices, ranked) from a readable cache entry written under the
    same key; None if there is no such entry, False if it is unreadable."""
    if not cache_file.exists():
        return None
    try:
        # np.load leaves a file it opened itself open when it raises
        with open(cache_file, "rb") as fh:
            npz = np.load(fh)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy entry
                raise ValueError("not an .npz archive")
            with npz:
                if "key" not in npz.files or str(npz["key"]) != key:
                    return None
                pixels = npz["pixels"]
                indices = npz["indices"]
                all_indices = npz["all_indices"]
                all_entropies = npz["all_entropies"]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):  # KeyError: an array is missing
        return False
    ranked = [
        RankedSlice(subject_id=subject_id, slice_index=int(i), entropy=float(h))
        for i, h in zip(all_indices, all_entropies)
    ]
    return pixels, indices, ranked


def _select_for_subject(row: ManifestRow, scfg: SliceSelectionConfig, busy: dict[str, float]):
    """(pixels, indices, ranked): the selected slices stacked in volume order
    and the ranking of every slice; adds the decode and rank seconds to busy."""
    t0 = time.perf_counter()
    volume = read_nifti(row.path, subject_id=row.subject_id)
    slices = extract_axial_slices(volume)
    t1 = time.perf_counter()
    ranked = rank_slices(slices, scfg)
    chosen_idx = {r.slice_index for r in select_top_k(ranked, min(scfg.top_k, len(ranked)))}
    chosen = [s for s in slices if s.slice_index in chosen_idx]
    # one stacked copy in the stored dtype, so the volume is freed on return;
    # the feature backends promote only what they resample to float64
    pixels = np.stack([s.pixels for s in chosen])
    indices = np.asarray([s.slice_index for s in chosen], dtype=np.int64)
    busy["decode"] += t1 - t0
    busy["rank"] += time.perf_counter() - t1
    return pixels, indices, ranked


def _slices_for_subject(
    row: ManifestRow, cfg: PipelineConfig, cache_dir: Path, force: bool, busy: dict[str, float]
):
    """(pixels, indices, ranked, cache) for one subject, from its cache entry
    when that was written under the same key ("hit"), else computed and
    written ("miss", or "unreadable" if the entry there could not be read).
    Reading the entry counts as decode time in busy."""
    cache_file = _cache_path(cache_dir, row.subject_id)
    key = _cache_key(row, cfg)
    t0 = time.perf_counter()
    cached = None if force else _read_cache(cache_file, key, row.subject_id)
    if cached:
        busy["decode"] += time.perf_counter() - t0
        return (*cached, "hit")
    pixels, indices, ranked = _select_for_subject(row, cfg.slice_selection, busy)
    np.savez(
        cache_file,
        key=np.asarray(key),
        pixels=pixels,
        indices=indices,
        all_indices=np.asarray([r.slice_index for r in ranked], dtype=np.int64),
        all_entropies=np.asarray([r.entropy for r in ranked], dtype=np.float64),
    )
    return pixels, indices, ranked, "miss" if cached is None else "unreadable"


def run_slices_stage(
    rows: list[ManifestRow],
    cfg: PipelineConfig,
    out_dir: Path,
    backend: FeatureBackend | None = None,
    force: bool = False,
) -> SliceStage:
    """Rank and cache informative slices per subject, and turn each subject's
    selected slices into feature rows with backend; subject errors are isolated.

    Subjects run on pool.map_in_order, one worker per available CPU (decode,
    inflate and the numpy kernels release the GIL), so backend.extract is
    called from several threads at once, once per subject. Each worker keeps
    only the selected slice indices and their feature rows (none without a
    backend); the pixels go to the cache entry and are dropped. Results are
    merged in manifest order, so the outcome does not depend on the worker
    count. A PipelineError or OSError while decoding or ranking, and feature
    rows that are not all finite, become errors[subject_id]; any exception
    from the backend raises StageError("features"), and any other exception
    propagates. Each subject's warnings and error are logged in the merge,
    not by the workers, so the log is in manifest order too. A cache entry
    is reused only when it was computed under the same key (see
    _cache_key); force recomputes every entry.

    Writes entropies.csv (subject_id,slice_index,entropy,selected: every
    ranked slice of every subject that did not fail) into out_dir.
    """
    cache_dir = out_dir / "cache"
    cache_dir.mkdir(parents=True, exist_ok=True)

    def attempt(row: ManifestRow):
        busy = dict.fromkeys(_BUSY_PARTS, 0.0)
        try:
            pixels, indices, ranked, cache = _slices_for_subject(row, cfg, cache_dir, force, busy)
        except (PipelineError, OSError) as exc:
            return None, str(exc), busy
        features = None
        if backend is not None:
            t0 = time.perf_counter()
            try:
                features = backend.extract(pixels)
            except Exception as exc:
                # a backend fault fails the run's features stage, not one subject
                raise StageError("features", exc) from exc
            busy["features"] += time.perf_counter() - t0
            if not np.isfinite(features).all():
                # finite voxels can still resample to inf or nan (spans beyond float64)
                return None, f"{row.path}: feature rows are not finite", busy
        return (indices, features, ranked, cache), None, busy

    outcomes, workers = pool.map_in_order(attempt, rows)

    stage = SliceStage(selected={}, features={}, ranked_all={}, errors={}, workers=workers)
    top_k = cfg.slice_selection.top_k
    for row, (done, error, busy) in zip(rows, outcomes):
        sid = row.subject_id
        for part, seconds in busy.items():
            stage.busy_seconds[part] += seconds
        if error is not None:
            logger.error("subject %s failed: %s", sid, error)
            stage.errors[sid] = error
            continue
        stage.selected[sid], features, ranked, cache = done
        stage.ranked_all[sid] = ranked
        if cache == "unreadable":
            path = _cache_path(cache_dir, sid)
            logger.warning("cache entry %s is unreadable; recomputing it", path)
        if len(ranked) < top_k:
            logger.warning("subject %s has only %d slices, below top_k=%d", sid, len(ranked), top_k)
        if features is not None:
            stage.features[sid] = features
        if cache == "hit":
            stage.cache_hits += 1
        else:
            stage.cache_misses += 1

    def entropy_rows():
        for subject_id in sorted(stage.ranked_all):
            chosen = set(stage.selected[subject_id].tolist())
            for r in sorted(stage.ranked_all[subject_id], key=lambda r: r.slice_index):
                yield [subject_id, r.slice_index, r.entropy, int(r.slice_index in chosen)]

    header = ["subject_id", "slice_index", "entropy", "selected"]
    write_table(out_dir / "entropies.csv", header, entropy_rows())
    return stage


def build_backend(cfg: PipelineConfig) -> FeatureBackend:
    if cfg.features.backend == "raw":
        return RawPixelBackend(side=cfg.features.side)
    return OnnxBackend(cfg.features.model_path, cfg.features.sidecar_path)


def extract_feature_matrix(rows: list[ManifestRow], stage: SliceStage) -> FeatureMatrix:
    """The feature rows the slice stage extracted, subjects in row order."""
    values = []
    labels = []
    subject_ids = []
    for row in rows:
        n_selected = len(stage.selected[row.subject_id])
        values.append(stage.features[row.subject_id])
        labels += [row.label] * n_selected
        subject_ids += [row.subject_id] * n_selected
    return FeatureMatrix(
        values=np.concatenate(values).astype(np.float64, order="C", copy=False),
        labels=tuple(labels),
        subject_ids=tuple(subject_ids),
    )


def _subject_mask(X: FeatureMatrix, subjects: set[str]) -> np.ndarray:
    return np.asarray([sid in subjects for sid in X.subject_ids], dtype=bool)


@dataclass
class DecomposeStage:
    reduced: FeatureMatrix  # every input row, standardized and projected
    decomposed: DecomposedDataset  # the fit rows with their sublabels
    seed: int


def run_decompose_stage(
    X: FeatureMatrix, fit_rows: np.ndarray, cfg: PipelineConfig, out_dir: Path
) -> DecomposeStage:
    """Fit the scaler, PCA and per-class k-means on X's fit_rows (a boolean
    mask) and project every row.

    Writes scaler.json, pca.json, codec.json, centroids.json and
    decomposition_report.csv into out_dir; the projected rows are returned,
    not written.
    """
    scaler = fit_standardize(X.rows(fit_rows))
    write_json(scaler, out_dir / "scaler.json")
    X_scaled = apply_standardize(X, scaler)
    pca = pca_fit(X_scaled.rows(fit_rows), cfg.pca.variance_threshold)
    write_json(pca, out_dir / "pca.json")
    reduced = pca_transform(X_scaled, pca)

    dcfg = cfg.decomposition
    seed = derive_seed(cfg.seed, _TAG_DECOMPOSE)
    ds = decompose(
        reduced.rows(fit_rows),
        k=dcfg.k,
        elbow_range=(dcfg.k_min, dcfg.k_max) if dcfg.mode == "elbow" else None,
        seed=seed,
        n_init=dcfg.n_init,
    )
    write_json(ds.codec, out_dir / "codec.json")
    write_json(ds.centroids, out_dir / "centroids.json")
    write_report_csv(ds, out_dir / "decomposition_report.csv")
    return DecomposeStage(reduced=reduced, decomposed=ds, seed=seed)


@dataclass
class TrainStage:
    results: dict[str, TrainResult]
    seeds: dict[str, int]
    best_cell: str


def run_train_stage(
    X: np.ndarray,
    y: np.ndarray,
    codec: LabelCodec,
    cfg: PipelineConfig,
    out_dir: Path,
) -> TrainStage:
    """Train one model per learning rate on sublabels y; the best cell has
    the lowest final training loss. A training loss that is not finite
    raises ValueError naming the cell and the epoch, so no JSON artifact is
    written with it.

    Writes models/cell-<i>.json and losses.json into out_dir, and removes any
    other models/cell-*.json, such as one a larger grid left there.
    """
    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    cells = {f"cell-{i}.json" for i in range(len(cfg.training.learning_rates))}
    for stale in models_dir.glob("cell-*.json"):
        if stale.name not in cells:
            stale.unlink()
    results: dict[str, TrainResult] = {}
    seeds: dict[str, int] = {}
    losses = {}
    for i, lr in enumerate(cfg.training.learning_rates):
        cell = f"lr={lr!r}"
        seeds[cell] = derive_seed(cfg.seed, _TAG_TRAIN, i)
        tcfg = cfg.training.train_config(lr, seeds[cell])
        result = train(X, y, codec, tcfg)
        finite = np.isfinite(result.epoch_losses)
        if not finite.all():
            epoch = int(np.argmin(finite))
            raise ValueError(f"cell {cell}: train loss is first not finite at epoch {epoch}")
        results[cell] = result
        model_to_json(result.model, models_dir / f"cell-{i}.json")
        losses[cell] = {"train": result.epoch_losses}
    write_json(losses, out_dir / "losses.json")
    best_cell = min(results, key=lambda c: results[c].final_loss)
    return TrainStage(results=results, seeds=seeds, best_cell=best_cell)


@dataclass
class RunResult:
    run_dir: Path
    report: EvalReport
    best_cell: str
    cell_results: dict[str, TrainResult]


def run_pipeline(
    manifest_path,
    cfg: PipelineConfig,
    run_dir,
    force: bool = False,
) -> RunResult:
    """Execute every stage under stage(): bad input, such as an unreadable
    manifest, raises as it is; any other failure as StageError(stage, cause).

    Nothing is written until the manifest has been read; after that, partial
    outputs are retained in the run directory for debugging.
    """
    started = time.time()
    run_dir = Path(run_dir)

    seeds = {"base": cfg.seed, "split": derive_seed(cfg.seed, _TAG_SPLIT)}

    stage_seconds: dict[str, float] = {}
    with stage("manifest", stage_seconds):
        rows = read_manifest(manifest_path, allowed_labels=cfg.classes)
        run_dir.mkdir(parents=True, exist_ok=True)
        write_json(cfg, run_dir / "config.json")
        write_manifest(rows, run_dir / "manifest.csv")

    # the slice stage extracts each subject's features as soon as its slices
    # are selected; loading the backend, and any fault of it, belong to "features"
    with stage("features", stage_seconds):
        backend = build_backend(cfg)

    with stage("slices", stage_seconds):
        slice_stage = run_slices_stage(rows, cfg, run_dir, backend, force=force)
        if slice_stage.errors:
            failed = ", ".join(sorted(slice_stage.errors))
            raise ValueError(f"subjects failed slice selection or feature extraction: {failed}")

    with stage("features", stage_seconds):
        X = extract_feature_matrix(rows, slice_stage)
        save_features(X, run_dir / "features.csv")

    with stage("split", stage_seconds):
        subject_labels = {row.subject_id: row.label for row in rows}
        train_subjects, test_subjects = subject_split(
            subject_labels, cfg.split.train_frac, seed=seeds["split"]
        )
        write_json({"train": train_subjects, "test": test_subjects}, run_dir / "split.json")
        train_mask = _subject_mask(X, set(train_subjects))
        test_mask = _subject_mask(X, set(test_subjects))

    with stage("decompose", stage_seconds):
        dec = run_decompose_stage(X, train_mask, cfg, run_dir)
        ds = dec.decomposed
        R_train = ds.features
        R_test = dec.reduced.rows(test_mask)
        save_features(ds.codec.relabel(R_train, ds.sublabels), run_dir / "sublabeled_train.csv")
        y_test = assign_sublabels(R_test, ds.codec, ds.centroids)
        if R_test.n > 0:
            save_features(ds.codec.relabel(R_test, y_test), run_dir / "sublabeled_test.csv")

    with stage("train", stage_seconds):
        grid = run_train_stage(R_train.values, ds.sublabels, ds.codec, cfg, run_dir)
        cell_results, best_cell = grid.results, grid.best_cell
        seeds.update(decompose=dec.seed, train_cells=grid.seeds)
        write_json(seeds, run_dir / "seeds.json")

    with stage("evaluate", stage_seconds):
        if R_test.n == 0:
            raise ValueError("test set is empty after the subject split")
        cell_reports: dict[str, EvalReport] = {}
        for cell, result in cell_results.items():
            cell_reports[cell] = evaluate(result.model, R_test.values, y_test, cfg.compose_mode)
        report = cell_reports[best_cell]

        metrics = {
            "selected_cell": best_cell,
            "selection_rule": "lowest final training loss",
            "cells": {
                cell: {
                    "final_train_loss": cell_results[cell].final_loss,
                    "test": cell_reports[cell],
                }
                for cell in cell_results
            },
        }
        write_json(metrics, run_dir / "metrics.json")

        marked = {c + (" *" if c == best_cell else ""): r for c, r in cell_reports.items()}
        lines = [
            "Composed-class test metrics per hyperparameter cell",
            "(* = selected by lowest final training loss)",
            "",
            render_metrics_table(marked),
            "",
            f"Selected cell: {best_cell}",
            f"Test subjects: {len(test_subjects)}; test slices: {R_test.n}",
            "",
            "Composed confusion matrix (rows true, columns predicted):",
            "  classes: " + ", ".join(report.classes),
        ]
        for row in report.composed_confusion.tolist():
            lines.append("  " + " ".join(f"{v:5d}" for v in row))
        lines.append("")
        lines.append("Subclass confusion matrix (rows true, columns predicted):")
        lines.append("  subclasses: " + ", ".join(report.subclass_names))
        for row in report.sub_confusion.tolist():
            lines.append("  " + " ".join(f"{v:5d}" for v in row))
        (run_dir / "report.txt").write_text("\n".join(lines) + "\n")

    run_info = {
        "package_version": __version__,
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "n_subjects": len(rows),
        "n_slices": X.n,
        "reduced_dim": R_train.m,
        "stage_seconds": stage_seconds,
        "slice_workers": slice_stage.workers,
        "slice_busy_seconds": slice_stage.busy_seconds,
        "slice_cache": {"hits": slice_stage.cache_hits, "misses": slice_stage.cache_misses},
    }
    write_json(run_info, run_dir / "run_info.json")

    return RunResult(
        run_dir=run_dir, report=report, best_cell=best_cell, cell_results=cell_results
    )

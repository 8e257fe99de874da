"""End-to-end pipeline: run_pipeline goes run_features (manifest -> slices
-> features) -> split -> fit_and_evaluate (scaler/PCA -> decomposition ->
training grid -> evaluation), writing every artifact into the run directory
as plain CSV/JSON. Nothing is kept between runs: each run decodes every
volume and scores its slices (entropy.rank_slices, then select_top_k), so a
rerun into a used run directory computes what a fresh run does. No mode is
chosen here: each stage hands its config section to the function that owns it.

Leakage policy: the scaler, PCA, per-class clustering and classifiers are
fit on training subjects only. Test subjects receive sublabels by nearest
class-consistent centroid. Hyperparameter cells are ranked by final
training loss.

The features subcommand is run_features, and fit is fit_and_evaluate, which
splits and derives every seed itself, on a features.csv: fed a run's
features.csv (and its split.json, or none), fit reproduces that run's
fitted artifacts, and features then fit write what run_pipeline does.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, pool
from .artifacts import read_json_as, write_json, write_table
from .classifier import TrainResult, model_to_json, train
from .config import PipelineConfig
from .decomposition import (
    DecomposedDataset,
    LabelCodec,
    assign_sublabels,
    decompose,
    write_report_csv,
)
from .entropy import SliceSelectionConfig, rank_slices, select_top_k
from .errors import BAD_INPUT, ParseError, PipelineError, StageError
from .evaluation import EvalReport, evaluate, render_metrics_table, subject_split
from .features import FeatureBackend, FeatureMatrix, build_backend, save_features
from .manifest import ManifestRow, read_manifest, write_manifest
from .nifti import read_nifti
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
    and their feature rows; never the pixels."""

    selected: dict[str, np.ndarray]  # selected slice indices, in volume order
    features: dict[str, np.ndarray]  # one feature row per selected slice, same order
    entropies: dict[str, np.ndarray]  # every slice's entropy, in volume order
    errors: dict[str, str]
    workers: int = 1  # threads the stage ran subjects on
    # per-subject seconds in each _BUSY_PARTS part, summed over workers
    busy_seconds: dict[str, float] = field(default_factory=lambda: dict.fromkeys(_BUSY_PARTS, 0.0))


def _select_for_subject(row: ManifestRow, scfg: SliceSelectionConfig, busy: dict[str, float]):
    """(pixels, indices, entropies): the selected slices in volume order, their
    indices and every slice's entropy; adds decode and rank seconds to busy."""
    t0 = time.perf_counter()
    volume = read_nifti(row.path, subject_id=row.subject_id)
    t1 = time.perf_counter()
    entropies = rank_slices(volume, scfg)
    indices = select_top_k(entropies, scfg.top_k)
    # one (k, nx, ny) copy in the stored dtype, so the volume is freed on return;
    # the feature backends promote only what they resample to float64. Indexing,
    # not take, which first copies the whole volume to C order
    pixels = volume.voxels.transpose(2, 0, 1)[indices]
    busy["decode"] += t1 - t0
    busy["rank"] += time.perf_counter() - t1
    return pixels, indices, entropies


def run_slices_stage(
    rows: list[ManifestRow],
    cfg: PipelineConfig,
    out_dir: Path,
    backend: FeatureBackend,
) -> SliceStage:
    """Rank informative slices per subject, and turn each subject's selected
    slices into feature rows with backend; subject errors are isolated.

    Subjects run on pool.map_in_order: the calling thread plus one thread per
    further available CPU (inflate and most of ranking run without the GIL).
    The caller takes a share so that the volumes it decodes are freed into
    the main malloc arena, which the later stages reuse, not into a pool
    thread's, which glibc keeps per thread. backend.extract is called from
    several threads at once, once per subject. Every run decodes and ranks
    each subject's volume once. Each worker keeps only the selected
    slice indices and their feature rows; the pixels are dropped. Results
    are merged in manifest order, so the outcome does not depend on the
    worker count. A PipelineError or OSError while decoding
    or ranking, and feature rows that are not all finite, become
    errors[subject_id]; any exception from the backend raises
    StageError("features"), and any other exception propagates. Each
    subject's warnings and error are logged in the merge, not by the
    workers, so the log is in manifest order too.

    Writes entropies.csv (subject_id,slice_index,entropy,selected: every
    slice of every subject that did not fail) into out_dir, and nothing
    else.
    """
    out_dir.mkdir(parents=True, exist_ok=True)

    def attempt(row: ManifestRow):
        busy = dict.fromkeys(_BUSY_PARTS, 0.0)
        try:
            pixels, indices, entropies = _select_for_subject(row, cfg.slice_selection, busy)
        except (PipelineError, OSError) as exc:
            return None, str(exc), busy
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
        return (indices, features, entropies), None, busy

    outcomes, workers = pool.map_in_order(attempt, rows)

    stage = SliceStage(selected={}, features={}, entropies={}, errors={}, workers=workers)
    top_k = cfg.slice_selection.top_k
    for row, (done, error, busy) in zip(rows, outcomes):
        sid = row.subject_id
        for part, seconds in busy.items():
            stage.busy_seconds[part] += seconds
        if error is not None:
            logger.error("subject %s failed: %s", sid, error)
            stage.errors[sid] = error
            continue
        stage.selected[sid], stage.features[sid], stage.entropies[sid] = done
        nz = len(stage.entropies[sid])
        if nz < top_k:
            logger.warning("subject %s has only %d slices, below top_k=%d", sid, nz, top_k)

    def entropy_rows():
        for subject_id in sorted(stage.entropies):
            chosen = set(stage.selected[subject_id].tolist())
            for i, h in enumerate(stage.entropies[subject_id].tolist()):
                yield [subject_id, i, h, int(i in chosen)]

    header = ["subject_id", "slice_index", "entropy", "selected"]
    write_table(out_dir / "entropies.csv", header, entropy_rows())
    return stage


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


@dataclass
class DecomposeStage:
    reduced: FeatureMatrix  # every input row, standardized and projected
    decomposed: DecomposedDataset  # the fit rows with their sublabels


def run_decompose_stage(
    X: FeatureMatrix, fit_rows: np.ndarray, cfg: PipelineConfig, out_dir: Path, seed: int
) -> DecomposeStage:
    """Fit the scaler, PCA and per-class k-means (seeded with seed) on X's
    fit_rows (a boolean mask) and project every row.

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

    ds = decompose(reduced.rows(fit_rows), cfg.decomposition, seed=seed)
    write_json(ds.codec, out_dir / "codec.json")
    write_json(ds.centroids, out_dir / "centroids.json")
    write_report_csv(ds, out_dir / "decomposition_report.csv")
    return DecomposeStage(reduced=reduced, decomposed=ds)


@dataclass
class TrainStage:
    results: dict[str, TrainResult]
    best_cell: str


def run_train_stage(
    X: np.ndarray,
    y: np.ndarray,
    codec: LabelCodec,
    cfg: PipelineConfig,
    seeds: dict[str, int],
    out_dir: Path,
) -> TrainStage:
    """Train one model per learning rate on sublabels y, every cell in one
    train call; seeds maps each cell's name to its seed, in grid order. The
    best cell has the lowest final training loss. The cells are then checked
    and written in order: a training loss that is not finite raises
    ValueError naming the cell and the epoch, so no JSON artifact is written
    with it.

    Writes models/cell-<i>.json and losses.json into out_dir, and removes any
    other models/cell-*.json, such as one a larger grid left there.
    """
    models_dir = out_dir / "models"
    models_dir.mkdir(exist_ok=True)
    cells = {f"cell-{i}.json" for i in range(len(seeds))}
    for stale in models_dir.glob("cell-*.json"):
        if stale.name not in cells:
            stale.unlink()
    # positional, as the benchmark's span counter reads train's X and cfg
    results = dict(zip(seeds, train(X, y, codec, cfg.training, list(seeds.values()))))
    losses = {}
    for i, (cell, result) in enumerate(results.items()):
        finite = np.isfinite(result.epoch_losses)
        if not finite.all():
            epoch = int(np.argmin(finite))
            raise ValueError(f"cell {cell}: train loss is first not finite at epoch {epoch}")
        model_to_json(result.model, models_dir / f"cell-{i}.json")
        losses[cell] = {"train": result.epoch_losses}
    write_json(losses, out_dir / "losses.json")
    best_cell = min(results, key=lambda c: results[c].final_loss)
    return TrainStage(results=results, best_cell=best_cell)


@dataclass(frozen=True)
class SubjectSplit:
    """split.json: the subjects fit on and the subjects held out."""

    train: tuple[str, ...]
    test: tuple[str, ...]


def read_split(path, X: FeatureMatrix) -> SubjectSplit:
    """The split.json at path, for the feature matrix X. Besides read_json_as's
    key and type checks, an empty side, a subject on both sides, a subject
    not in X, one of X's subjects on neither side, and a class of X with no
    train subject each raise ParseError naming the file."""
    split = read_json_as(SubjectSplit, path, "split")
    if not split.train or not split.test:
        raise ParseError(f"{path}: train and test must each name a subject")
    labels = dict(zip(X.subject_ids, X.labels))
    train, test, known = set(split.train), set(split.test), set(labels)
    for problem, subjects in (
        ("in both train and test", train & test),
        ("not in the feature rows", (train | test) - known),
        ("in neither train nor test", known - train - test),
    ):
        if subjects:
            raise ParseError(f"{path}: subjects {problem}: {sorted(subjects)}")
    untrained = set(labels.values()) - {labels[s] for s in train}
    if untrained:
        raise ParseError(f"{path}: classes with no train subject: {sorted(untrained)}")
    return split


@dataclass
class RunResult:
    run_dir: Path
    report: EvalReport
    best_cell: str
    cell_results: dict[str, TrainResult]


def fit_and_evaluate(
    X: FeatureMatrix,
    cfg: PipelineConfig,
    out_dir: Path,
    split: SubjectSplit | None = None,
    stage_seconds: dict[str, float] | None = None,
) -> RunResult:
    """Split X's subjects by split, or else by subject_split with the split
    seed; run decompose and train on the train subjects' rows, then evaluate
    every cell on the test subjects' rows and report the best one. Every seed
    is derived here, once. Each stage writes its artifacts into out_dir,
    which must exist; train writes seeds.json (the base seed and every seed
    derived from it), so it is there before evaluate runs."""
    base = cfg.seed
    cells = {
        f"lr={lr!r}": derive_seed(base, _TAG_TRAIN, i)
        for i, lr in enumerate(cfg.training.learning_rates)
    }
    seeds = {
        "base": base,
        "split": derive_seed(base, _TAG_SPLIT),
        "decompose": derive_seed(base, _TAG_DECOMPOSE),
        "train_cells": cells,
    }

    with stage("split", stage_seconds):
        if split is None:
            subject_labels = dict(zip(X.subject_ids, X.labels))
            drawn = subject_split(subject_labels, cfg.split.train_frac, seed=seeds["split"])
            split = SubjectSplit(train=tuple(drawn[0]), test=tuple(drawn[1]))
        write_json(split, out_dir / "split.json")
        train_mask, test_mask = (np.isin(X.subject_ids, s) for s in (split.train, split.test))

    with stage("decompose", stage_seconds):
        dec = run_decompose_stage(X, train_mask, cfg, out_dir, seeds["decompose"])
        ds = dec.decomposed
        R_test = dec.reduced.rows(test_mask)
        save_features(ds.codec.relabel(ds.features, ds.sublabels), out_dir / "sublabeled_train.csv")
        y_test = assign_sublabels(R_test, ds.codec, ds.centroids)
        save_features(ds.codec.relabel(R_test, y_test), out_dir / "sublabeled_test.csv")

    with stage("train", stage_seconds):
        grid = run_train_stage(ds.features.values, ds.sublabels, ds.codec, cfg, cells, out_dir)
        write_json(seeds, out_dir / "seeds.json")

    with stage("evaluate", stage_seconds):
        cell_reports = {
            cell: evaluate(result.model, R_test.values, y_test, cfg.compose_mode)
            for cell, result in grid.results.items()
        }
        report = cell_reports[grid.best_cell]

        metrics = {
            "selected_cell": grid.best_cell,
            "selection_rule": "lowest final training loss",
            "cells": {
                cell: {"final_train_loss": result.final_loss, "test": cell_reports[cell]}
                for cell, result in grid.results.items()
            },
        }
        write_json(metrics, out_dir / "metrics.json")

        marked = {c + (" *" if c == grid.best_cell else ""): r for c, r in cell_reports.items()}
        lines = [
            "Composed-class test metrics per hyperparameter cell",
            "(* = selected by lowest final training loss)",
            "",
            render_metrics_table(marked),
            "",
            f"Selected cell: {grid.best_cell}",
            f"Test subjects: {len(set(R_test.subject_ids))}; test slices: {R_test.n}",
        ]
        for kind, names, matrix in (
            ("Composed", "classes: " + ", ".join(report.classes), report.composed_confusion),
            ("Subclass", "subclasses: " + ", ".join(report.subclass_names), report.sub_confusion),
        ):
            lines += ["", f"{kind} confusion matrix (rows true, columns predicted):", "  " + names]
            lines += ["  " + " ".join(f"{v:5d}" for v in row) for row in matrix.tolist()]
        (out_dir / "report.txt").write_text("\n".join(lines) + "\n")

    return RunResult(out_dir, report, grid.best_cell, grid.results)


def run_features(
    manifest_path, cfg: PipelineConfig, out_dir, stage_seconds: dict[str, float] | None = None
) -> tuple[FeatureMatrix, SliceStage]:
    """The manifest, slices and features stages of run_pipeline: writes
    config.json, manifest.csv, entropies.csv and features.csv into out_dir,
    nothing before the manifest has been read. Failed subjects fail the
    slices stage, naming them all, once entropies.csv is written."""
    out_dir = Path(out_dir)
    with stage("manifest", stage_seconds):
        rows = read_manifest(manifest_path, allowed_labels=cfg.classes)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_json(cfg, out_dir / "config.json")
        write_manifest(rows, out_dir / "manifest.csv")

    # the slice stage extracts each subject's features as soon as its slices
    # are selected; loading the backend, and any fault of it, belong to "features"
    with stage("features", stage_seconds):
        backend = build_backend(cfg.features)

    with stage("slices", stage_seconds):
        slice_stage = run_slices_stage(rows, cfg, out_dir, backend)
        if slice_stage.errors:
            failed = ", ".join(sorted(slice_stage.errors))
            raise ValueError(f"subjects failed slice selection or feature extraction: {failed}")

    with stage("features", stage_seconds):
        X = extract_feature_matrix(rows, slice_stage)
        save_features(X, out_dir / "features.csv")
    return X, slice_stage


def run_pipeline(manifest_path, cfg: PipelineConfig, run_dir) -> RunResult:
    """run_features and fit_and_evaluate into run_dir, then run_info.json.
    Bad input, such as an unreadable manifest, raises as it is; any other
    failure as StageError(stage, cause), and the partial outputs are
    retained in run_dir for debugging."""
    started = time.time()
    run_dir = Path(run_dir)

    stage_seconds: dict[str, float] = {}
    X, slice_stage = run_features(manifest_path, cfg, run_dir, stage_seconds)
    result = fit_and_evaluate(X, cfg, run_dir, stage_seconds=stage_seconds)

    run_info = {
        "package_version": __version__,
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "n_subjects": len(slice_stage.selected),
        "n_slices": X.n,
        "reduced_dim": result.cell_results[result.best_cell].model.input_dim,
        "stage_seconds": stage_seconds,
        "slice_workers": slice_stage.workers,
        "slice_busy_seconds": slice_stage.busy_seconds,
    }
    write_json(run_info, run_dir / "run_info.json")
    return result

"""Command-line interface.

Subcommands: synth, slices, features, decompose, train, evaluate, pipeline,
each run as pipeline.stage(<subcommand>). Exit codes: 0 success, 1 bad input
(bad flags, or errors.BAD_INPUT: config and input files), 2 a failed subject
or any other failure, which reads "stage '<name>' failed: <cause>".
slices, features and pipeline decode and rank every volume on each run;
nothing is cached between runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import time
from pathlib import Path

import numpy as np

from .artifacts import write_json
from .classifier import model_from_json, model_to_json
from .config import PipelineConfig, load_config
from .decomposition import codec_from_json, decomposition_report
from .errors import BAD_INPUT, PipelineError
from .evaluation import evaluate, render_metrics_table
from .features import load_precomputed, save_features
from .manifest import read_manifest
from .pipeline import (
    build_backend,
    extract_feature_matrix,
    run_decompose_stage,
    run_pipeline,
    run_slices_stage,
    run_train_stage,
    stage,
)
from .synth import generate_dataset

logger = logging.getLogger(__name__)


def _add_common(sub: argparse.ArgumentParser, out_required: bool = True) -> None:
    sub.add_argument("--config", type=Path, help="pipeline config JSON (defaults used if omitted)")
    sub.add_argument("--out", type=Path, required=out_required, help="output directory")
    sub.add_argument("--seed", type=int, help="override the config seed")


def _add_manifest(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--manifest", type=Path, required=True, help="dataset manifest CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mridecomp",
        description="MRI slice selection, class decomposition, and classification pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labelled dataset")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0, help="data seed (default 0)")
    p.add_argument("--subjects", type=int, default=6, help="subjects per class (default 6)")
    p.add_argument("--nz", type=int, default=30, help="axial slices per volume (default 30)")
    p.add_argument("--classes", default="CN,MCI,AD", help="comma-separated class names")

    p = sub.add_parser("slices", help="rank slices by texture entropy and write entropies.csv")
    _add_common(p)
    _add_manifest(p)

    p = sub.add_parser("features", help="extract per-slice feature vectors")
    _add_common(p)
    _add_manifest(p)

    p = sub.add_parser("decompose", help="standardize, reduce, and cluster a feature CSV")
    _add_common(p)
    p.add_argument("--features", type=Path, required=True, help="feature CSV to decompose")

    p = sub.add_parser("train", help="train the classifier grid on a sublabeled feature CSV")
    _add_common(p)
    p.add_argument("--features", type=Path, required=True, help="sublabeled reduced feature CSV")
    p.add_argument("--codec", type=Path, required=True, help="codec JSON from decompose")

    p = sub.add_parser("evaluate", help="evaluate a trained model on a sublabeled feature CSV")
    _add_common(p)
    p.add_argument("--features", type=Path, required=True, help="sublabeled reduced feature CSV")
    p.add_argument("--model", type=Path, required=True, help="model checkpoint JSON")

    p = sub.add_parser("pipeline", help="run the full pipeline end to end")
    _add_common(p, out_required=False)
    _add_manifest(p)

    return parser


def _load_cfg(args) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
        cfg.validate()
    return cfg


def cmd_synth(args) -> int:
    classes = tuple(c.strip() for c in str(args.classes).split(",") if c.strip())
    manifest_path, rows = generate_dataset(
        args.out, subjects_per_class=args.subjects, nz=args.nz, seed=args.seed, classes=classes
    )
    print(f"wrote {len(rows)} volumes and {manifest_path}")
    return 0


def _slices(args, cfg: PipelineConfig, backend=None):
    """(rows of the subjects that did not fail, SliceStage) after running the slice
    stage into --out; each failed subject is reported on stderr."""
    rows = read_manifest(args.manifest, allowed_labels=cfg.classes)
    sliced = run_slices_stage(rows, cfg, args.out, backend)
    for sid, msg in sorted(sliced.errors.items()):
        print(f"error: subject {sid}: {msg}", file=sys.stderr)
    return [r for r in rows if r.subject_id not in sliced.errors], sliced


def cmd_slices(args) -> int:
    _, sliced = _slices(args, _load_cfg(args))
    n_slices = sum(len(v) for v in sliced.selected.values())
    print(f"selected {n_slices} slices across {len(sliced.selected)} subjects")
    return 2 if sliced.errors else 0


def cmd_features(args) -> int:
    cfg = _load_cfg(args)
    ok_rows, sliced = _slices(args, cfg, build_backend(cfg))
    if ok_rows:
        X = extract_feature_matrix(ok_rows, sliced)
        save_features(X, args.out / "features.csv")
        print(f"wrote {X.n} x {X.m} feature matrix to {args.out / 'features.csv'}")
    return 2 if sliced.errors else 0


def cmd_decompose(args) -> int:
    cfg = _load_cfg(args)
    X = load_precomputed(args.features)
    args.out.mkdir(parents=True, exist_ok=True)

    ds = run_decompose_stage(X, np.ones(X.n, dtype=bool), cfg, args.out).decomposed
    save_features(ds.codec.relabel(ds.features, ds.sublabels), args.out / "sublabeled_features.csv")
    counts = {row["subclass"]: row["count"] for row in decomposition_report(ds)}
    print(f"decomposed into {ds.codec.n_sublabels} subclasses: {counts}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    codec = codec_from_json(args.codec)
    X = load_precomputed(args.features)
    y = codec.parse_labels(X.labels)
    args.out.mkdir(parents=True, exist_ok=True)

    grid = run_train_stage(X.values, y, codec, cfg, args.out)
    best = grid.results[grid.best_cell]
    model_to_json(best.model, args.out / "model.json")
    print(
        f"trained {len(grid.results)} cells; best {grid.best_cell} "
        f"(final loss {best.final_loss:.6f})"
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    model = model_from_json(args.model)
    X = load_precomputed(args.features)
    y = model.codec.parse_labels(X.labels)
    args.out.mkdir(parents=True, exist_ok=True)

    report = evaluate(model, X.values, y, cfg.compose_mode)
    write_json(report, args.out / "metrics.json")
    table = render_metrics_table({"composed": report})
    (args.out / "report.txt").write_text(table + "\n")
    print(table)
    return 0


def cmd_pipeline(args) -> int:
    cfg = _load_cfg(args)
    out = args.out if args.out else Path("runs") / f"run-{time.strftime('%Y%m%d-%H%M%S')}"
    result = run_pipeline(args.manifest, cfg, out)
    acc = result.report.composed_accuracy
    print(f"run directory: {result.run_dir}")
    print(f"selected cell: {result.best_cell}")
    print(f"composed test accuracy: {acc:.4f}")
    return 0


_HANDLERS = {
    "synth": cmd_synth,
    "slices": cmd_slices,
    "features": cmd_features,
    "decompose": cmd_decompose,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1

    try:
        with stage(args.command):
            return _HANDLERS[args.command](args)
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, BAD_INPUT) else 2


if __name__ == "__main__":
    sys.exit(main())

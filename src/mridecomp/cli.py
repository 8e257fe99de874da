"""Command-line interface.

Subcommands: synth, features, fit, pipeline, each run as
pipeline.stage(<subcommand>); features, fit and pipeline name the inner
stage that failed (manifest, slices, split, decompose, ...). pipeline is
features then fit into one directory: features is pipeline.run_features,
and fit is one fit_and_evaluate call on a feature CSV and its --split.
Exit codes: 0 success, 1 bad input (bad flags, or errors.BAD_INPUT: config
and input files), 2 any other failure, which reads "stage '<name>' failed:
<cause>". features and pipeline decode and rank every volume on each run;
nothing is cached between runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
import time
from pathlib import Path

from .artifacts import write_json
from .config import PipelineConfig, load_config
from .errors import BAD_INPUT, PipelineError
from .features import load_precomputed
from .pipeline import fit_and_evaluate, read_split, run_features, run_pipeline, stage
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

    p = sub.add_parser("features", help="rank slices and extract per-slice feature vectors")
    _add_common(p)
    _add_manifest(p)

    p = sub.add_parser("fit", help="split, decompose, train and evaluate a feature CSV")
    _add_common(p)
    p.add_argument("--features", type=Path, required=True, help="feature CSV to fit")
    p.add_argument("--split", type=Path, help="split.json to fit on (default: a seeded split)")

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


def cmd_features(args) -> int:
    X, _ = run_features(args.manifest, _load_cfg(args), args.out)
    print(f"wrote {X.n} x {X.m} feature matrix to {args.out / 'features.csv'}")
    return 0


def _print_result(result) -> int:
    print(f"run directory: {result.run_dir}")
    print(f"selected cell: {result.best_cell}")
    print(f"composed test accuracy: {result.report.composed_accuracy:.4f}")
    return 0


def cmd_fit(args) -> int:
    cfg = _load_cfg(args)
    X = load_precomputed(args.features)
    split = read_split(args.split, X) if args.split else None
    args.out.mkdir(parents=True, exist_ok=True)
    write_json(cfg, args.out / "config.json")
    return _print_result(fit_and_evaluate(X, cfg, args.out, split))


def cmd_pipeline(args) -> int:
    cfg = _load_cfg(args)
    out = args.out if args.out else Path("runs") / f"run-{time.strftime('%Y%m%d-%H%M%S')}"
    return _print_result(run_pipeline(args.manifest, cfg, out))


_HANDLERS = {
    "synth": cmd_synth,
    "features": cmd_features,
    "fit": cmd_fit,
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

"""One benchmark phase in a fresh process; prints one JSON line on stdout.

    python3 perfbench/worker.py <phase> '<json spec>'

Phases:
  setup    import mridecomp and generate the workload's inputs (timed as
           setup_s).
  measure  import, time the process's first run_pipeline call (the
           warm-up), then time run_pipeline calls for the given number of
           seconds, untraced or alternating untraced and traced runs.
           Reports the peak RSS of this process.

run.py starts these; each process belongs to one workload, so its peak RSS,
first run and set-up time are that workload's alone.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before mridecomp (and numpy) are imported

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from mridecomp import pipeline  # noqa: E402

import spans  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

ACCURACY_FLOOR = 0.90  # the criterion-9 bound
TRACE_MIN_RUNS = 3  # per side when alternating untraced and traced runs


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    thread_vars = (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "thread_env": {v: os.environ.get(v) for v in thread_vars},
    }


def bytes_on_disk(inputs_dir: Path) -> dict:
    nii = sum(p.stat().st_size for p in inputs_dir.glob("*.nii"))
    gz = sum(p.stat().st_size for p in inputs_dir.glob("*.nii.gz"))
    return {"nii_bytes": nii, "nii_gz_bytes": gz}


def slice_counts(run_dir: Path) -> dict:
    lines = (run_dir / "entropies.csv").read_text().splitlines()[1:]
    return {
        "slices_scored": len(lines),
        "slices_selected": sum(int(line.rsplit(",", 1)[1]) for line in lines),
    }


class Checker:
    """Correctness gate: digest equal to the reference and accuracy >= floor.

    The reference is the first digest seen unless one is given.
    """

    def __init__(self, reference: str | None = None):
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, run_dir: Path, result) -> bool:
        self.attempted += 1
        digest = stats.run_digest(run_dir)
        if self.reference is None:
            self.reference = digest
        problems = []
        if digest != self.reference:
            problems.append(f"digest {digest[:12]} != reference {self.reference[:12]}")
        accuracy = result.report.composed_accuracy
        if not accuracy >= ACCURACY_FLOOR:
            problems.append(f"composed accuracy {accuracy} < {ACCURACY_FLOOR}")
        if problems:
            self.failures.append(f"{run_dir.name}: " + "; ".join(problems))
        return not problems

    def raised(self, run_dir: Path, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{run_dir.name}: {type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)

    def record(self) -> dict:
        return {
            "attempted": self.attempted,
            "failures": self.failures,
            "reference": self.reference,
        }


def phase_setup(spec: dict) -> dict:
    w = workloads.WORKLOADS[spec["workload"]]
    inputs_dir = Path(spec["inputs_dir"])
    workloads.generate_inputs(w, inputs_dir, spec["seed"])
    setup_s = time.perf_counter() - _T0
    return {"setup_s": setup_s, "inputs": bytes_on_disk(inputs_dir)}


def phase_measure(spec: dict) -> dict:
    w = workloads.WORKLOADS[spec["workload"]]
    inputs_dir = Path(spec["inputs_dir"])
    manifest = inputs_dir / "manifest.csv"
    cfg = workloads.pipeline_config(w, inputs_dir)
    trace = bool(spec["trace"])
    runs_dir = Path(spec["runs_dir"])
    runs = 0  # run id, also names each run's fresh directory
    checker = Checker(spec.get("reference"))
    tracer = spans.Tracer()
    targets = spans.pipeline_targets() if trace else []
    traced_run_pipeline = tracer.wrap(pipeline.run_pipeline, "pipeline.run_pipeline")
    walls: dict[bool, list[float]] = {False: [], True: []}  # traced -> wall times
    sizes: dict[int, dict] = {}  # traced run id -> run directory sizes
    out: dict = {"env": environment()}

    def one_run(traced: bool, after=None) -> float | None:
        """Run once, check the output; the wall time if it passed, else None."""
        nonlocal runs
        runs += 1
        run_dir = runs_dir / f"run-{os.getpid()}-{runs}"
        try:
            t = time.perf_counter()
            if traced:
                tracer.run = runs
                with tracer.installed(targets):
                    result = traced_run_pipeline(manifest, cfg, run_dir)
            else:
                result = pipeline.run_pipeline(manifest, cfg, run_dir)
            wall = time.perf_counter() - t
        except Exception as exc:
            checker.raised(run_dir, exc)
            wall = None
        else:
            if not checker.check(run_dir, result):
                wall = None
            out["composed_accuracy"] = result.report.composed_accuracy
            if after is not None:
                after(run_dir)
            if traced:
                cache_mb = stats.tree_mb(run_dir / "cache")
                sizes[runs] = {
                    "cache_mb": cache_mb,
                    "artifact_mb": stats.tree_mb(run_dir) - cache_mb,
                }
        shutil.rmtree(run_dir, ignore_errors=True)
        return wall

    # warm-up: the process's first run, which is also a first_run_s sample
    out["first_run_s"] = one_run(False, lambda d: out.update(inputs=slice_counts(d)))

    started = time.perf_counter()
    deadline = started + spec["max_seconds"]
    while time.perf_counter() < deadline:
        if trace:
            enough = min(len(walls[False]), len(walls[True])) >= TRACE_MIN_RUNS
        else:
            enough = len(walls[False]) >= spec["min_samples"]
        if enough and time.perf_counter() - started >= spec["seconds"]:
            break
        traced = trace and len(walls[True]) < len(walls[False])
        wall = one_run(traced)
        if wall is not None:
            walls[traced].append(wall)

    out["run_s"] = walls[False]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        out["traced_run_s"] = walls[True]
        out["per_layer"] = layer_medians(tracer.spans, sizes, walls)
        Path(spec["spans_out"]).write_text(json.dumps(tracer.to_json()))
    out["check"] = checker.record()
    return out


def layer_medians(all_spans: list, sizes: dict[int, dict], walls: dict) -> dict:
    """Median over traced runs of each per-layer metric, plus trace.overhead_s."""
    selfs = spans.self_times(all_spans)
    per_run = []
    for run_id, run_sizes in sizes.items():
        picked = [i for i, s in enumerate(all_spans) if s.run == run_id]
        run_spans = [all_spans[i] for i in picked]
        per_run.append(spans.run_layer_metrics(run_spans, [selfs[i] for i in picked], run_sizes))
    layers = {}
    if per_run:
        layers = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
    if walls[False] and walls[True]:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        layers["trace.overhead_s"] = overhead
    return layers


PHASES = {"setup": phase_setup, "measure": phase_measure}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in PHASES:
        print(f"usage: worker.py {{{','.join(PHASES)}}} '<json spec>'", file=sys.stderr)
        return 2
    result = PHASES[argv[0]](json.loads(argv[1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

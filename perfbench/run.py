"""mridecomp benchmark: times run_pipeline on generated inputs and checks every run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Workloads: ingest_128 and onnx_elbow_mlp
(see perfbench/README.md). One closed-loop client runs one pipeline at a
time. The last line of standard output is a JSON object with
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. Lines
before it give every metric with its unit, the environment and the inputs.
A full record goes to .perfbench/result-*.json and the spans of a traced
run to .perfbench/spans-*.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # set-up processes per untraced run, for the median setup_s
MIN_SAMPLES = stats.TAIL_BEYOND + 1  # so that run_s.tail exists
TIME_LIMIT_S = 170.0
MEASURE_RESERVE_S = 20.0  # left after the measuring loop for its warm-up and exit
# On a 2-vCPU shared host, two BLAS threads made run times bimodal (quartile
# spread of run_s.p50 over seeds 0.26 on a warm-cache rerun of the ingest_128
# inputs, against 0.10 with one thread, at the same median), so every worker
# runs single-threaded.
SINGLE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(phase: str, spec: dict, deadline: float) -> dict:
    """Run one worker phase in a fresh process and return its JSON reply."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {phase} phase")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), phase, json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=remaining,
            cwd=ROOT,
            env={**os.environ, **SINGLE_THREAD},
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} phase timed out") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{phase} phase exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    if reply.get("check", {}).get("failures"):
        sys.stderr.write(proc.stderr[-3000:])
    return reply


def run_workload(w, seed: int, seconds: int, trace: bool, work: Path, deadline: float) -> dict:
    """Interleave set-up and measuring processes; gather their replies.

    Untraced, w.processes measuring processes share the run time, with
    SETUP_REPEATS set-ups spread evenly between them, so the timed runs,
    first runs and set-ups cover the whole invocation instead of one stretch
    of it. Every set-up regenerates the same bytes at the same path.
    """
    inputs = work / "inputs"
    procs = 1 if trace else w.processes
    setups = 1 if trace else SETUP_REPEATS
    setup_before = {round(k * procs / setups) for k in range(setups)}
    base = {"workload": w.name, "seed": seed, "inputs_dir": str(inputs)}
    setup_s: list[float] = []
    checks: list[dict] = []
    measured: list[dict] = []
    reference = None  # every run's digest must equal the first run's
    for i in range(procs):
        if i in setup_before:
            shutil.rmtree(inputs, ignore_errors=True)
            reply = child("setup", base, deadline)
            setup_s.append(reply["setup_s"])
            input_record = reply["inputs"]

        budget = (deadline - time.monotonic() - MEASURE_RESERVE_S) / (procs - i)
        still_needed = max(0, MIN_SAMPLES - sum(len(m["run_s"]) for m in measured))
        reply = child(
            "measure",
            dict(
                base,
                runs_dir=str(work / "runs"),
                reference=reference,
                trace=int(trace),
                seconds=seconds / procs,
                min_samples=-(-still_needed // (procs - i)),
                max_seconds=max(0.0, budget),
                spans_out=str(ROOT / ".perfbench" / f"spans-{w.name}-seed{seed}.json"),
            ),
            deadline,
        )
        checks.append(reply["check"])
        reference = reference or reply["check"]["reference"]
        measured.append(reply)

    last = measured[-1]
    return {
        "setup_s": setup_s,
        "first_run_s": [m["first_run_s"] for m in measured if m["first_run_s"] is not None],
        "run_s": [t for m in measured for t in m["run_s"]],
        "peak_rss_mb": max(m["peak_rss_mb"] for m in measured),
        "measuring_processes": len(measured),
        "composed_accuracy": last.get("composed_accuracy"),
        "per_layer": last.get("per_layer"),
        "env": last["env"],
        "inputs": {
            "seed": seed,
            "subjects": w.subjects,
            "dims": [*w.dims, w.nz],
            "voxels": w.voxels,
            **input_record,
            **last.get("inputs", {}),
        },
        "attempted": sum(c["attempted"] for c in checks),
        "failures": [f for c in checks for f in c["failures"]],
    }


def end_to_end(w, raw: dict) -> tuple[dict, dict]:
    """End-to-end metric values, plus notes printed beside them."""
    samples = raw["run_s"]
    if len(samples) < MIN_SAMPLES or not raw["first_run_s"]:
        raise BenchError(f"too few runs passed the check ({len(samples)} timed)")
    p50 = statistics.median(samples)
    tail, pct, beyond = stats.tail(samples)
    values = {
        "run_s.p50": p50,
        "run_s.tail": tail,
        "subjects_per_s": w.subjects / p50,
        "first_run_s": statistics.median(raw["first_run_s"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "composed_accuracy": raw["composed_accuracy"],
    }
    notes = {
        "run_s.p50": f"median of {len(samples)} timed runs, each process warmed up",
        "run_s.tail": f"p{pct:.1f} of {len(samples)} samples, {beyond} beyond",
        "first_run_s": f"median of {len(raw['first_run_s'])} fresh processes",
        "peak_rss_mb": f"highest of {raw['measuring_processes']} measuring processes",
        "setup_s": f"median of {len(raw['setup_s'])} fresh processes",
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running worker is killed and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "mridecomp" / "__init__.py").is_file():
        print(f"no mridecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    w = WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = ROOT / ".perfbench"
    work = out_dir / f"work-{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        raw = run_workload(w, args.seed, args.seconds, bool(args.trace), work, deadline)
        if args.trace:
            values, notes = raw["per_layer"] or {}, {}
        else:
            values, notes = end_to_end(w, raw)
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = raw["attempted"], len(raw["failures"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env: " + json.dumps(raw["env"], sort_keys=True))
    print("inputs: " + json.dumps(raw["inputs"], sort_keys=True))
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_frac = {failed / attempted:.6g} fraction  ({failed} of {attempted} runs)")
    for failure in raw["failures"]:
        print(f"FAILED {failure}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = dict(result, workload=w.name, trace=args.trace, raw=raw)
    (out_dir / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

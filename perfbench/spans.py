"""In-memory spans recorded around calls into mridecomp's modules.

The benchmark does not edit the program. ``Tracer.installed`` replaces the
module attributes through which the pipeline reaches each layer with
wrappers that record a span (name, start, end, parent span, run id) and
restores the originals on exit. Spans stay in memory until the benchmark
writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        """Wrap fn so each call records a span; counter(args, result) -> dict."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, perf_counter(), math.nan, parent, self.run)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Patch every (module, attribute, span name, counter) target, then restore."""
        saved = []
        wrappers: dict[int, object] = {}
        try:
            for module, attr, name, counter in targets:
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(original, name, counter)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(i, [])):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(s.duration - covered)
    return out


# --- what the benchmark traces ---------------------------------------------------------

# Functions the pipeline module defines but that belong to another layer.
_LAYER_NAMES = {"pipeline.extract_feature_matrix": "features.extract_feature_matrix"}


def _span_name(fn) -> str:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    return _LAYER_NAMES.get(name, name)


def train_steps(n_rows: int, epochs: int, batch_size: int) -> int:
    """Adam steps one train() call takes: epochs x ceil(n / batch)."""
    return epochs * math.ceil(n_rows / batch_size)


def _counters():
    from mridecomp.nifti import DATATYPES

    return {
        "nifti.read_nifti": lambda a, r: {
            "gz": int(str(a[0]).endswith(".gz")),
            "bytes": math.prod(r.dims) * DATATYPES[r.datatype_code][1] // 8,
        },
        "entropy.rank_slices": lambda a, r: {"scored": len(r)},
        "entropy.select_top_k": lambda a, r: {"selected": len(r)},
        "pipeline.run_slices_stage": lambda a, r: {"subjects": len(r.selected)},
        "features.save_features": lambda a, r: {"floats": a[0].n * a[0].m},
        "reduction.pca_fit": lambda a, r: {"components": r.n_components},
        "decomposition.decompose": lambda a, r: {"subclasses": r.codec.n_sublabels},
        "classifier.train": lambda a, r: {
            "steps": train_steps(len(a[0]), a[3].epochs, a[3].batch_size)
        },
        "evaluation.evaluate": lambda a, r: {"rows": len(a[1])},
    }


def pipeline_targets():
    """(module, attribute, span name, counter) for every traced call site.

    Covers each mridecomp function the pipeline module calls by name,
    minionnx.run_model (reached through the features module) and the
    cluster functions decomposition calls, including the restarts that
    elbow_select_k runs.
    """
    from mridecomp import cluster, decomposition, minionnx, pipeline

    counters = _counters()
    targets = []
    for attr, fn in vars(pipeline).items():
        if (
            inspect.isfunction(fn)
            and fn.__module__.startswith("mridecomp.")
            and not attr.startswith("_")
            and attr != "run_pipeline"
        ):
            name = _span_name(fn)
            targets.append((pipeline, attr, name, counters.get(name)))
    targets.append((minionnx, "run_model", "minionnx.run_model", None))
    for module, attr in (
        (decomposition, "elbow_select_k"),
        (decomposition, "kmeans_restarts"),
        (cluster, "kmeans_restarts"),
    ):
        targets.append((module, attr, f"cluster.{attr}", None))
    return targets


# --- per-layer metrics -----------------------------------------------------------------

BUSY = (
    "nifti.read_nifti",
    "entropy.rank_slices",
    "features.extract_feature_matrix",
    "features.save_features",
    "minionnx.run_model",
    "reduction.pca_fit",
    "decomposition.decompose",
    "cluster.elbow_select_k",
    "decomposition.assign_sublabels",
    "classifier.train",
    "classifier.model_to_json",
    "evaluation.evaluate",
)
SELF = ("pipeline.run_slices_stage", "pipeline.run_pipeline")
CALLS = ("nifti.read_nifti", "minionnx.run_model", "cluster.kmeans_restarts")


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def run_layer_metrics(spans: list[Span], selfs: list[float], sizes: dict) -> dict[str, float]:
    """Per-layer metrics of one pipeline run from its spans.

    sizes holds cache_mb and artifact_mb, measured on the run directory
    after the run. A layer that did not run reports 0 for its times,
    counts and rates.
    """
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    gz_busy = 0.0
    for span, self_s in zip(spans, selfs):
        busy[span.name] = busy.get(span.name, 0.0) + span.duration
        own[span.name] = own.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            counts[key] = counts.get(key, 0) + value
        if span.name == "nifti.read_nifti" and span.counts.get("gz"):
            gz_busy += span.duration

    m: dict[str, float] = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = busy.get(name, 0.0)
    for name in SELF:
        m[f"{name}.self_s"] = own.get(name, 0.0)
    for name in CALLS:
        m[f"{name}.calls"] = calls.get(name, 0)
    m["nifti.read_nifti_gz.busy_s"] = gz_busy
    m["nifti.decoded_mb_per_s"] = _rate(
        counts.get("bytes", 0) / 1e6, busy.get("nifti.read_nifti", 0.0)
    )
    scored = counts.get("scored", 0)
    m["entropy.slices_scored"] = scored
    m["entropy.slices_per_s"] = _rate(scored, busy.get("entropy.rank_slices", 0.0))
    m["entropy.selected_ratio"] = _rate(counts.get("selected", 0), scored)
    misses = calls.get("nifti.read_nifti", 0)
    m["pipeline.cache_misses"] = misses
    m["pipeline.cache_hits"] = counts.get("subjects", 0) - misses
    m["pipeline.cache_mb"] = sizes["cache_mb"]
    m["pipeline.artifact_mb"] = sizes["artifact_mb"]
    m["features.csv_floats_per_s"] = _rate(
        counts.get("floats", 0), busy.get("features.save_features", 0.0)
    )
    m["reduction.pca_components"] = counts.get("components", 0)
    m["decomposition.n_subclasses"] = counts.get("subclasses", 0)
    m["classifier.train.steps"] = counts.get("steps", 0)
    m["classifier.steps_per_s"] = _rate(counts.get("steps", 0), busy.get("classifier.train", 0.0))
    m["evaluation.rows"] = counts.get("rows", 0)
    return m

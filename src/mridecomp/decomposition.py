"""Class decomposition: split each diagnostic class into k-means subclasses.

Each original class is clustered independently; the (class, cluster) pairs
are mapped to a dense id space by LabelCodec. Subclass names follow the
``{class}_{cluster+1}`` pattern (e.g. CN_1, CN_2). LabelCodec.decode returns
the original class with the cluster index, so per-class sample counts are
conserved by construction. The config's decomposition section,
DecompositionConfig, and its DECOMPOSITION_MODES sit beside decompose.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import write_table
from .cluster import elbow_select_k, kmeans_restarts, nearest_centroid
from .errors import ConfigError, DegenerateInput, EmptyInput, InvalidK, UnknownSublabel
from .features import FeatureMatrix

logger = logging.getLogger(__name__)

DECOMPOSITION_MODES = ("fixed", "elbow")


@dataclass(frozen=True)
class DecompositionConfig:
    mode: str = "fixed"
    k: int = 2
    k_min: int = 2
    k_max: int = 6
    n_init: int = 10

    def validate(self) -> None:
        if self.mode not in DECOMPOSITION_MODES:
            raise ConfigError(
                f"decomposition.mode must be one of {DECOMPOSITION_MODES}, got {self.mode!r}"
            )
        if self.mode == "fixed" and self.k < 1:
            raise ConfigError(f"decomposition.k must be >= 1, got {self.k}")
        if self.mode == "elbow":
            if self.k_min < 1:
                raise ConfigError(f"decomposition.k_min must be >= 1, got {self.k_min}")
            if self.k_max - self.k_min + 1 < 3:
                raise ConfigError(
                    f"decomposition elbow range [{self.k_min}, {self.k_max}] needs >= 3 values"
                )
        if self.n_init < 1:
            raise ConfigError(f"decomposition.n_init must be >= 1, got {self.n_init}")


@dataclass(frozen=True)
class LabelCodec:
    """Bijection between (class, cluster) pairs and dense sublabel ids.

    Classes are kept in sorted order; ids enumerate clusters class by class,
    so with cluster_counts (2, 2, 2) over (AD, CN, MCI) the ids run
    AD_1=0, AD_2=1, CN_1=2, CN_2=3, MCI_1=4, MCI_2=5.
    """

    classes: tuple[str, ...]
    cluster_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.classes) != len(self.cluster_counts):
            raise InvalidK("classes and cluster_counts must have equal length")
        if len(set(self.classes)) != len(self.classes):
            raise InvalidK("duplicate class names")
        if any(c < 1 for c in self.cluster_counts):
            raise InvalidK("every class needs at least one cluster")

    @property
    def n_sublabels(self) -> int:
        return sum(self.cluster_counts)

    def _offset(self, class_index: int) -> int:
        return sum(self.cluster_counts[:class_index])

    def encode(self, cls: str, cluster: int) -> int:
        try:
            ci = self.classes.index(cls)
        except ValueError:
            raise UnknownSublabel(f"unknown class {cls!r}") from None
        if not 0 <= cluster < self.cluster_counts[ci]:
            raise UnknownSublabel(
                f"class {cls!r} has {self.cluster_counts[ci]} clusters, got index {cluster}"
            )
        return self._offset(ci) + cluster

    def decode(self, sublabel: int) -> tuple[str, int]:
        if not 0 <= sublabel < self.n_sublabels:
            raise UnknownSublabel(f"sublabel id {sublabel} out of range")
        for ci, count in enumerate(self.cluster_counts):
            if sublabel < count:
                return self.classes[ci], sublabel
            sublabel -= count
        raise UnknownSublabel("unreachable")  # pragma: no cover

    def subclass_name(self, sublabel: int) -> str:
        cls, cluster = self.decode(sublabel)
        return f"{cls}_{cluster + 1}"

    def relabel(self, X: FeatureMatrix, sublabels) -> FeatureMatrix:
        """X with the subclass name of each row's sublabel id in the label column."""
        return replace(X, labels=tuple(self.subclass_name(int(s)) for s in sublabels))

    def class_indices(self) -> np.ndarray:
        """Index into classes of every sublabel id, in id order."""
        return np.repeat(np.arange(len(self.classes)), self.cluster_counts)


@dataclass(frozen=True)
class DecomposedDataset:
    features: FeatureMatrix
    sublabels: np.ndarray  # (n,) dense ids
    codec: LabelCodec
    centroids: dict[str, np.ndarray]  # class -> (k_c, m)
    wcss: dict[str, float]


def decompose(
    X: FeatureMatrix, cfg: DecompositionConfig = DecompositionConfig(), seed: int = 0
) -> DecomposedDataset:
    """Cluster each class separately and relabel rows with subclass ids.

    cfg is validated first. In fixed mode every class gets cfg.k clusters.
    In elbow mode the per-class k is chosen by the elbow rule over
    [cfg.k_min, cfg.k_max], and the class is clustered with the elbow
    search's own best-of-n_init fit for that k; the range is clamped so
    k_max never exceeds the class size (a class too small for any valid
    range falls back to a single cluster).
    """
    cfg.validate()
    if X.n == 0:
        raise EmptyInput("cannot decompose an empty feature matrix")

    classes = tuple(sorted(set(X.labels)))
    labels_arr = np.asarray(X.labels)
    sublabels = np.full(X.n, -1, dtype=np.int64)
    centroids: dict[str, np.ndarray] = {}
    wcss: dict[str, float] = {}
    cluster_counts: list[int] = []

    for class_index, cls in enumerate(classes):
        mask = labels_arr == cls
        rows = X.values[mask]
        n_c = rows.shape[0]
        class_seed = np.random.SeedSequence([seed, class_index])

        if cfg.mode == "fixed":
            if n_c < cfg.k:
                raise DegenerateInput(f"class {cls!r} has {n_c} samples, fewer than k={cfg.k}")
            result = kmeans_restarts(rows, cfg.k, seed=class_seed, n_init=cfg.n_init)
        else:
            k_max = min(cfg.k_max, n_c)
            if k_max - cfg.k_min + 1 < 3:
                logger.warning(
                    "class %s has %d samples, too few for elbow range [%d, %d]; using k=1",
                    cls, n_c, cfg.k_min, cfg.k_max,
                )
                result = kmeans_restarts(rows, 1, seed=class_seed, n_init=cfg.n_init)
            else:
                if k_max != cfg.k_max:
                    logger.warning(
                        "class %s: clamping elbow k_max from %d to %d", cls, cfg.k_max, k_max
                    )
                elbow = elbow_select_k(rows, cfg.k_min, k_max, seed=class_seed, n_init=cfg.n_init)
                result = elbow.fits[elbow.k]

        sublabels[mask] = sum(cluster_counts) + result.assignments
        centroids[cls] = result.centroids
        wcss[cls] = result.wcss
        cluster_counts.append(len(result.centroids))

    codec = LabelCodec(classes=classes, cluster_counts=tuple(cluster_counts))
    return DecomposedDataset(
        features=X,
        sublabels=sublabels,
        codec=codec,
        centroids=centroids,
        wcss=wcss,
    )


def assign_sublabels(
    X: FeatureMatrix, codec: LabelCodec, centroids: dict[str, np.ndarray]
) -> np.ndarray:
    """Assign rows with known classes to the nearest centroid of that class.

    Used for held-out rows: the class label is trusted, only the cluster
    index within the class is inferred.
    """
    labels = np.asarray(X.labels)
    sublabels = np.empty(X.n, dtype=np.int64)
    for cls in dict.fromkeys(X.labels):
        if cls not in centroids:
            raise UnknownSublabel(f"no centroids for class {cls!r}")
        mask = labels == cls
        sublabels[mask] = codec.encode(cls, 0) + nearest_centroid(X.values[mask], centroids[cls])
    return sublabels


def write_report_csv(ds: DecomposedDataset, path) -> None:
    """decomposition_report.csv: per subclass its name, parent class, row count
    and the parent class's WCSS."""
    counts = np.bincount(ds.sublabels, minlength=ds.codec.n_sublabels).tolist()
    rows = []
    for sid, count in enumerate(counts):
        cls, _ = ds.codec.decode(sid)
        rows.append([ds.codec.subclass_name(sid), cls, count, ds.wcss[cls]])
    write_table(path, ["subclass", "class", "count", "class_wcss"], rows)

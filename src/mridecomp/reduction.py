"""Standard scaling and PCA dimensionality reduction.

The scaler uses population standard deviation (divide by n) and maps
zero-variance columns to 0. PCA is computed from the SVD of the centered
matrix; the retained dimension is the smallest count whose cumulative
explained variance ratio reaches the threshold. Component signs are fixed
so the largest-magnitude entry of each component is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInput, ShapeMismatch
from .features import FeatureMatrix

ZERO_STD = 1e-12


@dataclass(frozen=True)
class ScalerParams:
    means: np.ndarray
    stds: np.ndarray


@dataclass(frozen=True)
class PcaModel:
    components: np.ndarray  # (d, m), orthonormal rows
    explained_variance: np.ndarray  # (d,), sample covariance eigenvalues
    explained_variance_ratio: np.ndarray  # (d,)
    mean: np.ndarray  # (m,)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def fit_standardize(X: FeatureMatrix) -> ScalerParams:
    """Column means and population stds; DegenerateInput for a matrix with no
    rows, or naming the first column (f<j>) whose mean or std overflows float64."""
    if X.n == 0:
        raise DegenerateInput("cannot standardize an empty feature matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        means = X.values.mean(axis=0)
        stds = X.values.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(means) & np.isfinite(stds)))
    if bad.size:
        raise DegenerateInput(
            f"feature column f{bad[0]} overflows float64: "
            "its mean or standard deviation is not finite"
        )
    return ScalerParams(means=means, stds=stds)


def apply_standardize(X: FeatureMatrix, params: ScalerParams) -> FeatureMatrix:
    """Per-column z-score; columns recorded with ~zero std map to 0."""
    if X.m != params.means.shape[0]:
        raise ShapeMismatch(f"matrix has {X.m} columns, scaler has {params.means.shape[0]}")
    safe = np.where(params.stds < ZERO_STD, 1.0, params.stds)
    z = (X.values - params.means) / safe
    z[:, params.stds < ZERO_STD] = 0.0
    return FeatureMatrix(values=z, labels=X.labels, subject_ids=X.subject_ids)


def pca_fit(X: FeatureMatrix, variance_threshold: float = 0.95) -> PcaModel:
    """Fit PCA on (standardized) features, keeping the smallest component
    count whose cumulative explained variance ratio meets the threshold."""
    if not 0.0 < variance_threshold <= 1.0:
        raise ConfigError(f"variance_threshold must be in (0, 1], got {variance_threshold}")
    n, m = X.values.shape
    if n < 2:
        raise DegenerateInput(f"PCA needs at least 2 rows, got {n}")

    mean = X.values.mean(axis=0)
    centered = X.values - mean
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    total = float((s * s).sum())
    if total <= 0.0:
        raise DegenerateInput("zero-variance data, nothing to decompose")

    rank_cap = min(n - 1, m)
    ratios = (s[:rank_cap] ** 2) / total
    cumulative = np.cumsum(ratios)
    d = int(np.searchsorted(cumulative, variance_threshold - 1e-9) + 1)
    d = min(d, rank_cap)

    components = vt[:d].copy()
    for row in components:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    components.setflags(write=False)
    return PcaModel(
        components=components,
        explained_variance=(s[:d] ** 2) / (n - 1),
        explained_variance_ratio=ratios[:d],
        mean=mean,
    )


def pca_transform(X: FeatureMatrix, model: PcaModel) -> FeatureMatrix:
    if X.m != model.mean.shape[0]:
        raise ShapeMismatch(f"matrix has {X.m} columns, PCA was fit on {model.mean.shape[0]}")
    projected = (X.values - model.mean) @ model.components.T
    return FeatureMatrix(values=projected, labels=X.labels, subject_ids=X.subject_ids)


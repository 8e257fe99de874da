"""k-means clustering (k-means++ init, Lloyd iterations) and elbow selection.

Written against numpy only so the exact update rules stay inspectable:
empty clusters are repaired by seizing the point farthest from its current
centroid, and WCSS is recomputed from the final assignment so reported
scores always match the returned centroids.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidK, RangeTooShort

logger = logging.getLogger(__name__)

# Lloyd iteration limit and the centroid shift below which it stops
MAX_ITER = 300
TOL = 1e-8


@dataclass(frozen=True)
class KMeansResult:
    centroids: np.ndarray  # (k, m)
    assignments: np.ndarray  # (n,) int
    wcss: float
    n_iter: int
    converged: bool


@dataclass(frozen=True)
class ElbowResult:
    k: int
    fits: dict[int, KMeansResult]  # best-of-n_init fit per candidate k
    scores: dict[int, float]  # second difference per interior k

    @property
    def wcss_curve(self) -> dict[int, float]:
        return {k: fit.wcss for k, fit in self.fits.items()}


def _as_seedseq(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("nkm,nkm->nk", diff, diff)


def nearest_centroid(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n,) index of each row's nearest centroid; ties go to the lower index."""
    return _sq_dists(X, centroids).argmin(axis=1)


def _means(
    X: np.ndarray, assignments: np.ndarray, centroids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """A copy of centroids with each non-empty cluster moved to its members'
    mean; counts[j] is cluster j's size. One stable sort groups each
    cluster's rows in their order in X, and a cluster's sum divided by its
    count is what X[mask].mean(axis=0) gives, bit for bit."""
    means = centroids.copy()
    rows = X[assignments.argsort(kind="stable")]
    start = 0
    for j, count in enumerate(counts.tolist()):
        if count:
            means[j] = np.add.reduce(rows[start : start + count], axis=0) / count
            start += count
    return means


def _init_plus_plus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[rng.integers(n)]
    diff = X - centroids[0]
    closest = np.einsum("nm,nm->n", diff, diff)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # all remaining points coincide with a chosen centroid
            centroids[j] = X[rng.integers(n)]
            continue
        probs = closest / total
        idx = rng.choice(n, p=probs)
        centroids[j] = X[idx]
        diff = X - centroids[j]
        closest = np.minimum(closest, np.einsum("nm,nm->n", diff, diff))
    return centroids


def kmeans(X: np.ndarray, k: int, seed: int | np.random.SeedSequence = 0) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding.

    Stops when assignments are unchanged or the largest centroid shift
    falls below TOL, or after MAX_ITER iterations. Raises InvalidK unless
    1 <= k <= n.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise EmptyInput(f"expected a 2-D matrix, got ndim={X.ndim}")
    n = X.shape[0]
    if n == 0:
        raise EmptyInput("cannot cluster an empty matrix")
    if k < 1 or k > n:
        raise InvalidK(f"k must be in [1, {n}], got {k}")

    rng = np.random.default_rng(seed)
    centroids = _init_plus_plus(X, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    converged = False
    n_iter = 0

    for n_iter in range(1, MAX_ITER + 1):
        new_assign = nearest_centroid(X, centroids)
        counts = np.bincount(new_assign, minlength=k)
        new_centroids = _means(X, new_assign, centroids, counts)

        # repair empty clusters: seize the point farthest from its centroid
        empties = (counts == 0).nonzero()[0]
        if empties.size:
            for j in empties:
                diff = X - new_centroids[new_assign]
                donor = int(np.argmax(np.einsum("nm,nm->n", diff, diff)))
                new_assign[donor] = j
                new_centroids[j] = X[donor]
            counts = np.bincount(new_assign, minlength=k)
            new_centroids = _means(X, new_assign, new_centroids, counts)

        shift = float(np.max(np.abs(new_centroids - centroids)))
        unchanged = bool(np.array_equal(new_assign, assignments))
        centroids = new_centroids
        assignments = new_assign
        if unchanged or shift < TOL:
            converged = True
            break

    wcss = float(_sq_dists(X, centroids)[np.arange(n), assignments].sum())
    if not converged:
        logger.warning("kmeans did not converge in %d iterations", MAX_ITER)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        wcss=wcss,
        n_iter=n_iter,
        converged=converged,
    )


def kmeans_restarts(
    X: np.ndarray,
    k: int,
    seed: int | np.random.SeedSequence = 0,
    n_init: int = 10,
) -> KMeansResult:
    """Best-of-n restarts; child seeds derive deterministically from seed."""
    if n_init < 1:
        raise InvalidK(f"n_init must be >= 1, got {n_init}")
    child_seeds = _as_seedseq(seed).spawn(n_init)
    best: KMeansResult | None = None
    for child in child_seeds:
        run = kmeans(X, k, seed=child)
        if best is None or run.wcss < best.wcss:
            best = run
    assert best is not None
    return best


def elbow_select_k(
    X: np.ndarray,
    k_min: int,
    k_max: int,
    seed: int | np.random.SeedSequence = 0,
    n_init: int = 10,
) -> ElbowResult:
    """Pick the interior k maximizing the second difference of the WCSS
    curve, wcss(k-1) - 2*wcss(k) + wcss(k+1); ties break toward smaller k.
    fits keeps each candidate's best-of-n_init fit, so k is never fitted twice."""
    if k_min < 1:
        raise InvalidK(f"k_min must be >= 1, got {k_min}")
    if k_max - k_min + 1 < 3:
        raise RangeTooShort(f"elbow needs at least 3 candidate k values, got [{k_min}, {k_max}]")
    n = np.asarray(X).shape[0]
    if k_max > n:
        raise InvalidK(f"k_max={k_max} exceeds the number of points ({n})")

    seq = _as_seedseq(seed).spawn(k_max - k_min + 1)
    fits = {
        k: kmeans_restarts(X, k, seed=child, n_init=n_init)
        for k, child in zip(range(k_min, k_max + 1), seq)
    }

    scores: dict[int, float] = {}
    for k in range(k_min + 1, k_max):
        scores[k] = fits[k - 1].wcss - 2.0 * fits[k].wcss + fits[k + 1].wcss
    best_k = max(sorted(scores), key=lambda k: (scores[k], -k))
    return ElbowResult(k=best_k, fits=fits, scores=scores)

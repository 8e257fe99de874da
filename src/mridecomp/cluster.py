"""k-means clustering (k-means++ init, Lloyd iterations) and elbow selection.

Written against numpy only so the exact update rules stay inspectable:
empty clusters are repaired by seizing the point farthest from its current
centroid, and WCSS is recomputed from the final assignment so reported
scores always match the returned centroids.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyInput, InvalidK, ShapeMismatch

logger = logging.getLogger(__name__)

# Lloyd iteration limit and the centroid shift below which it stops
MAX_ITER = 300
TOL = 1e-8
# restarts run in groups whose (restarts, n, k, m) distance temporary stays
# within this many bytes
_GROUP_BYTES = 8 << 20


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


def _as_seedseq(seed: int | np.random.SeedSequence) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _sq_dists(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances; for a (R, k, m) stack of
    centroids, (R, n, k)."""
    *stack, k, m = centroids.shape
    # every row minus every centroid, subtracted along rows of k*m values
    # (a (..., n, k, m) broadcast would loop over runs of only m)
    diff = np.tile(X, k) - centroids.reshape(*stack, 1, k * m)
    diff = diff.reshape(*stack, X.shape[0], k, m)
    return np.einsum("...nkm,...nkm->...nk", diff, diff)


def nearest_centroid(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n,) index of each row's nearest centroid; ties go to the lower index."""
    return _sq_dists(X, centroids).argmin(axis=-1)


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


def _stacked_means(
    X: np.ndarray, cells: np.ndarray, centroids: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """_means of every restart of a (R, k, m) stack at once, for m > 1.
    cells[r, i] is restart r's cluster of row i, counted from r*k.

    np.add.at adds each cluster's members in their order in X into a
    +0.0-filled buffer, as numpy's axis-0 add.reduce does at m > 1 (it too
    starts from +0.0, so a column of -0.0 sums to +0.0). At m = 1 that
    reduce sums pairwise, so only the per-restart _means matches it there."""
    R, k, m = centroids.shape
    sums = np.zeros(R * k * m)
    # one value per (restart, row, column), in that order
    np.add.at(
        sums,
        ((cells * m)[..., None] + np.arange(m)).ravel(),
        np.broadcast_to(X, (R, *X.shape)).ravel(),
    )
    means = centroids.copy()
    np.divide(sums.reshape(R, k, m), counts[..., None], out=means, where=counts[..., None] > 0)
    return means


def _repair(
    X: np.ndarray, assignments: np.ndarray, centroids: np.ndarray, counts: np.ndarray
) -> None:
    """Fill one restart's empty clusters in place: each seizes the point
    farthest from its current centroid, then every centroid is its members'
    mean again."""
    for j in (counts == 0).nonzero()[0]:
        diff = X - centroids[assignments]
        donor = int(np.argmax(np.einsum("nm,nm->n", diff, diff)))
        assignments[donor] = j
        centroids[j] = X[donor]
    counts = np.bincount(assignments, minlength=len(centroids))
    centroids[:] = _means(X, assignments, centroids, counts)


def _draw(rng: np.random.Generator, weights: np.ndarray, total: float) -> int:
    """An index drawn with probability weights / total, as
    rng.choice(len(weights), p=weights / total) draws it: the same index from
    the same one random() of the stream, without choice's argument checks.
    Weights whose total is not positive (every remaining point coincides
    with a chosen centroid) draw an index uniformly; an infinite total
    raises ValueError, as choice does."""
    if not total > 0.0:
        return int(rng.integers(len(weights)))
    if math.isinf(total):
        raise ValueError(f"k-means++ weights sum to {total}, which is not finite")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _init_plus_plus(X: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ seeding of R restarts at once, (R, k, m) centroids. Each
    restart draws from its own generator, in the order it would alone."""
    n = X.shape[0]
    centroids = np.empty((len(rngs), k, X.shape[1]), dtype=np.float64)
    centroids[:, 0] = X[[rng.integers(n) for rng in rngs]]
    diff = X - centroids[:, 0, None]
    closest = np.einsum("rnm,rnm->rn", diff, diff)
    for j in range(1, k):
        totals = np.add.reduce(closest, axis=1).tolist()
        picks = [_draw(rng, row, total) for rng, row, total in zip(rngs, closest, totals)]
        centroids[:, j] = X[picks]
        diff = X - centroids[:, j, None]
        np.minimum(closest, np.einsum("rnm,rnm->rn", diff, diff), out=closest)
    return centroids


def _lockstep(X: np.ndarray, k: int, seeds: list) -> list[KMeansResult]:
    """One k-means fit of X per seed, every restart in one loop."""
    n, m = X.shape
    centroids = _init_plus_plus(X, k, [np.random.default_rng(seed) for seed in seeds])
    final = centroids.copy()
    assignments = np.full((len(seeds), n), -1, dtype=np.int64)
    labels = assignments.copy()
    n_iters = np.full(len(seeds), MAX_ITER)
    converged = np.zeros(len(seeds), dtype=bool)
    active = np.arange(len(seeds))  # the restarts still iterating

    for n_iter in range(1, MAX_ITER + 1):
        new_assign = nearest_centroid(X, centroids)
        cells = new_assign + (np.arange(len(active)) * k)[:, None]
        counts = np.bincount(cells.ravel(), minlength=len(active) * k).reshape(-1, k)
        if m > 1:
            new_centroids = _stacked_means(X, cells, centroids, counts)
        else:
            new_centroids = np.stack(
                [_means(X, *parts) for parts in zip(new_assign, centroids, counts)]
            )
        for r in (counts == 0).any(axis=1).nonzero()[0]:
            _repair(X, new_assign[r], new_centroids[r], counts[r])

        shift = np.maximum.reduce(
            np.abs(new_centroids - centroids).reshape(len(active), -1), axis=1
        )
        stop = (new_assign == assignments).all(axis=1) | (shift < TOL)
        centroids, assignments = new_centroids, new_assign
        stopped = active[stop]
        final[stopped], labels[stopped] = centroids[stop], assignments[stop]
        n_iters[stopped], converged[stopped] = n_iter, True
        active, centroids, assignments = active[~stop], centroids[~stop], assignments[~stop]
        if not active.size:
            break
    final[active], labels[active] = centroids, assignments

    picked = np.take_along_axis(_sq_dists(X, final), labels[..., None], axis=2)[..., 0]
    wcss = np.add.reduce(picked, axis=1).tolist()
    return [
        KMeansResult(*fit)
        for fit in zip(final, labels, wcss, n_iters.tolist(), converged.tolist())
    ]


def _fit(X: np.ndarray, k: int, seeds: list) -> list[KMeansResult]:
    """One k-means fit of X per seed, in order. The restarts run in groups whose
    (restarts, n, k, m) distance temporary fits in _GROUP_BYTES, or one
    restart at a time when a single one does not fit."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got ndim={X.ndim}")
    n = X.shape[0]
    if n == 0:
        raise EmptyInput("cannot cluster an empty matrix")
    if k < 1 or k > n:
        raise InvalidK(f"k must be in [1, {n}], got {k}")

    group = max(1, _GROUP_BYTES // (n * k * X.shape[1] * X.itemsize))
    fits = []
    for start in range(0, len(seeds), group):
        fits += _lockstep(X, k, seeds[start : start + group])
    for fit in fits:
        if not fit.converged:
            logger.warning("kmeans did not converge in %d iterations", MAX_ITER)
    return fits


def kmeans_restarts(
    X: np.ndarray,
    k: int,
    seed: int | np.random.SeedSequence = 0,
    n_init: int = 10,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding, best of n_init restarts;
    child seeds derive deterministically from seed.

    A restart stops when assignments are unchanged or the largest centroid
    shift falls below TOL, or after MAX_ITER iterations. Raises InvalidK
    unless 1 <= k <= n. The restarts run in lockstep: each numpy call of the
    seeding and of a Lloyd iteration works on every restart still iterating,
    and each restart's arithmetic is that of running it alone, bit for bit.
    The best fit is the first with the smallest wcss."""
    if n_init < 1:
        raise InvalidK(f"n_init must be >= 1, got {n_init}")
    best: KMeansResult | None = None
    for run in _fit(X, k, _as_seedseq(seed).spawn(n_init)):
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
        raise ConfigError(f"elbow needs at least 3 candidate k values, got [{k_min}, {k_max}]")
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

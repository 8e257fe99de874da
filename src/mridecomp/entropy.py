"""Grey-level co-occurrence entropy and informative-slice ranking.

A slice's texture information content is measured as the Shannon entropy
(base 2) of its normalized grey-level co-occurrence matrix; subjects' slices
are ranked by that score and the top K kept. Defaults follow the canonical
texture setup: 8 grey levels, offset (0, 1), symmetric, normalized.

rank_slices takes a decoded Volume, as the pipeline passes it, and scores
its axial slices where they lie, in one kernel, _score_volume. It takes
every slice's min and max in one min and one max over the stored voxels. A
constant slice has one grey level, so one co-occurrence cell of probability
1 and entropy -0.0, and is neither quantized nor counted. The other slices
are promoted to float64 a cache-sized group at a time, quantized slice by
slice (nifti.quantize_block) and counted in one bincount per group
(glcm_block); then one reduction per count of non-zero cells sums every
entropy. Each score has the bits of one slice scored on its own.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyGlcm, InvalidK
from .nifti import Volume, quantize_block

logger = logging.getLogger(__name__)

# float64 pixel bytes _score_volume promotes at once: 4 slices at 128 x 128, or
# a whole 24 x 24 x 30 volume; a whole 128^3 volume is 16 MB and falls out of cache
_GROUP_BYTES = 512 * 1024


@dataclass(frozen=True)
class EntropyConfig:
    """Quantization and co-occurrence settings for slice scoring."""

    levels: int = 8
    offset: tuple[int, int] = (0, 1)
    symmetric: bool = True


@dataclass(frozen=True)
class RankedSlice:
    slice_index: int
    entropy: float


def _pair_window(shape: tuple[int, int], offset: tuple[int, int]) -> tuple[int, int, int, int]:
    """(r0, r1, c0, c1): rows r0:r1 and columns c0:c1 hold the first pixel of
    every in-bounds pair at offset in a slice of shape (nrows, ncols)."""
    dr, dc = offset
    if (dr, dc) == (0, 0):
        raise ConfigError("co-occurrence offset must not be (0, 0)")
    nrows, ncols = shape
    r0, r1 = max(0, -dr), nrows - max(0, dr)
    c0, c1 = max(0, -dc), ncols - max(0, dc)
    if r0 >= r1 or c0 >= c1:
        raise EmptyGlcm(f"no pixel pair fits offset {offset} in a {(nrows, ncols)} slice")
    return r0, r1, c0, c1


def glcm_block(
    indices: np.ndarray,
    levels: int,
    offset: tuple[int, int] = (0, 1),
    symmetric: bool = True,
) -> np.ndarray:
    """Co-occurrence probabilities of each slice indices[:, :, j] of grey
    levels in [0, levels), as a read-only (n_slices, levels, levels) array.

    Cell (i, j) counts in-bounds positions p with q[p] == i and
    q[p + offset] == j at the given (drow, dcol) offset. Symmetric mode adds
    the transpose; the counts are then divided by the slice's pair count.
    """
    r0, r1, c0, c1 = _pair_window(indices.shape[:2], offset)
    dr, dc = offset
    n_slices = indices.shape[2]
    # pair codes on the windows keep the block's layout, so the one ravel
    # below is a view; slice j's codes lie in [j * levels^2, (j + 1) * levels^2)
    codes = indices[r0:r1, c0:c1] * levels
    codes += indices[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    codes += np.arange(0, n_slices * levels * levels, levels * levels)
    counts = np.bincount(codes.ravel(order="K"), minlength=n_slices * levels * levels)
    matrices = counts.reshape(n_slices, levels, levels).astype(np.float64)
    if symmetric:
        matrices = matrices + matrices.transpose(0, 2, 1)
    # the counts sum to the pair count exactly, so no sum is needed
    matrices /= (r1 - r0) * (c1 - c0) * (2 if symmetric else 1)
    matrices.setflags(write=False)
    return matrices


def _entropies(probabilities: np.ndarray) -> np.ndarray:
    """-sum P log2 P over the non-zero cells of each matrix probabilities[j].

    Slices are sorted by their count K of non-zero cells, so each K's cells
    form one (slices, K) block, and one reduce over its rows adds each
    slice's terms in the order a 1-D sum of them does.
    """
    flat = probabilities.reshape(len(probabilities), -1)
    nonzero = flat > 0
    counts = np.count_nonzero(nonzero, axis=1)
    order = np.argsort(counts, kind="stable")
    cells = flat[order][nonzero[order]]  # row-major within a slice
    terms = cells * np.log2(cells)
    ks, runs = np.unique(counts[order], return_counts=True)
    sums = np.empty(len(flat))
    first = start = 0
    for k, run in zip(ks.tolist(), runs.tolist()):
        sums[order[first : first + run]] = np.add.reduce(
            terms[start : start + run * k].reshape(run, k), axis=-1
        )
        first, start = first + run, start + run * k
    return -sums


def _score_volume(voxels: np.ndarray, cfg: EntropyConfig) -> np.ndarray:
    """Entropy of each slice voxels[:, :, j], in any real dtype. Raises
    EmptyGlcm when no pixel pair fits cfg.offset in a slice."""
    if cfg.levels < 2:
        raise ConfigError(f"levels must be >= 2, got {cfg.levels}")
    nrows, ncols, n_slices = voxels.shape
    _pair_window((nrows, ncols), cfg.offset)
    # promotion to float64 keeps order, so it commutes with min and max
    lo = voxels.min(axis=(0, 1)).astype(np.float64)
    hi = voxels.max(axis=(0, 1)).astype(np.float64)
    scores = np.full(n_slices, -0.0)  # a constant slice's one cell: -(1.0 * log2 1.0)
    size = max(1, _GROUP_BYTES // (8 * nrows * ncols))
    varies = lo != hi
    groups = []  # [start, stop): consecutive non-constant slices, at most size of them
    for j in np.flatnonzero(varies).tolist():
        if groups and groups[-1][1] == j and j - groups[-1][0] < size:
            groups[-1][1] = j + 1
        else:
            groups.append([j, j + 1])
    if not groups:
        return scores
    probabilities = []
    for start, stop in groups:
        block = voxels[:, :, start:stop].astype(np.float64, order="F")
        indices = quantize_block(block, cfg.levels, lo[start:stop], hi[start:stop])
        probabilities.append(glcm_block(indices, cfg.levels, cfg.offset, cfg.symmetric))
    scores[varies] = _entropies(np.concatenate(probabilities))
    return scores


def rank_slices(volume: Volume, cfg: EntropyConfig = EntropyConfig()) -> list[RankedSlice]:
    """Score a volume's axial slices where they lie and sort them by
    descending entropy.

    A slice too small to hold any pair at the configured offset scores 0,
    with a warning. Ties break toward the lower slice index so rankings are
    reproducible.
    """
    try:
        scores = _score_volume(volume.voxels, cfg).tolist()
    except EmptyGlcm:
        scores = [0.0] * volume.dims[2]
        for i in range(volume.dims[2]):
            logger.warning(
                "slice %s/%d has no co-occurring pairs at offset %s; scoring 0",
                volume.subject_id, i, cfg.offset,
            )
    ranked = [RankedSlice(i, h) for i, h in enumerate(scores)]
    return sorted(ranked, key=lambda r: (-r.entropy, r.slice_index))


def select_top_k(ranked: list[RankedSlice], k: int = 20) -> list[RankedSlice]:
    """Keep the first min(k, len) entries of an already-ranked list."""
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    return list(ranked[:k])

"""Informative-slice selection by grey-level co-occurrence entropy.

A slice's texture information content is measured as the Shannon entropy
(base 2) of its normalized grey-level co-occurrence matrix, and the top K
slices by that score are kept. Defaults follow the canonical texture setup:
8 grey levels, offset (0, 1), symmetric, normalized.

rank_slices takes a decoded Volume, as the pipeline passes it, and returns
one score per axial slice, in slice order, from one kernel, _score_volume.
It takes every slice's min and max in one min and one max over the stored
voxels. A constant slice has one grey level, so one co-occurrence cell of
probability 1 and entropy -0.0, and is neither quantized nor counted. The
other slices are promoted to float64 a cache-sized group at a time,
quantized slice by slice (quantize_block) and counted in one bincount per
group (glcm_block); then one reduction per count of non-zero cells sums
every entropy. Each score has the bits of one slice scored on its own.
select_top_k picks the K highest of any such vector of scores.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyGlcm, InvalidK
from .nifti import Volume

logger = logging.getLogger(__name__)

# float64 pixel bytes _score_volume promotes at once: 4 slices at 128 x 128, or
# a whole 24 x 24 x 30 volume; a whole 128^3 volume is 16 MB and falls out of cache
_GROUP_BYTES = 512 * 1024


@dataclass(frozen=True)
class SliceSelectionConfig:
    """Quantization and co-occurrence settings for slice scoring, and how
    many of the highest-scoring slices to keep. levels is at most 256, the
    grey levels of 8-bit data: scoring holds float64 copies of each textured
    slice's levels x levels matrix, at the bound n_slices x 256^2 x 8 B per
    copy, 50 MB for the 96 textured slices of a 128^3 volume."""

    levels: int = 8
    offset: tuple[int, int] = (0, 1)
    symmetric: bool = True
    top_k: int = 20

    def validate(self) -> None:
        if self.levels < 2:
            raise ConfigError(f"slice_selection.levels must be >= 2, got {self.levels}")
        if self.levels > 256:
            raise ConfigError(f"slice_selection.levels must be <= 256, got {self.levels}")
        if self.offset == (0, 0):
            raise ConfigError("slice_selection.offset must be non-zero")
        if len(self.offset) != 2:
            raise ConfigError(f"slice_selection.offset must have 2 entries, got {self.offset}")
        if self.top_k < 1:
            raise ConfigError(f"slice_selection.top_k must be >= 1, got {self.top_k}")


def quantize_block(block: np.ndarray, levels: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Discretize each slice block[:, :, j], whose least and greatest pixel
    are lo[j] and hi[j], into `levels` (>= 2) grey levels by min-max binning,
    overwriting the float64 block; returns the read-only int64 indices in the
    block's shape and memory layout.

    index = floor((p - min) / (max - min) * levels), clamped to levels-1; a
    constant slice maps entirely to level 0. Invariant under positive affine
    intensity maps. When a slice's max - min overflows float64, the same map
    is applied to its halved pixels, min and max, so its indices stay in
    [0, levels) and keep the pixels' order.
    """
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = np.flatnonzero(np.isinf(span))
    if wide.size:
        lo = lo.copy()
        for j in wide:
            # halving is exact above the subnormals and keeps order; the halved span is finite
            block[:, :, j] *= 0.5
            lo[j], span[j] = lo[j] * 0.5, hi[j] * 0.5 - lo[j] * 0.5
    span[span == 0.0] = 1.0  # a constant slice: every p - min is 0
    block -= lo
    block /= span
    block *= levels
    # block >= 0, so clamping first and truncating is min(floor, levels-1)
    np.minimum(block, levels - 1, out=block)
    indices = block.astype(np.int64)
    indices.setflags(write=False)
    return indices


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


def _score_volume(voxels: np.ndarray, cfg: SliceSelectionConfig) -> np.ndarray:
    """Entropy of each slice voxels[:, :, j], in any real dtype. Raises
    EmptyGlcm when no pixel pair fits cfg.offset in a slice."""
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


def rank_slices(volume: Volume, cfg: SliceSelectionConfig = SliceSelectionConfig()) -> np.ndarray:
    """The (nz,) float64 entropies of a volume's axial slices, in slice order,
    scored where they lie; cfg is validated first.

    A slice too small to hold any pair at the configured offset scores 0,
    with a warning.
    """
    cfg.validate()
    try:
        return _score_volume(volume.voxels, cfg)
    except EmptyGlcm:
        for i in range(volume.dims[2]):
            logger.warning(
                "slice %s/%d has no co-occurring pairs at offset %s; scoring 0",
                volume.subject_id, i, cfg.offset,
            )
        return np.zeros(volume.dims[2])


def select_top_k(entropies: np.ndarray, k: int = 20) -> np.ndarray:
    """The int64 indices of the min(k, len) highest scores, in ascending
    order; of equal scores, the lower index is kept."""
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    return np.sort(np.argsort(-entropies, kind="stable")[:k])

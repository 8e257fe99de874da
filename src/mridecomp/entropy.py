"""Informative-slice selection by grey-level co-occurrence entropy.

A slice's texture information content is measured as the Shannon entropy
(base 2) of its normalized grey-level co-occurrence matrix, and the top K
slices by that score are kept. Defaults follow the canonical texture setup:
8 grey levels, offset (0, 1), symmetric, normalized.

rank_slices takes a decoded Volume, as the pipeline passes it, and returns
one score per axial slice, in slice order, from one kernel, _score_volume.
It takes the slices a cache-sized chunk at a time, and each chunk's slice
minima and maxima in one min and one max over its stored voxels. A constant
slice has one grey level, so one co-occurrence cell of probability 1 and
entropy -0.0, and is neither quantized nor counted. Each run of other
slices in a chunk is one group. quantize_block promotes a group to float64
and subtracts each slice's minimum in one subtract; divides once by
(max - min) / levels where that gives the same levels, else by max - min
and then multiplies by levels; and casts the clamped levels to uint8.
glcm_block counts the group's uint16 pair codes (uint32 past 65,536 bins)
in one bincount, spread over interleaved histogram copies while the bins
are few. Then one reduction per count of non-zero cells sums every entropy.
Each score has the bits of one slice scored on its own.
select_top_k picks the K highest of any such vector of scores.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyGlcm, InvalidK
from .nifti import Volume

logger = logging.getLogger(__name__)

# float64 pixel bytes _score_volume promotes at once: 8 slices at 128 x 128, or
# a whole 24 x 24 x 30 volume; a whole 128^3 volume is 16 MB and falls out of
# cache. Two threads ranking side by side hand the GIL over a few times per
# group, and rank 128^3 volumes 13-16 % faster in 1 MB groups than in 512 KB
# ones, as the two slice workers do; one thread alone is 3-5 % slower
_GROUP_BYTES = 1024 * 1024
# glcm_block counts in _COPIES histogram copies while they take at most
# _INTERLEAVED_BINS bins: 512 KB of counts, and pair codes that fit uint16
_COPIES = 4
_INTERLEAVED_BINS = 1 << 16
_TINY = np.finfo(np.float64).tiny  # the least normal float64


@dataclass(frozen=True)
class SliceSelectionConfig:
    """Quantization and co-occurrence settings for slice scoring, and how
    many of the highest-scoring slices to keep. levels is at most 256, the
    grey levels of 8-bit data: scoring holds float64 copies of each textured
    slice's levels x levels matrix, at the bound n_slices x 256^2 x 8 B per
    copy, 50 MB for the 96 textured slices of a 128^3 volume. A group's
    interleaved histogram copies add at most 512 KB of counts: at 256
    levels, a group counts into one copy."""

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
    """Discretize each slice block[:, :, j] of real pixels, whose least and
    greatest are lo[j] and hi[j] (float64), into `levels` (>= 2) grey levels
    by min-max binning, without writing the block; returns the read-only
    uint8 indices (uint16 above 256 levels) in the block's shape and memory
    layout.

    index = floor((p - min) / (max - min) * levels), clamped to levels-1; a
    constant slice maps entirely to level 0. Invariant under positive affine
    intensity maps. When a slice's max - min overflows float64, the same map
    is applied to its halved pixels, min and max, so its indices stay in
    [0, levels) and keep the pixels' order.
    """
    # promotion to float64 is exact, so one mixed-dtype subtract is p - min;
    # where max - min overflows, the halved pixels below replace it
    with np.errstate(over="ignore"):
        span = hi - lo
        scaled = np.subtract(block, lo, dtype=np.float64)
    if np.isinf(span).any():
        for j in np.flatnonzero(np.isinf(span)).tolist():
            # halving is exact above the subnormals and keeps order; the halved span is finite
            np.subtract(block[:, :, j] * 0.5, lo[j] * 0.5, out=scaled[:, :, j])
            span[j] = hi[j] * 0.5 - lo[j] * 0.5
    if not span.all():
        span[span == 0.0] = 1.0  # a constant slice: every p - min is 0
    step = span / levels
    if levels & (levels - 1) == 0 and step.min() >= _TINY:
        # scaling by a power of two is exact while the scaled value is normal,
        # so it commutes with rounding: each quotient is 2^k times x / span
        # rounded, or below 1 in both forms, and every floor is the same
        scaled /= step
    else:
        scaled /= span
        scaled *= levels
    # scaled >= 0, so clamping first and truncating is min(floor, levels-1)
    np.minimum(scaled, levels - 1, out=scaled)
    indices = scaled.astype(np.uint8 if levels <= 256 else np.uint16)
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


@functools.lru_cache(maxsize=8)
def _code_offsets(rows: int, n_slices: int, cells: int, copies: int, dtype: np.dtype) -> np.ndarray:
    """The read-only (rows, 1, n_slices) Fortran-ordered offsets that move the
    pair codes of window row r of slice j into copy r % copies of slice j's
    cells: (r % copies) * n_slices * cells + j * cells."""
    copy = (np.arange(rows) % copies * (n_slices * cells))[:, None, None]
    offsets = np.asfortranarray(copy + np.arange(0, n_slices * cells, cells), dtype=dtype)
    offsets.setflags(write=False)
    return offsets


def glcm_block(
    indices: np.ndarray,
    levels: int,
    offset: tuple[int, int] = (0, 1),
    symmetric: bool = True,
) -> np.ndarray:
    """Co-occurrence probabilities of each slice indices[:, :, j] of integer
    grey levels in [0, levels), as a read-only (n_slices, levels, levels)
    array.

    Cell (i, j) counts in-bounds positions p with q[p] == i and
    q[p + offset] == j at the given (drow, dcol) offset. Symmetric mode adds
    the transpose; the counts are then divided by the slice's pair count.
    """
    r0, r1, c0, c1 = _pair_window(indices.shape[:2], offset)
    dr, dc = offset
    n_slices = indices.shape[2]
    cells = levels * levels
    # most consecutive pair codes are equal, and bincount then waits on one
    # counter: while the bins stay few, window row r counts into copy
    # r % _COPIES, so in a Fortran-ordered block, as a NIfTI volume's slices
    # are, consecutive codes go to different counters
    copies = _COPIES if _COPIES * n_slices * cells <= _INTERLEAVED_BINS else 1
    bins = copies * n_slices * cells
    dtype = np.dtype(np.uint16 if bins <= 1 << 16 else np.uint32)
    # pair codes on the windows keep the block's layout, so the one ravel
    # below is a view; slice j's codes lie in [j * cells, (j + 1) * cells) of
    # each copy, and the indices are below levels, so every cast is exact
    codes = np.multiply(indices[r0:r1, c0:c1], levels, dtype=dtype, casting="unsafe")
    np.add(codes, indices[r0 + dr : r1 + dr, c0 + dc : c1 + dc], out=codes, casting="unsafe")
    codes += _code_offsets(r1 - r0, n_slices, cells, copies, dtype)
    counts = np.bincount(codes.ravel(order="K"), minlength=bins)
    if copies > 1:
        counts = counts.reshape(copies, -1).sum(axis=0)
    counts = counts.reshape(n_slices, levels, levels)
    if symmetric:
        counts = counts + counts.transpose(0, 2, 1)
    # the counts sum to the pair count exactly, so no sum is needed; each
    # count is an exact float64, so dividing its integer is dividing its float
    matrices = counts / ((r1 - r0) * (c1 - c0) * (2 if symmetric else 1))
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
    scores = np.full(n_slices, -0.0)  # a constant slice's one cell: -(1.0 * log2 1.0)
    size = max(1, _GROUP_BYTES // (8 * nrows * ncols))
    probabilities, textured = [], []
    for first in range(0, n_slices, size):
        # each chunk's min and max are taken while its voxels are in cache;
        # promotion to float64 keeps order, so it commutes with min and max
        chunk = voxels[:, :, first : first + size]
        lo = chunk.min(axis=(0, 1)).astype(np.float64)
        hi = chunk.max(axis=(0, 1)).astype(np.float64)
        groups = []  # [start, stop): consecutive non-constant slices of the chunk
        for j in np.flatnonzero(lo != hi).tolist():
            if groups and groups[-1][1] == j:
                groups[-1][1] = j + 1
            else:
                groups.append([j, j + 1])
        for start, stop in groups:
            indices = quantize_block(chunk[:, :, start:stop], cfg.levels, lo[start:stop], hi[start:stop])
            probabilities.append(glcm_block(indices, cfg.levels, cfg.offset, cfg.symmetric))
            textured.extend(range(first + start, first + stop))
    if textured:
        scores[textured] = _entropies(np.concatenate(probabilities))
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

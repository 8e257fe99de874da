"""Grey-level co-occurrence entropy and informative-slice ranking.

A slice's texture information content is measured as the Shannon entropy
(base 2) of its normalized grey-level co-occurrence matrix; subjects' slices
are ranked by that score and the top K kept. Defaults follow the canonical
texture setup: 8 grey levels, offset (0, 1), symmetric, normalized.

rank_slices scores a subject's slices in cache-sized groups: one float64
block per group, quantized slice by slice (nifti.quantize_block) and
counted in one bincount (glcm_block), then one entropy sum per slice. glcm
and slice_entropy are the one-slice case, and give the same bits.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyGlcm, EmptyInput, InvalidK, NotNormalized
from .nifti import QuantizedSlice, Slice2D, quantize_block

logger = logging.getLogger(__name__)

# float64 pixel bytes rank_slices scores at once: 4 slices at 128 x 128, or a
# whole 24 x 24 x 30 volume; a whole 128^3 volume is 16 MB and falls out of cache
_GROUP_BYTES = 512 * 1024


@dataclass(frozen=True)
class EntropyConfig:
    """Quantization and co-occurrence settings for slice scoring."""

    levels: int = 8
    offset: tuple[int, int] = (0, 1)
    symmetric: bool = True


@dataclass(frozen=True)
class GlcmMatrix:
    levels: int
    probabilities: np.ndarray


@dataclass(frozen=True)
class RankedSlice:
    subject_id: str
    slice_index: int
    entropy: float


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
    dr, dc = offset
    if (dr, dc) == (0, 0):
        raise ConfigError("co-occurrence offset must not be (0, 0)")
    nrows, ncols, n_slices = indices.shape
    r0, r1 = max(0, -dr), nrows - max(0, dr)
    c0, c1 = max(0, -dc), ncols - max(0, dc)
    if r0 >= r1 or c0 >= c1:
        raise EmptyGlcm(f"no pixel pair fits offset {offset} in a {(nrows, ncols)} slice")

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


def glcm(
    q: QuantizedSlice,
    offset: tuple[int, int] = (0, 1),
    symmetric: bool = True,
) -> GlcmMatrix:
    """glcm_block of one quantized slice."""
    probabilities = glcm_block(q.indices[:, :, None], q.levels, offset, symmetric)[0]
    return GlcmMatrix(levels=q.levels, probabilities=probabilities)


def glcm_entropy(g: GlcmMatrix) -> float:
    """Shannon entropy in bits of a normalized co-occurrence matrix.

    H = -sum_ij P[i][j] * log2 P[i][j], with 0 * log 0 taken as 0.
    """
    p = g.probabilities
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise NotNormalized(f"matrix sums to {total!r}, expected 1")
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def _score_group(slices, cfg: EntropyConfig) -> list[float]:
    """Entropy of each of slices, which share one shape, from one float64
    block of their pixels; a slice too small to contain any pair at the
    configured offset scores 0, with a warning."""
    block = np.empty((*np.shape(slices[0].pixels), len(slices)), order="F")
    np.stack([s.pixels for s in slices], axis=2, out=block)
    indices = quantize_block(block, cfg.levels)
    try:
        probabilities = glcm_block(indices, cfg.levels, cfg.offset, cfg.symmetric)
    except EmptyGlcm:
        for s in slices:
            logger.warning(
                "slice %s/%d has no co-occurring pairs at offset %s; scoring 0",
                s.subject_id, s.slice_index, cfg.offset,
            )
        return [0.0] * len(slices)
    # one sum per slice, so each runs in the order it does for a lone slice
    return [glcm_entropy(GlcmMatrix(cfg.levels, p)) for p in probabilities]


def slice_entropy(s: Slice2D, cfg: EntropyConfig = EntropyConfig()) -> float:
    """Quantize a slice and score it by co-occurrence entropy.

    Slices too small to contain any pair at the configured offset score 0.
    """
    return _score_group([s], cfg)[0]


def rank_slices(slices, cfg: EntropyConfig = EntropyConfig()) -> list[RankedSlice]:
    """Score a single subject's slices and sort them by descending entropy.

    Consecutive slices of one shape are scored together, as many at a time
    as fit _GROUP_BYTES of float64 pixels, so each group's temporaries stay
    in cache. Ties break toward the lower slice index so rankings are
    reproducible.
    """
    if not slices:
        raise EmptyInput("no slices to rank")
    subjects = {s.subject_id for s in slices}
    if len(subjects) != 1:
        raise ValueError(f"rank_slices expects a single subject, got {sorted(subjects)}")
    scores = []
    for shape, run in itertools.groupby(slices, key=lambda s: np.shape(s.pixels)):
        run = list(run)
        size = max(1, _GROUP_BYTES // max(1, 8 * math.prod(shape)))
        for start in range(0, len(run), size):
            scores += _score_group(run[start : start + size], cfg)
    ranked = [RankedSlice(s.subject_id, s.slice_index, h) for s, h in zip(slices, scores)]
    return sorted(ranked, key=lambda r: (-r.entropy, r.slice_index))


def select_top_k(ranked: list[RankedSlice], k: int = 20) -> list[RankedSlice]:
    """Keep the first min(k, len) entries of an already-ranked list."""
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    return list(ranked[:k])

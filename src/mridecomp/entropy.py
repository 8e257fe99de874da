"""Grey-level co-occurrence entropy and informative-slice ranking.

A slice's texture information content is measured as the Shannon entropy
(base 2) of its normalized grey-level co-occurrence matrix; subjects' slices
are ranked by that score and the top K kept. Defaults follow the canonical
texture setup: 8 grey levels, offset (0, 1), symmetric, normalized.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import EmptyGlcm, EmptyInput, InvalidK, NotNormalized, ZeroOffset
from .nifti import QuantizedSlice, Slice2D, quantize

logger = logging.getLogger(__name__)


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


def glcm(
    q: QuantizedSlice,
    offset: tuple[int, int] = (0, 1),
    symmetric: bool = True,
) -> GlcmMatrix:
    """Co-occurrence probabilities of grey-level pairs at the given (drow, dcol) offset.

    Cell (i, j) counts in-bounds positions p with q[p] == i and
    q[p + offset] == j. Symmetric mode adds the transpose; the counts are
    then divided by the total pair count.
    """
    dr, dc = offset
    if (dr, dc) == (0, 0):
        raise ZeroOffset("co-occurrence offset must not be (0, 0)")
    idx = q.indices
    nrows, ncols = idx.shape
    r0, r1 = max(0, -dr), nrows - max(0, dr)
    c0, c1 = max(0, -dc), ncols - max(0, dc)
    if r0 >= r1 or c0 >= c1:
        raise EmptyGlcm(f"no pixel pair fits offset {offset} in a {idx.shape} slice")

    levels = q.levels
    # pair codes on the 2-D windows keep the slice's layout, so the one
    # ravel below is a view and a Fortran-ordered slice is never copied to C order
    codes = idx[r0:r1, c0:c1] * levels
    codes += idx[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    counts = np.bincount(codes.ravel(order="K"), minlength=levels * levels)
    matrix = counts.reshape(levels, levels).astype(np.float64)
    if symmetric:
        matrix = matrix + matrix.T
    # the counts sum to the pair count exactly, so no sum is needed
    matrix /= codes.size * (2 if symmetric else 1)
    matrix.setflags(write=False)
    return GlcmMatrix(levels=levels, probabilities=matrix)


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


def slice_entropy(s: Slice2D, cfg: EntropyConfig = EntropyConfig()) -> float:
    """Quantize a slice and score it by co-occurrence entropy.

    Slices too small to contain any pair at the configured offset score 0.
    """
    q = quantize(s, cfg.levels)
    try:
        g = glcm(q, offset=cfg.offset, symmetric=cfg.symmetric)
    except EmptyGlcm:
        logger.warning(
            "slice %s/%d has no co-occurring pairs at offset %s; scoring 0",
            s.subject_id, s.slice_index, cfg.offset,
        )
        return 0.0
    return glcm_entropy(g)


def rank_slices(slices, cfg: EntropyConfig = EntropyConfig()) -> list[RankedSlice]:
    """Score a single subject's slices and sort them by descending entropy.

    Ties break toward the lower slice index so rankings are reproducible.
    """
    if not slices:
        raise EmptyInput("no slices to rank")
    subjects = {s.subject_id for s in slices}
    if len(subjects) != 1:
        raise ValueError(f"rank_slices expects a single subject, got {sorted(subjects)}")
    ranked = [RankedSlice(s.subject_id, s.slice_index, slice_entropy(s, cfg)) for s in slices]
    return sorted(ranked, key=lambda r: (-r.entropy, r.slice_index))


def select_top_k(ranked: list[RankedSlice], k: int = 20) -> list[RankedSlice]:
    """Keep the first min(k, len) entries of an already-ranked list."""
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    return list(ranked[:k])

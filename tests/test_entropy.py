"""Co-occurrence matrices, entropy scoring, and slice ranking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mridecomp.entropy import (
    EntropyConfig,
    GlcmMatrix,
    glcm,
    glcm_entropy,
    rank_slices,
    select_top_k,
    slice_entropy,
)
from mridecomp.errors import EmptyGlcm, EmptyInput, InvalidK, NotNormalized, ZeroOffset
from mridecomp.nifti import QuantizedSlice, quantize

from conftest import make_slice
from oracles import entropy_brute, glcm_brute


def quantized(indices, levels=None):
    indices = np.asarray(indices, dtype=np.int64)
    return QuantizedSlice(levels=levels or int(indices.max()) + 1, indices=indices)


def test_two_by_two_example():
    # [[0,0],[1,1]] with a rightward offset: pairs (0,0) and (1,1), so the
    # symmetric normalized matrix is diag(0.5, 0.5) and the entropy is 1 bit
    g = glcm(quantized([[0, 0], [1, 1]]), offset=(0, 1), symmetric=True)
    np.testing.assert_allclose(g.probabilities, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
    assert glcm_entropy(g) == pytest.approx(1.0, abs=1e-12)


def test_known_distribution_entropy():
    g = GlcmMatrix(
        levels=2,
        probabilities=np.array([[0.5, 0.25], [0.25, 0.0]]),
    )
    assert glcm_entropy(g) == pytest.approx(1.5, abs=1e-12)


def test_asymmetric_counts():
    # [[0,1],[1,0]] rightward: pairs (0,1) and (1,0) once each, of 2 pairs
    g = glcm(quantized([[0, 1], [1, 0]]), offset=(0, 1), symmetric=False)
    np.testing.assert_array_equal(g.probabilities, [[0.0, 0.5], [0.5, 0.0]])


def test_vertical_offset():
    # downward: both pairs are (0,1)
    g = glcm(quantized([[0, 0], [1, 1]]), offset=(1, 0), symmetric=False)
    np.testing.assert_array_equal(g.probabilities, [[0.0, 1.0], [0.0, 0.0]])


def test_negative_offset_matches_brute_force():
    idx = np.array([[0, 1, 2], [2, 1, 0], [1, 1, 0]])
    for offset in [(0, -1), (-1, 0), (1, 1), (-1, 1)]:
        g = glcm(quantized(idx), offset=offset, symmetric=False)
        counts = glcm_brute(idx, 3, offset, symmetric=False)
        np.testing.assert_array_equal(g.probabilities, counts / counts.sum())


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 100_000),
    nr=st.integers(2, 4),
    nc=st.integers(2, 4),
    levels=st.integers(2, 5),
    dr=st.integers(-2, 2),
    dc=st.integers(-2, 2),
    symmetric=st.booleans(),
)
def test_glcm_matches_brute_force(seed, nr, nc, levels, dr, dc, symmetric):
    if (dr, dc) == (0, 0):
        return
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, levels, size=(nr, nc))
    q = quantized(idx, levels)
    try:
        g = glcm(q, offset=(dr, dc), symmetric=symmetric)
    except EmptyGlcm:
        assert abs(dr) >= nr or abs(dc) >= nc
        return
    counts = glcm_brute(idx, levels, (dr, dc), symmetric)
    np.testing.assert_array_equal(g.probabilities, counts / counts.sum())
    assert glcm_entropy(g) == pytest.approx(entropy_brute(counts), abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 100_000),
    nr=st.integers(2, 6),
    nc=st.integers(2, 6),
    levels=st.integers(2, 8),
    dr=st.integers(-2, 2),
    dc=st.integers(-2, 2),
    layout=st.sampled_from(["fortran", "volume_slice", "strided"]),
)
def test_glcm_matches_brute_force_on_views(seed, nr, nc, levels, dr, dc, layout):
    """Slices of a volume are Fortran-ordered or strided views, not C-contiguous arrays."""
    if (dr, dc) == (0, 0) or abs(dr) >= nr or abs(dc) >= nc:
        return
    rng = np.random.default_rng(seed)
    if layout == "fortran":
        idx = np.asfortranarray(rng.integers(0, levels, size=(nr, nc)))
    elif layout == "volume_slice":
        idx = np.asfortranarray(rng.integers(0, levels, size=(nr, nc, 3)))[:, :, 1]
    else:
        idx = rng.integers(0, levels, size=(2 * nr, 3 * nc))[::2, ::3]
    assert not idx.flags.c_contiguous
    g = glcm(QuantizedSlice(levels=levels, indices=idx), offset=(dr, dc))
    counts = glcm_brute(np.ascontiguousarray(idx), levels, (dr, dc), True)
    np.testing.assert_allclose(g.probabilities, counts / counts.sum(), atol=1e-12)


def test_zero_offset_rejected():
    with pytest.raises(ZeroOffset):
        glcm(quantized([[0, 1]]), offset=(0, 0))


def test_offset_larger_than_slice_rejected():
    with pytest.raises(EmptyGlcm):
        glcm(quantized([[0, 1], [1, 0]]), offset=(0, 5))


def test_unnormalized_matrix_rejected_by_entropy():
    # pair counts of a hand-built matrix, not divided by their sum
    g = GlcmMatrix(levels=2, probabilities=np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotNormalized):
        glcm_entropy(g)


def test_entropy_upper_bound():
    # at most 2*log2(levels) bits for a levels x levels distribution
    rng = np.random.default_rng(5)
    for levels in (2, 4, 8):
        s = make_slice(rng.normal(size=(16, 16)))
        h = slice_entropy(s, EntropyConfig(levels=levels))
        assert 0.0 <= h <= 2.0 * math.log2(levels) + 1e-12


def test_constant_slice_scores_zero():
    assert slice_entropy(make_slice(np.full((8, 8), 7.0))) == 0.0


def test_single_pixel_slice_scores_zero():
    # no pair fits any offset; scorer falls back to 0 with a warning
    assert slice_entropy(make_slice([[1.0]])) == 0.0


def test_slice_entropy_equals_manual_chain(rng):
    s = make_slice(rng.normal(size=(12, 12)))
    cfg = EntropyConfig(levels=8, offset=(0, 1), symmetric=True)
    manual = glcm_entropy(glcm(quantize(s, 8), offset=(0, 1), symmetric=True))
    assert slice_entropy(s, cfg) == manual


def test_affine_intensity_invariance(rng):
    cfg = EntropyConfig()
    for _ in range(5):
        pixels = rng.normal(size=(10, 10))
        base = slice_entropy(make_slice(pixels), cfg)
        for a in (0.5, 3.0):
            for b in (-10.0, 100.0):
                assert slice_entropy(make_slice(a * pixels + b), cfg) == base


# --- ranking -----------------------------------------------------------------


def test_rank_slices_descending_with_index_ties():
    flat = make_slice(np.zeros((4, 4)), slice_index=0)
    textured = make_slice(np.arange(16.0).reshape(4, 4), slice_index=1)
    flat2 = make_slice(np.ones((4, 4)), slice_index=2)
    ranked = rank_slices([flat, textured, flat2])
    assert [r.slice_index for r in ranked] == [1, 0, 2]  # tie 0-vs-2 keeps index order
    assert ranked[0].entropy > ranked[1].entropy
    assert ranked[1].entropy == ranked[2].entropy == 0.0


def test_rank_slices_rejects_empty_and_mixed_subjects():
    with pytest.raises(EmptyInput):
        rank_slices([])
    a = make_slice(np.zeros((2, 2)), subject_id="a")
    b = make_slice(np.zeros((2, 2)), subject_id="b")
    with pytest.raises(ValueError):
        rank_slices([a, b])


def test_select_top_k_prefix_and_clamp():
    slices = [make_slice(np.random.default_rng(i).normal(size=(6, 6)), slice_index=i) for i in range(10)]
    ranked = rank_slices(slices)
    top3 = select_top_k(ranked, 3)
    assert top3 == ranked[:3]
    assert select_top_k(ranked, 99) == ranked
    with pytest.raises(InvalidK):
        select_top_k(ranked, 0)

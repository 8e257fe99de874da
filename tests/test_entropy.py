"""Co-occurrence matrices, entropy scoring, and slice ranking."""

import logging
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mridecomp import entropy
from mridecomp.entropy import SliceSelectionConfig, rank_slices, select_top_k
from mridecomp.errors import ConfigError, EmptyGlcm, InvalidK
from mridecomp.nifti import Volume

from oracles import (
    QuantizedSlice,
    entropy_brute,
    glcm,
    glcm_brute,
    glcm_entropy,
    quantize,
    slice_entropy,
    slice_entropy_reference,
    top_k_reference,
)


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
    probabilities = np.array([[[0.5, 0.25], [0.25, 0.0]], [[1.0, 0.0], [0.0, 0.0]]])
    assert entropy._entropies(probabilities).tobytes() == np.array([1.5, -0.0]).tobytes()


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
    with pytest.raises(ConfigError, match=r"^co-occurrence offset must not be \(0, 0\)$"):
        glcm(quantized([[0, 1]]), offset=(0, 0))


def test_offset_larger_than_slice_rejected():
    with pytest.raises(EmptyGlcm):
        glcm(quantized([[0, 1], [1, 0]]), offset=(0, 5))


def test_entropy_upper_bound():
    # at most 2*log2(levels) bits for a levels x levels distribution
    rng = np.random.default_rng(5)
    for levels in (2, 4, 8):
        h = slice_entropy(rng.normal(size=(16, 16)), SliceSelectionConfig(levels=levels))
        assert 0.0 <= h <= 2.0 * math.log2(levels) + 1e-12


def test_constant_slice_scores_zero():
    assert slice_entropy(np.full((8, 8), 7.0)) == 0.0


def test_single_pixel_slice_scores_zero():
    # no pair fits any offset; scorer falls back to 0 with a warning
    assert slice_entropy(np.array([[1.0]])) == 0.0


def test_slice_entropy_equals_manual_chain(rng):
    pixels = rng.normal(size=(12, 12))
    cfg = SliceSelectionConfig(levels=8, offset=(0, 1), symmetric=True)
    manual = glcm_entropy(glcm(quantize(pixels, 8), offset=(0, 1), symmetric=True))
    assert slice_entropy(pixels, cfg) == manual


def test_affine_intensity_invariance(rng):
    cfg = SliceSelectionConfig()
    for _ in range(5):
        pixels = rng.normal(size=(10, 10))
        base = slice_entropy(pixels, cfg)
        for a in (0.5, 3.0):
            for b in (-10.0, 100.0):
                assert slice_entropy(a * pixels + b, cfg) == base


# --- ranking -----------------------------------------------------------------


@settings(deadline=None, max_examples=300)
@given(
    scores=st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 2.5]),
            st.floats(-8.0, 8.0, allow_nan=False, allow_subnormal=False),
        ),
        max_size=12,
    ),
    data=st.data(),
)
def test_select_top_k_matches_reference(scores, data):
    """select_top_k keeps the k highest scores, the lower index first among
    equal ones (+0.0 and -0.0 are equal), and returns their int64 indices in
    ascending order; k below 1 is rejected."""
    entropies = np.array(scores, dtype=np.float64)
    k = data.draw(st.integers(1, len(scores) + 2), label="k")
    got = select_top_k(entropies, k)
    assert got.dtype == np.int64
    assert got.tolist() == top_k_reference(scores, k)
    with pytest.raises(InvalidK):
        select_top_k(entropies, data.draw(st.integers(-3, 0), label="bad k"))


def _volume(rng, dtype, shape, layout, constant, overflow, levels):
    """A volume of random dtype values with some constant slices; for
    float64, some slices whose max - min overflows float64; and for float32
    and float64, some slices whose pixels are subnormals of the dtype and
    some whose max - min lies just above levels times the dtype's least
    normal number. In float64, (max - min) / levels is then subnormal, or a
    normal number close to the least."""
    info = np.iinfo(dtype) if np.dtype(dtype).kind in "iu" else np.finfo(dtype)
    if np.dtype(dtype).kind in "iu":
        volume = rng.integers(info.min, info.max, size=shape, dtype=dtype, endpoint=True)
    else:
        volume = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 6)).astype(dtype)
    for j in constant:
        volume[:, :, j] = volume[0, 0, j]
    for j in overflow:
        volume[:, :, j] = rng.choice([info.min, info.max, 0.0, 1.0], size=shape[:2])
        volume[0, 0, j], volume[-1, -1, j] = info.min, info.max
    if np.dtype(dtype).kind == "f":
        for j in range(shape[2]):
            if j in constant or j in overflow or rng.random() >= 0.3:
                continue
            if rng.random() < 0.5:  # float64: {0, 5e-324, 1e-323, 2e-323}
                values = np.array([0, 1, 2, 4]) * info.smallest_subnormal
            else:
                span = np.nextafter(info.tiny * levels, np.inf) * rng.choice([1, 1 + info.eps, 3])
                values = np.concatenate([np.arange(levels + 1) * (span / levels), rng.uniform(0, span, 8)])
            volume[:, :, j] = rng.choice(values.astype(dtype), size=shape[:2])
            volume[0, 0, j], volume[-1, -1, j] = values.min(), values.max()
    return np.asarray(volume, order=layout)


@settings(deadline=None, max_examples=150)
@given(
    dtype=st.sampled_from(["u1", "i2", "f4", "f8"]),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 9)),
    layout=st.sampled_from(["F", "C"]),
    per_group=st.integers(1, 10),
    levels=st.sampled_from([2, 3, 8, 16]),
    offset=st.sampled_from([(0, 1), (1, 0), (1, 1), (-1, 2)]),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grouped_scores_match_per_slice_reference(
    dtype, shape, layout, per_group, levels, offset, symmetric, seed
):
    """rank_slices scores every slice bit for bit as quantize_reference ->
    glcm_reference -> glcm_entropy scores it alone, however its volume's
    slices fall into groups."""
    rng = np.random.default_rng(seed)
    nz = shape[2]
    constant = rng.choice(nz, size=rng.integers(0, nz + 1), replace=False)
    overflow = [j for j in range(nz) if j not in constant and rng.random() < 0.3] if dtype == "f8" else []
    voxels = _volume(rng, dtype, shape, layout, constant, overflow, levels)
    cfg = SliceSelectionConfig(levels=levels, offset=offset, symmetric=symmetric)
    # per_group slices fit the patched budget, so groups split mid-volume
    with mock.patch.object(entropy, "_GROUP_BYTES", per_group * 8 * shape[0] * shape[1]):
        got = rank_slices(Volume("s", shape, voxels, datatype_code=0), cfg)
    want = [slice_entropy_reference(voxels[:, :, i], cfg) for i in range(nz)]
    assert got.tobytes() == np.array(want).tobytes()
    for k in range(1, nz + 1):
        assert select_top_k(got, k).tolist() == top_k_reference(want, k)


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(["u1", "i2", "i4", "f4", "f8", "scaled"]),
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 9)),
    layout=st.sampled_from(["F", "C"]),
    per_group=st.integers(1, 10),
    levels=st.sampled_from([2, 3, 8, 16, 256]),
    offset=st.sampled_from([(0, 1), (1, 0), (1, 1), (-1, 2), (2, -1)]),
    symmetric=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_volume_scores_match_per_slice_reference(
    kind, shape, layout, per_group, levels, offset, symmetric, seed
):
    """rank_slices scores every slice bit for bit as quantize_reference ->
    glcm_reference -> glcm_entropy scores it alone, however its volume's
    slices fall into groups, and a constant slice (of mixed +0 and -0 too)
    as -0.0; select_top_k keeps the highest scores, ties to the lower index."""
    rng = np.random.default_rng(seed)
    nz = shape[2]
    constant = rng.choice(nz, size=rng.integers(0, nz + 1), replace=False)
    if kind == "scaled":  # int16 through scl_slope and scl_inter, as read_nifti decodes it
        stored = rng.integers(-(2**15), 2**15, size=shape).astype(np.float64)
        voxels = np.asarray(stored * rng.uniform(0.01, 10.0) + rng.uniform(-100.0, 100.0), order=layout)
        voxels[:, :, constant] = voxels[:1, :1, constant]
    else:
        overflow = [j for j in range(nz) if j not in constant and rng.random() < 0.3] if kind == "f8" else []
        voxels = _volume(rng, kind, shape, layout, constant, overflow, levels)
    if kind in ("f4", "f8", "scaled"):
        for j in constant[rng.random(len(constant)) < 0.5]:
            voxels[:, :, j] = rng.choice([0.0, -0.0], size=shape[:2])
    cfg = SliceSelectionConfig(levels=levels, offset=offset, symmetric=symmetric)
    # per_group slices fit the patched budget, so groups split mid-volume
    with mock.patch.object(entropy, "_GROUP_BYTES", per_group * 8 * shape[0] * shape[1]):
        got = rank_slices(Volume("s", shape, voxels, datatype_code=0), cfg)
    want = [slice_entropy_reference(voxels[:, :, i], cfg) for i in range(nz)]
    assert got.tobytes() == np.array(want).tobytes()
    if abs(offset[0]) < shape[0] and abs(offset[1]) < shape[1]:
        assert all(float(got[j]).hex() == "-0x0.0p+0" for j in constant)
    for k in range(1, nz + 1):
        assert select_top_k(got, k).tolist() == top_k_reference(want, k)


def test_full_size_scores_match_per_slice_reference():
    """At the default group size, 128 x 128 slices: runs of textured slices
    split by constant ones, groups of several slices, interleaved counts at
    3 and 8 levels and uint32 pair codes at 256, in float32 and in int16."""
    rng = np.random.default_rng(12)
    rows, cols = np.meshgrid(np.arange(128), np.arange(128), indexing="ij")
    board = ((rows // 16 + cols // 16) % 2).astype(np.float64)
    voxels = np.zeros((128, 128, 12), dtype=np.float32, order="F")
    for j in (1, 2, 3, 5, 6, 7, 8, 9, 10, 11):
        voxels[:, :, j] = board * rng.uniform(50.0, 200.0) + rng.normal(0.0, 10.0, size=(128, 128))
    voxels[:, :, 7] = 3.5
    for volume in (voxels, np.round(voxels).astype(np.int16)):
        for levels in (8, 3, 256):
            cfg = SliceSelectionConfig(levels=levels)
            got = rank_slices(Volume("s", volume.shape, volume, datatype_code=0), cfg)
            want = [slice_entropy_reference(volume[:, :, j], cfg) for j in range(12)]
            assert got.tobytes() == np.array(want).tobytes()


def test_one_pixel_wide_volume_warns_per_slice_and_scores_zero(caplog):
    """No pair fits offset (0, 1) in a 5 x 1 slice: each slice of the volume,
    the constant one too, warns once, in slice order, and scores +0.0, in
    either memory layout."""
    voxels = np.arange(20.0).reshape(5, 1, 4)
    voxels[:, :, 1] = 7.0  # constant: where pairs fit, it scores -0.0 without a GLCM
    for layout in (np.asfortranarray, np.ascontiguousarray):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="mridecomp.entropy"):
            scores = rank_slices(Volume("v", (5, 1, 4), layout(voxels), datatype_code=64))
        assert [h.hex() for h in scores.tolist()] == ["0x0.0p+0"] * 4
        assert caplog.messages == [
            f"slice v/{i} has no co-occurring pairs at offset (0, 1); scoring 0" for i in range(4)
        ]


def test_scorer_settings_are_checked_before_constant_slices_are_skipped():
    volume = Volume("v", (3, 3, 2), np.zeros((3, 3, 2)), datatype_code=64)
    with pytest.raises(ConfigError, match="^slice_selection.levels must be >= 2, got 1$"):
        rank_slices(volume, SliceSelectionConfig(levels=1))
    with pytest.raises(ConfigError, match="^slice_selection.offset must be non-zero$"):
        rank_slices(volume, SliceSelectionConfig(offset=(0, 0)))


def test_slices_without_pairs_warn_and_score_zero_in_order(caplog):
    """A 1-pixel-wide slice has no pair at offset (0, 1): each warns once, in
    slice order, and scores 0."""
    voxels = np.stack([np.arange(5.0)[:, None] * i for i in range(5)], axis=2)
    with caplog.at_level(logging.WARNING, logger="mridecomp.entropy"):
        scores = rank_slices(Volume("s", (5, 1, 5), voxels, datatype_code=64))
    assert scores.tolist() == [0.0] * 5
    assert caplog.messages == [
        f"slice s/{i} has no co-occurring pairs at offset (0, 1); scoring 0" for i in range(5)
    ]


def test_select_top_k_prefix_and_clamp():
    voxels = np.stack([np.random.default_rng(i).normal(size=(6, 6)) for i in range(10)], axis=2)
    scores = rank_slices(Volume("s", (6, 6, 10), voxels, datatype_code=64))
    top3 = select_top_k(scores, 3)
    assert top3.tolist() == top_k_reference(scores.tolist(), 3)
    assert select_top_k(scores, 99).tolist() == list(range(10))
    with pytest.raises(InvalidK):
        select_top_k(scores, 0)

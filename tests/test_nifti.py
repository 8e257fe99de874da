"""Volume decoding: header parsing, scaling, byte order, quantization."""

import gzip
import re
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mridecomp import nifti
from mridecomp.entropy import SliceSelectionConfig, rank_slices
from mridecomp.errors import (
    ConfigError,
    DimensionError,
    IoError,
    MalformedHeader,
    PipelineError,
    UnsupportedDatatype,
)
from mridecomp.nifti import DATATYPES, Volume, read_nifti
from mridecomp.synth import write_nifti

from oracles import quantize, quantize_reference, slice_entropy


def build_header(
    dims=(4, 4, 3),
    ndim=3,
    datatype=16,
    bitpix=32,
    vox_offset=352.0,
    scl_slope=0.0,
    scl_inter=0.0,
    magic=b"n+1\x00",
    end="<",
    sizeof_hdr=348,
    trailing=(1, 1, 1, 1),
) -> bytearray:
    """Assemble a raw 348-byte header field by field (test-side oracle)."""
    hdr = bytearray(348)
    struct.pack_into(end + "i", hdr, 0, sizeof_hdr)
    dim8 = (ndim, *dims, *trailing)[:8]
    struct.pack_into(end + f"{len(dim8)}h", hdr, 40, *dim8)
    struct.pack_into(end + "h", hdr, 70, datatype)
    struct.pack_into(end + "h", hdr, 72, bitpix)
    struct.pack_into(end + "f", hdr, 108, vox_offset)
    struct.pack_into(end + "2f", hdr, 112, scl_slope, scl_inter)
    hdr[344:348] = magic
    return hdr


def test_hand_built_file_decodes_column_major(tmp_path):
    # 4x4x3 float32 ramp: value v at flat position v in file order, so the
    # voxel at (x, y, z) must be x + 4*y + 16*z.
    hdr = build_header()
    data = np.arange(48, dtype="<f4").tobytes()
    path = tmp_path / "ramp.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + data)

    vol = read_nifti(path)
    assert vol.dims == (4, 4, 3)
    assert vol.subject_id == "ramp"
    assert vol.voxels[0, 0, 0] == 0.0
    assert vol.voxels[1, 0, 2] == 1 + 0 * 4 + 2 * 16 == 33
    assert vol.voxels[3, 2, 1] == 3 + 2 * 4 + 1 * 16
    for x in range(4):
        for y in range(4):
            for z in range(3):
                assert vol.voxels[x, y, z] == x + 4 * y + 16 * z


def test_hand_built_big_endian(tmp_path):
    hdr = build_header(end=">")
    data = np.arange(48, dtype=">f4").tobytes()
    path = tmp_path / "be.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + data)
    vol = read_nifti(path)
    np.testing.assert_array_equal(vol.voxels.ravel(order="F"), np.arange(48.0))


def test_alternate_magic_accepted(tmp_path):
    hdr = build_header(magic=b"ni1\x00")
    data = np.zeros(48, dtype="<f4").tobytes()
    path = tmp_path / "pair.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + data)
    assert read_nifti(path).dims == (4, 4, 3)


def test_scl_slope_and_inter_applied(tmp_path):
    hdr = build_header(datatype=4, bitpix=16, scl_slope=2.5, scl_inter=-1.0)
    stored = np.arange(48, dtype="<i2")
    path = tmp_path / "scaled.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + stored.tobytes())
    vol = read_nifti(path)
    np.testing.assert_allclose(
        vol.voxels.ravel(order="F"), stored.astype(np.float64) * 2.5 - 1.0
    )


def test_scl_slope_zero_means_unscaled(tmp_path):
    hdr = build_header(datatype=4, bitpix=16, scl_slope=0.0, scl_inter=99.0)
    stored = np.arange(48, dtype="<i2")
    path = tmp_path / "raw.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + stored.tobytes())
    vol = read_nifti(path)
    np.testing.assert_array_equal(vol.voxels.ravel(order="F"), stored.astype(np.float64))


def test_gzip_detected_by_magic_not_extension(tmp_path):
    hdr = build_header()
    blob = bytes(hdr) + b"\x00" * 4 + np.arange(48, dtype="<f4").tobytes()
    path = tmp_path / "sneaky.nii"  # gzipped content without a .gz name
    path.write_bytes(gzip.compress(blob))
    vol = read_nifti(path)
    assert vol.voxels[1, 0, 2] == 33.0


@pytest.mark.parametrize("datatype", [2, 4, 8, 16, 64])
@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_round_trip_every_datatype(tmp_path, datatype, suffix, rng):
    shape = (5, 4, 3)
    if datatype in (2, 4, 8):
        hi = {2: 255, 4: 32767, 8: 2**31 - 1}[datatype]
        source = rng.integers(0, min(hi, 10_000), size=shape).astype(np.float64)
    else:
        source = rng.normal(0.0, 100.0, size=shape)
        if datatype == 16:
            source = source.astype(np.float32).astype(np.float64)
    path = tmp_path / f"vol{suffix}"
    write_nifti(path, source, datatype_code=datatype)
    vol = read_nifti(path)
    if datatype in (2, 4, 8):
        np.testing.assert_array_equal(vol.voxels, source)
    else:
        np.testing.assert_allclose(vol.voxels, source, rtol=1e-6)


def test_round_trip_big_endian_writer(tmp_path, rng):
    # write_nifti writes little-endian; the same volume written big-endian
    # by hand decodes to the same voxels
    source = rng.integers(0, 200, size=(3, 3, 4)).astype(np.float64)
    little = tmp_path / "le.nii"
    write_nifti(little, source, datatype_code=8)
    big = tmp_path / "be.nii"
    hdr = build_header(dims=(3, 3, 4), datatype=8, bitpix=32, end=">")
    big.write_bytes(bytes(hdr) + b"\x00" * 4 + source.astype(">i4").tobytes(order="F"))
    np.testing.assert_array_equal(read_nifti(big).voxels, source)
    np.testing.assert_array_equal(read_nifti(big).voxels, read_nifti(little).voxels)


def test_subject_id_strips_compound_suffix(tmp_path):
    source = np.zeros((3, 3, 3))
    gz = tmp_path / "sub01.nii.gz"
    write_nifti(gz, source)
    assert read_nifti(gz).subject_id == "sub01"
    assert read_nifti(gz, subject_id="override").subject_id == "override"


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(IoError):
        read_nifti(tmp_path / "absent.nii")


def test_bad_magic_rejected(tmp_path):
    hdr = build_header(magic=b"xxxx")
    path = tmp_path / "bad.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(48, dtype="<f4").tobytes())
    with pytest.raises(MalformedHeader):
        read_nifti(path)


def test_bad_sizeof_hdr_rejected(tmp_path):
    hdr = build_header(sizeof_hdr=340)
    path = tmp_path / "bad.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(48, dtype="<f4").tobytes())
    with pytest.raises(MalformedHeader):
        read_nifti(path)


def test_short_file_rejected(tmp_path):
    path = tmp_path / "short.nii"
    path.write_bytes(b"\x00" * 100)
    with pytest.raises(MalformedHeader):
        read_nifti(path)


def test_unsupported_datatype_rejected(tmp_path):
    hdr = build_header(datatype=32, bitpix=64)  # complex64, unsupported
    path = tmp_path / "cplx.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(96, dtype="<f4").tobytes())
    with pytest.raises(UnsupportedDatatype):
        read_nifti(path)


def test_bitpix_mismatch_rejected(tmp_path):
    hdr = build_header(datatype=16, bitpix=64)
    path = tmp_path / "bits.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(48, dtype="<f4").tobytes())
    with pytest.raises(MalformedHeader):
        read_nifti(path)


def test_two_dimensional_volume_rejected(tmp_path):
    hdr = build_header(ndim=2)
    path = tmp_path / "flat.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(48, dtype="<f4").tobytes())
    with pytest.raises(DimensionError):
        read_nifti(path)


def test_dim0_above_seven_rejected(tmp_path):
    hdr = build_header(ndim=8)
    path = tmp_path / "wild.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(48, dtype="<f4").tobytes())
    with pytest.raises(MalformedHeader):
        read_nifti(path)


def test_nontrivial_trailing_dim_rejected(tmp_path):
    hdr = build_header(ndim=4, trailing=(2, 1, 1, 1))
    path = tmp_path / "time.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(96, dtype="<f4").tobytes())
    with pytest.raises(DimensionError):
        read_nifti(path)


def test_volume_without_slices_rejected(tmp_path):
    """A 0 in any spatial dim fails in read_nifti or Volume, so no empty
    volume reaches rank_slices."""
    for dims in [(0, 4, 3), (4, 0, 3), (4, 4, 0)]:
        path = tmp_path / "empty.nii"
        path.write_bytes(bytes(build_header(dims=dims)) + b"\x00" * 4)
        message = f"{path}: non-positive spatial dims {dims}"
        with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
            read_nifti(path)
    message = "voxel grid (4, 4, 0) does not match dims (4, 4, 0)"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        Volume("v", (4, 4, 0), np.zeros((4, 4, 0)), datatype_code=64)


def test_truncated_payload_rejected(tmp_path):
    hdr = build_header()
    path = tmp_path / "trunc.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + np.zeros(47, dtype="<f4").tobytes())
    with pytest.raises(MalformedHeader):
        read_nifti(path)


def test_non_finite_payload_rejected(tmp_path):
    hdr = build_header()
    data = np.zeros(48, dtype="<f4")
    data[5] = np.nan
    path = tmp_path / "nan.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + data.tobytes())
    with pytest.raises(MalformedHeader):
        read_nifti(path)


@pytest.mark.parametrize("datatype", sorted(DATATYPES))
@pytest.mark.parametrize("end", ["<", ">"])
@pytest.mark.parametrize("scaling", [(0.0, 0.0), (1.0, 0.0), (2.5, -1.0)])
def test_decode_matches_float64_reference(tmp_path, rng, datatype, end, scaling):
    """Voxels equal today's float64 decode; unscaled ones keep the stored dtype."""
    base, bitpix = DATATYPES[datatype]
    slope, inter = scaling
    hdr = build_header(datatype=datatype, bitpix=bitpix, scl_slope=slope, scl_inter=inter, end=end)
    payload = rng.integers(0, 200, size=48).astype(end + base).tobytes()
    path = tmp_path / "v.nii"
    path.write_bytes(bytes(hdr) + b"\x00" * 4 + payload)

    reference = np.frombuffer(payload, dtype=end + base).astype(np.float64)
    scaled = slope != 0.0 and (slope, inter) != (1.0, 0.0)
    if scaled:
        reference = reference * np.float64(slope) + np.float64(inter)
    vol = read_nifti(path)
    np.testing.assert_array_equal(vol.voxels, reference.reshape((4, 4, 3), order="F"))
    expected = np.dtype(np.float64) if scaled else np.dtype(base).newbyteorder("=")
    assert vol.voxels.dtype == expected
    assert not vol.voxels.flags.writeable


def _gzip_error_text(path, blob: bytes) -> str:
    """A pattern for the IoError read_nifti raises on a .nii.gz that
    gzip.decompress rejects: gzip.decompress's own error, under either engine."""
    with pytest.raises((OSError, EOFError, zlib.error)) as rejected:
        gzip.decompress(blob)
    return f"^{re.escape(f'cannot read {path}: {rejected.value}')}$"


def test_corrupt_gzip_raises_io_error(tmp_path):
    hdr = build_header()
    blob = gzip.compress(bytes(hdr) + b"\x00" * 4 + np.arange(48, dtype="<f4").tobytes())
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x10
    for name, data in (("truncated", blob[: len(blob) - 12]), ("flipped", bytes(flipped))):
        path = tmp_path / f"{name}.nii.gz"
        path.write_bytes(data)
        with pytest.raises(IoError, match=_gzip_error_text(path, data)):
            read_nifti(path)


def test_non_finite_vox_offset_rejected(tmp_path):
    path = tmp_path / "inf.nii"
    path.write_bytes(bytes(build_header(vox_offset=float("inf"))) + bytes(4 + 48 * 4))
    with pytest.raises(MalformedHeader):
        read_nifti(path)


def _valid_volume_bytes() -> bytes:
    hdr = build_header(datatype=4, bitpix=16, scl_slope=2.0, scl_inter=1.0)
    return bytes(hdr) + b"\x00" * 4 + np.arange(48, dtype="<i2").tobytes()


@settings(deadline=None, max_examples=200)
@given(
    compress=st.booleans(),
    cut=st.one_of(st.none(), st.integers(0, 500)),
    position=st.integers(0, 500),
    patch=st.binary(min_size=0, max_size=4),
)
def test_corrupt_bytes_raise_only_pipeline_errors(tmp_path_factory, compress, cut, position, patch):
    """Truncated or overwritten .nii / .nii.gz bytes decode or raise a PipelineError."""
    blob = bytearray(_valid_volume_bytes())
    if compress:
        blob = bytearray(gzip.compress(bytes(blob), mtime=0))
    position %= len(blob)
    blob[position : position + len(patch)] = patch
    if cut is not None:
        del blob[cut % len(blob) :]
    path = tmp_path_factory.mktemp("fuzz") / ("v.nii.gz" if compress else "v.nii")
    path.write_bytes(bytes(blob))
    try:
        read_nifti(path)
    except PipelineError:
        pass


def _gz_volume_bytes(rng, dims=(12, 10, 8)) -> bytes:
    """An uncompressed int16 volume with scaling, as a .nii file's bytes."""
    hdr = build_header(dims=dims, datatype=4, bitpix=16, scl_slope=0.5, scl_inter=-3.0)
    stored = rng.integers(-2000, 2000, size=int(np.prod(dims))).astype("<i2")
    return bytes(hdr) + b"\x00" * 4 + stored.tobytes()


def _decode_like_gzip_decompress(tmp_path, blob: bytes):
    """read_nifti of blob beside read_nifti of gzip.decompress(blob) as a plain .nii."""
    assert nifti._gunzip(blob) == gzip.decompress(blob)
    gz_path = tmp_path / "v.nii.gz"
    gz_path.write_bytes(blob)
    plain = tmp_path / "reference.nii"
    plain.write_bytes(gzip.decompress(blob))
    return read_nifti(gz_path), read_nifti(plain)


@pytest.mark.parametrize(
    "layout", ["two-members", "empty-trailing-member", "zero-padding", "self-concatenated"]
)
def test_gzip_member_layouts_decode_like_gzip_decompress(tmp_path, rng, layout):
    nii = _gz_volume_bytes(rng)
    half = len(nii) // 2
    if layout == "two-members":
        # equal halves, so the members' ISIZEs agree and only the CRC tells them apart
        blob = gzip.compress(nii[:half], mtime=0) + gzip.compress(nii[half:], mtime=0)
    elif layout == "self-concatenated":
        # both members have one length and CRC32, and the first alone is a truncated volume
        blob = gzip.compress(nii[:half], mtime=0) * 2
    elif layout == "empty-trailing-member":  # as BGZF ends its files
        blob = gzip.compress(nii, mtime=0) + gzip.compress(b"", mtime=0)
    else:
        blob = gzip.compress(nii, mtime=0) + b"\x00" * 16
    vol, reference = _decode_like_gzip_decompress(tmp_path, blob)
    assert vol.voxels.dtype == reference.voxels.dtype == np.float64
    np.testing.assert_array_equal(vol.voxels, reference.voxels)


def test_empty_leading_member_before_zero_padding_decodes(tmp_path, rng):
    """An empty first member has the (CRC, ISIZE) of zero padding; it must not end the file."""
    nii = _gz_volume_bytes(rng)
    blob = gzip.compress(b"", mtime=0) + gzip.compress(nii, mtime=0) + b"\x00" * 8
    vol, reference = _decode_like_gzip_decompress(tmp_path, blob)
    np.testing.assert_array_equal(vol.voxels, reference.voxels)


@pytest.mark.parametrize("tail", [b"not gzip", b"trailing garbage after the member", b"\x1f\x8b"])
def test_trailing_non_gzip_bytes_raise_io_error(tmp_path, rng, tail):
    blob = gzip.compress(_gz_volume_bytes(rng), mtime=0) + tail
    path = tmp_path / "tail.nii.gz"
    path.write_bytes(blob)
    with pytest.raises(IoError, match=_gzip_error_text(path, blob)):
        read_nifti(path)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        try:
            fn(*args)
        except PipelineError:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _forged_isize_file(tmp_path, isize=None) -> tuple:
    nii = bytes(build_header()) + b"\x00" * 4 + np.arange(48, dtype="<f4").tobytes()
    blob = bytearray(gzip.compress(nii, mtime=0))
    struct.pack_into("<I", blob, len(blob) - 4, isize if isize else 1032 * len(blob))
    path = tmp_path / "forged.nii.gz"
    path.write_bytes(bytes(blob))
    return path, len(blob)


def test_forged_isize_reserves_no_more_than_deflate_allows(tmp_path):
    path, size = _forged_isize_file(tmp_path, 0xFFFFFFF0)
    assert _traced_peak(read_nifti, path) < 1032 * size


@pytest.mark.parametrize("isize", [0xFFFFFFF0, None], ids=["over-deflate-ratio", "at-deflate-ratio"])
def test_forged_isize_is_an_io_error(tmp_path, isize):
    path, _ = _forged_isize_file(tmp_path, isize)
    # the real length disagrees with the trailer
    with pytest.raises(IoError, match=_gzip_error_text(path, path.read_bytes())):
        read_nifti(path)


def test_single_member_inflates_into_one_exact_buffer(tmp_path, rng):
    """Decoding holds the compressed file and one payload-sized buffer, no more."""
    source = rng.normal(0.0, 100.0, size=(64, 64, 48))
    path = tmp_path / "big.nii.gz"
    write_nifti(path, source, datatype_code=16)
    compressed = path.stat().st_size
    decompressed = len(gzip.decompress(path.read_bytes()))
    read_nifti(path)  # warm imports and caches outside the traced window
    peak = _traced_peak(read_nifti, path)
    assert peak < compressed + 1.1 * decompressed


# --- quantization -----------------------------------------------------------


def test_quantize_known_values():
    q = quantize(np.arange(256, dtype=np.float64).reshape(16, 16), 8)
    flat = q.indices.ravel()
    assert flat[0] == 0
    assert flat[128] == 4  # 128/255*8 = 4.01...
    assert flat[255] == 7  # max clamps into the top level
    assert q.indices.min() == 0 and q.indices.max() == 7


def test_quantize_constant_slice_all_zero():
    q = quantize(np.full((4, 4), 3.14), 8)
    assert (q.indices == 0).all()


def test_quantize_span_beyond_float64():
    """max - min overflows float64: the indices still rank the pixels within [0, levels)."""
    pixels = np.array([[-1.7e308, 1.7e308], [0.0, 1.0]])
    with np.errstate(all="raise"):
        q = quantize(pixels, 8)
    np.testing.assert_array_equal(q.indices, [[0, 7], [4, 4]])
    assert slice_entropy(pixels) > 0.0


def test_quantize_rejects_single_level():
    # the scorer checks its settings before it quantizes any slice
    with pytest.raises(ConfigError, match="^slice_selection.levels must be >= 2, got 1$"):
        volume = Volume("s", (2, 2, 1), np.zeros((2, 2, 1)), datatype_code=64)
        rank_slices(volume, SliceSelectionConfig(levels=1))


@pytest.mark.parametrize("dtype", ["u1", "i2", "i4", "f4"])
@pytest.mark.parametrize("levels", [2, 8, 16])
def test_quantize_narrow_dtype_matches_float64(dtype, levels, rng):
    stored = rng.integers(0, 250, size=(9, 7, 3)).astype(dtype, order="F")
    stored[0, 0, 1] = 3  # keep the middle slice non-constant
    narrow = stored[:, :, 1]
    wide = stored[:, :, 1].astype(np.float64)
    np.testing.assert_array_equal(quantize(narrow, levels).indices, quantize(wide, levels).indices)
    flat = np.full((4, 4), 7, dtype=dtype)
    assert (quantize(flat, levels).indices == 0).all()


@settings(deadline=None, max_examples=50)
@given(
    seed=st.integers(0, 10_000),
    levels=st.integers(2, 16),
)
def test_quantize_bounds_and_extremes(seed, levels):
    rng = np.random.default_rng(seed)
    pixels = rng.normal(size=(5, 5))
    q = quantize(pixels, levels)
    assert q.indices.min() >= 0
    assert q.indices.max() <= levels - 1
    assert q.indices[np.unravel_index(np.argmin(pixels), pixels.shape)] == 0
    assert q.indices[np.unravel_index(np.argmax(pixels), pixels.shape)] == levels - 1


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10_000))
def test_quantize_preserves_pixel_order(seed):
    rng = np.random.default_rng(seed)
    pixels = rng.normal(size=(4, 4))
    q = quantize(pixels, 8)
    flat_p = pixels.ravel()
    flat_q = q.indices.ravel()
    order = np.argsort(flat_p)
    assert (np.diff(flat_q[order]) >= 0).all()


_QUANTIZE_DTYPES = ["u1", "i2", "i4", "f4", "f8"]


@settings(deadline=None, max_examples=300)
@given(
    dtype=st.sampled_from(_QUANTIZE_DTYPES),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3)),
    levels=st.one_of(st.sampled_from([2, 3, 8, 16, 256]), st.integers(2, 300)),
    layout=st.sampled_from(["F", "C", "transposed"]),
    fill=st.sampled_from(["random", "extremes", "constant"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_quantize_matches_reference_bytes_and_layout(dtype, shape, levels, layout, fill, seed):
    """quantize gives the reference's indices byte for byte, in the narrowest
    unsigned dtype that holds levels - 1 and in the same memory layout."""
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype) if np.dtype(dtype).kind in "iu" else np.finfo(dtype)
    extremes = np.array([info.min, info.max, 0, 1], dtype=dtype)
    if fill == "constant":
        volume = np.full(shape, rng.choice(extremes), dtype=dtype)
    elif fill == "extremes":
        volume = rng.choice(extremes, size=shape)
    elif np.dtype(dtype).kind in "iu":
        volume = rng.integers(info.min, info.max, size=shape, dtype=dtype, endpoint=True)
    else:
        volume = (rng.normal(size=shape) * 10.0 ** rng.integers(-3, 6)).astype(dtype)
    if layout == "transposed":
        volume = volume.transpose(1, 0, 2)
    else:
        volume = np.asarray(volume, order=layout)
    for i in range(volume.shape[2]):
        got = quantize(volume[:, :, i], levels).indices
        want = quantize_reference(volume[:, :, i], levels).indices
        assert want.dtype == np.int64
        assert got.dtype == (np.uint8 if levels <= 256 else np.uint16)
        want = want.astype(got.dtype)  # in [0, levels), so exact; keeps the layout
        assert got.strides == want.strides
        assert got.flags.c_contiguous == want.flags.c_contiguous
        assert got.flags.f_contiguous == want.flags.f_contiguous
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()

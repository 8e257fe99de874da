"""NIfTI-1 volume decoding.

Reads single-file NIfTI-1 images (.nii, optionally gzip-compressed) with a
hand-rolled header parser: 348-byte header, byte order detected by checking
sizeof_hdr == 348 under each endianness, voxel payload at vox_offset.
Spatial metadata (qform/sform) is deliberately ignored; inputs are assumed
registered to a common template, and the third header axis is taken as the
axial axis.

A one-member .nii.gz is inflated into one buffer of the length its trailer
states, by the system libdeflate (loaded by soname at import) when it is
installed and by zlib otherwise; both give the bytes gzip.decompress gives,
and gzip.decompress itself decodes every other layout.

Supported datatype codes: 2 (uint8), 4 (int16), 8 (int32), 16 (float32),
64 (float64). Stored values are mapped through scl_slope * v + scl_inter
unless scl_slope == 0, which by convention means "no scaling"; a scaled
volume is decoded to float64. An unscaled volume keeps its stored dtype, in
native byte order, and entropy.rank_slices promotes a few slices at a time
to float64, so a 128^3 float32 volume never exists as a 16 MB float64 copy.
"""

from __future__ import annotations

import ctypes
import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    IoError,
    MalformedHeader,
    UnsupportedDatatype,
)

HEADER_SIZE = 348
GZIP_MAGIC = b"\x1f\x8b"
MAGIC_VALUES = (b"n+1\x00", b"ni1\x00")

# datatype code -> (numpy base dtype, bitpix)
DATATYPES = {2: ("u1", 8), 4: ("i2", 16), 8: ("i4", 32), 16: ("f4", 32), 64: ("f8", 64)}


@dataclass(frozen=True)
class Volume:
    """A decoded 3-D scalar grid.

    voxels is an (nx, ny, nz) array laid out from the file's column-major
    order. It is in the stored dtype (native byte order) when no scl_slope
    scaling applies and float64 when it does. It is marked read-only so
    volumes can be shared across workers.
    """

    subject_id: str
    dims: tuple[int, int, int]
    voxels: np.ndarray
    datatype_code: int

    def __post_init__(self):
        nx, ny, nz = self.dims
        if nz < 1 or self.voxels.shape != (nx, ny, nz):
            raise DimensionError(
                f"voxel grid {self.voxels.shape} does not match dims {self.dims}"
            )
        if self.voxels.dtype.kind == "f" and not np.isfinite(self.voxels).all():
            raise MalformedHeader("voxel payload contains non-finite values after scaling")
        self.voxels.setflags(write=False)


# deflate's best case is 1032:1 (RFC 1951: a 258-byte match per ~2 bits), so a
# gzip trailer claiming more output than this per input byte is forged
MAX_DEFLATE_RATIO = 1032
# input bytes, and at most output bytes, per zlib call: 1/128 of the payload
# within these bounds, so an 8 MB volume takes 128 output steps, where 8 KB
# steps took 1,000, each a GIL release; the inflate holds a few steps and
# zlib's 32 KB window beside the payload buffer (about 360 KB at 64 KB steps)
_ZLIB_STEP_MIN, _ZLIB_STEP_MAX = 8 * 1024, 64 * 1024


def _load_libdeflate():
    """The system libdeflate (found by soname), or None when it is not installed."""
    try:
        lib = ctypes.CDLL("libdeflate.so.0")
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
        lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
        lib.libdeflate_free_decompressor.restype = None
        lib.libdeflate_gzip_decompress_ex.argtypes = [
            ctypes.c_void_p,  # decompressor
            ctypes.c_char_p, ctypes.c_size_t,  # input, its length
            ctypes.c_void_p, ctypes.c_size_t,  # output buffer, its length
            ctypes.POINTER(ctypes.c_size_t),  # input bytes consumed
            ctypes.POINTER(ctypes.c_size_t),  # output bytes written
        ]
        lib.libdeflate_gzip_decompress_ex.restype = ctypes.c_int
    except (OSError, AttributeError):  # not installed, or too old for the _ex call
        return None
    return lib


# loaded once; the zlib engine alone runs when this is None
_LIBDEFLATE = _load_libdeflate()


def _libdeflate_one_member(raw: bytes, isize: int) -> memoryview | None:
    """raw inflated into an isize-byte buffer by libdeflate, which checks the
    member's CRC32 and length; None unless the call succeeded, consumed all
    of raw (one member, nothing after it) and wrote exactly isize bytes."""
    # not zero-filled, a pass that would hold the GIL: a kept result wrote all isize bytes
    out = np.empty(isize, np.uint8)
    consumed, written = ctypes.c_size_t(), ctypes.c_size_t()
    # a decompressor holds per-call state, so threads never share one
    decompressor = _LIBDEFLATE.libdeflate_alloc_decompressor()
    if not decompressor:  # out of memory: let zlib try
        return None
    try:
        status = _LIBDEFLATE.libdeflate_gzip_decompress_ex(
            decompressor, raw, len(raw), out.ctypes.data, isize,
            ctypes.byref(consumed), ctypes.byref(written),
        )
    finally:
        _LIBDEFLATE.libdeflate_free_decompressor(decompressor)
    if status == 0 and consumed.value == len(raw) and written.value == isize:
        return out.data
    return None


def _zlib_one_member(raw: bytes, isize: int) -> memoryview | None:
    """raw inflated into an isize-byte buffer by zlib, which checks the
    member's CRC32 and length; None when the first member is not isize bytes
    long or anything follows it. Raises zlib.error on a corrupt member."""
    out = np.empty(isize, np.uint8).data
    step = min(max(isize // 128, _ZLIB_STEP_MIN), _ZLIB_STEP_MAX)
    inflater = zlib.decompressobj(wbits=31)
    view = memoryview(raw)
    filled = 0
    for start in range(0, len(raw), step):
        data = view[start : start + step]
        while True:
            # one byte past the trailer's length is enough to see that it lies
            piece = inflater.decompress(data, min(isize - filled + 1, step))
            if filled + len(piece) > isize:
                return None
            out[filled : filled + len(piece)] = piece
            filled += len(piece)
            if inflater.eof:
                follows = inflater.unused_data or start + step < len(raw)
                return None if follows or filled != isize else out
            data = inflater.unconsumed_tail
            if not data and len(piece) < step:  # a full piece may leave output pending
                break
    return None


def _gunzip(raw: bytes) -> bytes | memoryview:
    """Inflate a gzip file to the bytes gzip.decompress returns.

    A file of one member, whose trailer states a length (ISIZE, RFC 1952)
    between a NIfTI header and deflate's ratio times the file size, is
    inflated once into a buffer of that length: by libdeflate when the system
    library loaded, else by zlib in steps of 1/128 of that length, 8 to 64 KB.
    The result is used only when the member filled the buffer exactly, passed
    its CRC32 and length checks and ended the file. Any other file (several members, zero
    padding, trailing bytes, a forged ISIZE, a corrupt stream) decodes or
    fails in gzip.decompress.
    """
    isize = struct.unpack("<I", raw[-4:])[0] if len(raw) >= 8 else 0
    if HEADER_SIZE <= isize <= MAX_DEFLATE_RATIO * len(raw):
        out = _libdeflate_one_member(raw, isize) if _LIBDEFLATE is not None else None
        if out is None:
            try:
                out = _zlib_one_member(raw, isize)
            except zlib.error:  # gzip.decompress gives the error, or skips a header CRC
                pass
        if out is not None:
            return out
    return gzip.decompress(raw)


def _read_bytes(path) -> bytes | memoryview:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return _gunzip(raw) if raw[:2] == GZIP_MAGIC else raw
    except (OSError, EOFError, zlib.error) as exc:
        # OSError includes gzip.BadGzipFile; EOFError is a truncated stream
        raise IoError(f"cannot read {path}: {exc}") from exc


def read_nifti(path, subject_id: str | None = None) -> Volume:
    """Decode a NIfTI-1 file (.nii or gzip-compressed) into a Volume.

    subject_id defaults to the file stem. Raises MalformedHeader,
    UnsupportedDatatype, DimensionError or IoError on bad input.
    """
    path = Path(path)
    raw = _read_bytes(path)
    if len(raw) < HEADER_SIZE:
        raise MalformedHeader(f"{path}: file shorter than the {HEADER_SIZE}-byte header")

    end = "<"
    if struct.unpack("<i", raw[0:4])[0] != HEADER_SIZE:
        if struct.unpack(">i", raw[0:4])[0] == HEADER_SIZE:
            end = ">"
        else:
            raise MalformedHeader(f"{path}: sizeof_hdr is not {HEADER_SIZE} in either byte order")

    magic = bytes(raw[344:348])
    if magic not in MAGIC_VALUES:
        raise MalformedHeader(f"{path}: bad magic {magic!r}")

    dim = struct.unpack(end + "8h", raw[40:56])
    datatype, bitpix = struct.unpack(end + "2h", raw[70:74])
    vox_offset = struct.unpack(end + "f", raw[108:112])[0]
    scl_slope, scl_inter = struct.unpack(end + "2f", raw[112:120])

    if datatype not in DATATYPES:
        raise UnsupportedDatatype(f"{path}: datatype code {datatype} not supported")
    base, expected_bits = DATATYPES[datatype]
    if bitpix != expected_bits:
        raise MalformedHeader(f"{path}: bitpix {bitpix} inconsistent with datatype {datatype}")

    ndim = dim[0]
    if ndim < 3:
        raise DimensionError(f"{path}: dim[0] = {ndim}, need a 3-D volume")
    if ndim > 7:
        raise MalformedHeader(f"{path}: dim[0] = {ndim} exceeds the NIfTI-1 maximum of 7")
    nx, ny, nz = dim[1], dim[2], dim[3]
    if nx < 1 or ny < 1 or nz < 1:
        raise DimensionError(f"{path}: non-positive spatial dims {(nx, ny, nz)}")
    trailing = dim[4 : ndim + 1]
    if any(d != 1 for d in trailing):
        raise DimensionError(f"{path}: trailing dims {tuple(trailing)} must all be 1")

    if not math.isfinite(vox_offset):
        raise MalformedHeader(f"{path}: vox_offset {vox_offset} is not finite")
    offset = int(vox_offset) if vox_offset >= HEADER_SIZE else HEADER_SIZE
    dtype = np.dtype(base).newbyteorder(end)
    count = nx * ny * nz
    payload = memoryview(raw)[offset : offset + count * dtype.itemsize]
    if len(payload) < count * dtype.itemsize:
        raise MalformedHeader(f"{path}: truncated voxel payload")

    stored = np.frombuffer(payload, dtype=dtype)
    if scl_slope != 0.0 and (scl_slope, scl_inter) != (1.0, 0.0):
        # in place, so a scaled volume holds one float64 array, not two
        values = stored.astype(np.float64)
        values *= np.float64(scl_slope)
        values += np.float64(scl_inter)
    else:
        # a view of raw in native byte order; a copy only for foreign byte order
        values = stored.astype(dtype.newbyteorder("="), copy=False)

    voxels = values.reshape((nx, ny, nz), order="F")
    return Volume(
        subject_id=subject_id if subject_id is not None else _stem(path),
        dims=(nx, ny, nz),
        voxels=voxels,
        datatype_code=datatype,
    )


def _stem(path: Path) -> str:
    name = path.name
    for suffix in (".nii.gz", ".nii"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return path.stem

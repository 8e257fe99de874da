"""NIfTI-1 volume decoding and axial slicing.

Reads single-file NIfTI-1 images (.nii, optionally gzip-compressed) with a
hand-rolled header parser: 348-byte header, byte order detected by checking
sizeof_hdr == 348 under each endianness, voxel payload at vox_offset.
Spatial metadata (qform/sform) is deliberately ignored; inputs are assumed
registered to a common template, and the third header axis is taken as the
axial axis.

Supported datatype codes: 2 (uint8), 4 (int16), 8 (int32), 16 (float32),
64 (float64). Stored values are mapped through scl_slope * v + scl_inter
unless scl_slope == 0, which by convention means "no scaling"; a scaled
volume is decoded to float64. An unscaled volume keeps its stored dtype, in
native byte order, and quantize promotes one slice at a time to float64, so
a 128^3 float32 volume never exists as a 16 MB float64 copy.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Slice2D:
    """One axial plane of a volume, pixels shaped (nx, ny)."""

    subject_id: str
    slice_index: int
    pixels: np.ndarray


@dataclass(frozen=True)
class QuantizedSlice:
    """Slice discretized to integer grey levels in [0, levels)."""

    levels: int
    indices: np.ndarray


# deflate's best case is 1032:1 (RFC 1951: a 258-byte match per ~2 bits), so a
# gzip trailer claiming more output than this per input byte is forged
MAX_DEFLATE_RATIO = 1032


def _gunzip(raw: bytes) -> bytes:
    """Inflate a gzip file as gzip.decompress does.

    A single-member file is inflated by one zlib call into a buffer of the
    size its trailer states (ISIZE, RFC 1952), not grown in blocks and joined
    into a copy. That result is used only if the file's last 8 bytes are the
    trailer of the member just inflated (same length and CRC32) and ISIZE
    lies between a NIfTI header and deflate's ratio times the file size. Any
    other file (several members, zero padding, trailing bytes, a forged
    ISIZE, a corrupt stream) decodes or fails in gzip.decompress. A file
    whose last member repeats the first one's length and CRC32, such as a
    member concatenated with itself, yields the first member only.
    """
    crc, isize = struct.unpack("<2I", raw[-8:]) if len(raw) >= 8 else (0, 0)
    if HEADER_SIZE <= isize <= MAX_DEFLATE_RATIO * len(raw):
        try:
            out = zlib.decompress(raw, wbits=31, bufsize=isize)
        except zlib.error:  # gzip.decompress gives the error, or skips a header CRC
            out = b""
        if len(out) == isize and zlib.crc32(out) == crc:
            return out
        del out
    return gzip.decompress(raw)


def _read_bytes(path) -> bytes:
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

    magic = raw[344:348]
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


def extract_axial_slices(volume: Volume) -> list[Slice2D]:
    """Split a volume into its nz axial slices, ascending slice index."""
    return [
        Slice2D(volume.subject_id, i, volume.voxels[:, :, i])
        for i in range(volume.dims[2])
    ]


def quantize(s: Slice2D, levels: int) -> QuantizedSlice:
    """Discretize pixel intensities into `levels` grey levels by min-max binning.

    index = floor((p - min) / (max - min) * levels), clamped to levels-1,
    computed in float64 whatever the stored dtype; a constant slice maps
    entirely to level 0. Invariant under positive affine intensity maps.
    When max - min overflows float64, the same map is applied to the halved
    pixels, min and max, so the indices stay in [0, levels) and keep the
    pixels' order. The indices keep the slice's memory layout (Fortran order
    for a slice of a volume).
    """
    if levels < 2:
        raise ConfigError(f"levels must be >= 2, got {levels}")
    pixels = np.asarray(s.pixels)
    # min and max are exact in the stored dtype, and so is their float64 value
    lo = np.float64(pixels.min())
    hi = np.float64(pixels.max())
    if hi == lo:
        indices = np.zeros(pixels.shape, dtype=np.int64)
    else:
        if math.isinf(float(hi) - float(lo)):
            # halving is exact above the subnormals and keeps order; the halved span is finite
            scaled = np.multiply(pixels, 0.5, dtype=np.float64)
            scaled -= lo * 0.5
            scaled /= hi * 0.5 - lo * 0.5
        else:
            scaled = np.subtract(pixels, lo, dtype=np.float64)
            scaled /= hi - lo
        scaled *= levels
        # scaled >= 0, so clamping first and truncating is min(floor, levels-1)
        np.minimum(scaled, levels - 1, out=scaled)
        indices = scaled.astype(np.int64)
    indices.setflags(write=False)
    return QuantizedSlice(levels=levels, indices=indices)

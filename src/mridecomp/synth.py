"""NIfTI-1 writer and synthetic dataset generator.

Generated volumes have exactly-constant peripheral slices (background) and
a central band of class-specific checkerboard texture over seeded Gaussian
noise, so entropy ranking is guaranteed to prefer the informative band.
Classes differ in checkerboard block size and amplitude. Files alternate
between plain .nii and .nii.gz; gzip members are written with mtime=0 so
identical seeds produce byte-identical files.
"""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, IoError, UnsupportedDatatype
from .manifest import SAFE_SUBJECT_ID, SAFE_SUBJECT_ID_RULE, ManifestRow, write_manifest
from .nifti import DATATYPES, HEADER_SIZE

# per-class texture parameters, cycled if more classes are requested
_BLOCK_SIZES = (3, 4, 6)
_AMPLITUDES = (60.0, 120.0, 180.0)
_NOISE_SIGMA = 2.0


def write_nifti(path, voxels: np.ndarray, datatype_code: int = 16) -> None:
    """Write a 3-D array as a single-file, little-endian NIfTI-1 volume
    (.nii or .nii.gz) with no intensity scaling (scl_slope 0).
    """
    voxels = np.asarray(voxels)
    if voxels.ndim != 3:
        raise DimensionError(f"expected a 3-D array, got ndim={voxels.ndim}")
    if datatype_code not in DATATYPES:
        raise UnsupportedDatatype(f"datatype code {datatype_code} not supported")

    nx, ny, nz = voxels.shape
    dtype, bitpix = DATATYPES[datatype_code]
    vox_offset = float(HEADER_SIZE + 4)

    header = bytearray(HEADER_SIZE)  # fields not packed below, scl_slope among them, stay 0
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<h", header, 70, datatype_code)
    struct.pack_into("<h", header, 72, bitpix)
    struct.pack_into("<8f", header, 76, 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, vox_offset)
    header[344:348] = b"n+1\x00"

    data = voxels.astype("<" + dtype).tobytes(order="F")
    blob = bytes(header) + b"\x00" * 4 + data

    path = Path(path)
    try:
        if path.name.endswith(".gz"):
            with open(path, "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                    gz.write(blob)
        else:
            path.write_bytes(blob)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _checkerboard(nx: int, ny: int, block: int) -> np.ndarray:
    xx, yy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    return ((xx // block + yy // block) % 2).astype(np.float64)


def _subject_volume(
    dims: tuple[int, int],
    nz: int,
    block: int,
    amplitude: float,
    rng: np.random.Generator,
) -> np.ndarray:
    nx, ny = dims
    margin = max(1, nz // 8)
    voxels = np.zeros((nx, ny, nz), dtype=np.float64)
    board = _checkerboard(nx, ny, block)
    jitter = rng.uniform(0.9, 1.1)
    for z in range(margin, nz - margin):
        noise = rng.normal(0.0, _NOISE_SIGMA, size=(nx, ny))
        voxels[:, :, z] = board * amplitude * jitter + noise
    return voxels


def generate_dataset(
    out_dir,
    subjects_per_class: int = 6,
    nz: int = 30,
    seed: int = 0,
    classes: tuple[str, ...] = ("CN", "MCI", "AD"),
    dims: tuple[int, int] = (24, 24),
) -> tuple[Path, list[ManifestRow]]:
    """Generate labelled volumes plus a manifest; returns (manifest_path, rows).

    Subject ids (and file names) are the class name plus a two-digit index,
    so class names must be distinct and make safe subject ids (see
    manifest.SAFE_SUBJECT_ID); ConfigError says which one is not, before
    anything is written.
    """
    if len(set(classes)) != len(classes):
        raise ConfigError(f"duplicate class names in {classes!r}")
    for cls in classes:
        if not cls or not SAFE_SUBJECT_ID.fullmatch(f"{cls}00"):
            raise ConfigError(
                f"class name {cls!r} does not make a safe subject id ({SAFE_SUBJECT_ID_RULE})"
            )
    if subjects_per_class < 2:
        raise ValueError(f"need at least 2 subjects per class, got {subjects_per_class}")
    if nz < 4:
        raise ValueError(f"need at least 4 axial slices, got {nz}")
    if min(dims) < 4:
        raise ValueError(f"in-plane dims must be >= 4, got {dims}")

    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc

    rows: list[ManifestRow] = []
    for class_index, cls in enumerate(classes):
        block = _BLOCK_SIZES[class_index % len(_BLOCK_SIZES)]
        amplitude = _AMPLITUDES[class_index % len(_AMPLITUDES)]
        for subject_index in range(subjects_per_class):
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, class_index, subject_index])
            )
            voxels = _subject_volume(dims, nz, block, amplitude, rng)
            suffix = ".nii" if subject_index % 2 == 0 else ".nii.gz"
            subject_id = f"{cls}{subject_index:02d}"
            path = out_dir / f"{subject_id}{suffix}"
            write_nifti(path, voxels, datatype_code=16)
            rows.append(ManifestRow(subject_id=subject_id, label=cls, path=path))

    manifest_path = out_dir / "manifest.csv"
    write_manifest(rows, manifest_path, relative_to=out_dir)
    return manifest_path, rows

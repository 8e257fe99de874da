"""Synthetic dataset generator: structure, determinism, entropy contrast."""

import numpy as np
import pytest

from mridecomp.entropy import rank_slices, slice_entropy
from mridecomp.errors import ConfigError
from mridecomp.manifest import read_manifest
from mridecomp.nifti import extract_axial_slices, read_nifti
from mridecomp.synth import generate_dataset


def test_generates_expected_files_and_manifest(tmp_path):
    manifest_path, rows = generate_dataset(tmp_path, subjects_per_class=4, nz=8, seed=0)
    assert manifest_path == tmp_path / "manifest.csv"
    assert len(rows) == 12
    parsed = read_manifest(manifest_path)
    assert len(parsed) == 12
    labels = [r.label for r in parsed]
    for cls in ("CN", "MCI", "AD"):
        assert labels.count(cls) == 4
    for row in parsed:
        assert row.path.exists()


def test_mixed_plain_and_gzip_naming(tmp_path):
    _, rows = generate_dataset(tmp_path, subjects_per_class=4, nz=6, seed=0)
    suffixes = sorted({r.path.name.rsplit(".", 1)[-1] for r in rows})
    assert suffixes == ["gz", "nii"]
    for row in rows:
        idx = int(row.subject_id[-2:])
        if idx % 2 == 0:
            assert row.path.name.endswith(".nii")
        else:
            assert row.path.name.endswith(".nii.gz")


def test_same_seed_byte_identical(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    _, rows_a = generate_dataset(a_dir, subjects_per_class=2, nz=6, seed=42)
    _, rows_b = generate_dataset(b_dir, subjects_per_class=2, nz=6, seed=42)
    for ra, rb in zip(rows_a, rows_b):
        assert ra.path.name == rb.path.name
        assert ra.path.read_bytes() == rb.path.read_bytes()
    assert (a_dir / "manifest.csv").read_text() == (b_dir / "manifest.csv").read_text()


def test_different_seed_different_voxels(tmp_path):
    _, rows_a = generate_dataset(tmp_path / "a", subjects_per_class=2, nz=6, seed=1)
    _, rows_b = generate_dataset(tmp_path / "b", subjects_per_class=2, nz=6, seed=2)
    assert rows_a[0].path.read_bytes() != rows_b[0].path.read_bytes()


def test_peripheral_slices_carry_no_texture(tmp_path):
    _, rows = generate_dataset(tmp_path, subjects_per_class=2, nz=12, seed=0)
    for row in rows:
        volume = read_nifti(row.path)
        slices = extract_axial_slices(volume)
        margin = max(1, len(slices) // 8)
        entropies = [slice_entropy(s) for s in slices]
        for i in range(margin):
            assert entropies[i] == 0.0
            assert entropies[-1 - i] == 0.0
        central = entropies[margin:-margin]
        assert min(central) > 0.0


def test_entropy_ranking_prefers_central_slices(tmp_path):
    _, rows = generate_dataset(tmp_path, subjects_per_class=2, nz=16, seed=3)
    volume = read_nifti(rows[0].path)
    slices = extract_axial_slices(volume)
    ranked = rank_slices(slices)
    margin = max(1, len(slices) // 8)
    n_central = len(slices) - 2 * margin
    top = {r.slice_index for r in ranked[:n_central]}
    assert top == set(range(margin, len(slices) - margin))


def test_volume_shape_and_dtype(tmp_path):
    _, rows = generate_dataset(
        tmp_path, subjects_per_class=2, nz=5, seed=0, dims=(10, 12)
    )
    volume = read_nifti(rows[0].path)
    assert volume.voxels.shape == (10, 12, 5)
    assert np.isfinite(volume.voxels).all()


def test_custom_classes(tmp_path):
    _, rows = generate_dataset(
        tmp_path, subjects_per_class=2, nz=5, seed=0, classes=("X", "Y")
    )
    assert sorted({r.label for r in rows}) == ["X", "Y"]
    assert len(rows) == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        {"subjects_per_class": 1},
        {"nz": 3},
        {"dims": (3, 24)},
        {"dims": (24, 3)},
        {"classes": ("A",)},
    ],
)
def test_degenerate_parameters_rejected(tmp_path, kwargs):
    with pytest.raises(ConfigError):
        generate_dataset(tmp_path, **{"subjects_per_class": 2, "nz": 6, **kwargs})

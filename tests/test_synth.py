"""Synthetic dataset generator: structure, determinism, entropy contrast."""

import hashlib
import re
import threading

import numpy as np
import pytest

from mridecomp import pool
from mridecomp.entropy import rank_slices, select_top_k
from mridecomp.errors import ConfigError, IoError
from mridecomp.manifest import read_manifest
from mridecomp.nifti import read_nifti
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
        entropies = rank_slices(read_nifti(row.path)).tolist()
        margin = max(1, len(entropies) // 8)
        for i in range(margin):
            assert entropies[i] == 0.0
            assert entropies[-1 - i] == 0.0
        central = entropies[margin:-margin]
        assert min(central) > 0.0


def test_entropy_ranking_prefers_central_slices(tmp_path):
    _, rows = generate_dataset(tmp_path, subjects_per_class=2, nz=16, seed=3)
    volume = read_nifti(rows[0].path)
    entropies = rank_slices(volume)
    nz = volume.dims[2]
    margin = max(1, nz // 8)
    n_central = nz - 2 * margin
    top = set(select_top_k(entropies, n_central).tolist())
    assert top == set(range(margin, nz - margin))


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


def _file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# SHA-256 of what generate_dataset(subjects_per_class=2, nz=6, seed=0) writes;
# any change to the volumes, their gzip members or the manifest shows here
PINNED_SHA256 = {
    "AD00.nii": "9bbc45dadc5a2960b1b5cd63ec8291ee1d570dcdf4667253df9d4d09b5a268ba",
    "AD01.nii.gz": "caf09ba239ce1c9d8a6ef4c10299417fbbbe767029e9dbf3b38e75c389ff05a0",
    "CN00.nii": "6b224ef1058eab790100f029ae358ef5de2eaf2b439874a2ccd9ecae565e7213",
    "CN01.nii.gz": "63ab30be15122615754978f404165d2570277597249cb099ba16a7995864cc21",
    "MCI00.nii": "f7a02654ae4d2d88184d2dd0378a14b5c6ce84c5c0138c635f89a83d66ff8c6c",
    "MCI01.nii.gz": "77de0619232b04ddfaa58a72984e04026afc3067c499624ce619d2681f51d6cc",
    "manifest.csv": "77fc2b34e43a57dd44acb312654fa427a99bab5516884771ee7dca0419c27fff",
}


def test_written_files_are_pinned(tmp_path):
    generate_dataset(tmp_path, subjects_per_class=2, nz=6, seed=0)
    written = _file_bytes(tmp_path)
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == (
        PINNED_SHA256
    )


def test_files_do_not_depend_on_worker_count(tmp_path, monkeypatch):
    written = {}
    for cpus in (1, 3):
        monkeypatch.setattr(pool, "_available_cpus", lambda: cpus)
        _, rows = generate_dataset(tmp_path / f"cpus{cpus}", subjects_per_class=3, nz=6, seed=7)
        assert [r.subject_id for r in rows] == [
            "CN00", "CN01", "CN02", "MCI00", "MCI01", "MCI02", "AD00", "AD01", "AD02"
        ]
        written[cpus] = _file_bytes(tmp_path / f"cpus{cpus}")
    assert len(written[1]) == 10
    assert written[1] == written[3]


def test_unwritable_subject_file_raises_io_error(tmp_path, monkeypatch):
    monkeypatch.setattr(pool, "_available_cpus", lambda: 3)
    (tmp_path / "CN01.nii.gz").mkdir()
    before = set(threading.enumerate())
    with pytest.raises(IoError, match=re.escape(f"cannot write {tmp_path / 'CN01.nii.gz'}: ")):
        generate_dataset(tmp_path, subjects_per_class=2, nz=6, seed=0)
    assert not (tmp_path / "manifest.csv").exists()
    assert set(threading.enumerate()) == before

"""Manifest parsing: subject ids become file names, so unsafe ones are rejected;
volume paths come back absolute."""

from pathlib import Path

import pytest

from mridecomp.errors import ParseError
from mridecomp.manifest import read_manifest


def write(tmp_path, *rows):
    path = tmp_path / "manifest.csv"
    path.write_text("subject_id,label,path\n" + "".join(f"{r},CN,v.nii\n" for r in rows))
    return path


@pytest.mark.parametrize("subject_id", ["../x", "/abs", "a/b", ".hidden", "a\\b", "a b"])
def test_unsafe_subject_id_rejected_with_line_number(tmp_path, subject_id):
    path = write(tmp_path, "CN00", subject_id)
    with pytest.raises(ParseError, match=r"manifest\.csv:3: subject_id"):
        read_manifest(path)


def test_volume_paths_are_absolute_without_resolving_symlinks(tmp_path, monkeypatch):
    (tmp_path / "real").mkdir()
    write(tmp_path / "real", "CN00")
    (tmp_path / "link").symlink_to(tmp_path / "real")
    monkeypatch.chdir(tmp_path)
    [row] = read_manifest("link/manifest.csv")
    assert row.path == Path.cwd() / "link" / "v.nii"


def test_safe_subject_ids_accepted(tmp_path):
    ids = ["CN00", "sub-01", "002_S_0295", "a.b"]
    assert [r.subject_id for r in read_manifest(write(tmp_path, *ids))] == ids

"""Command-line interface: subcommand chain, exit codes, artifacts."""

import dataclasses
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mridecomp.cli import main
from mridecomp.features import load_precomputed, save_features
from mridecomp.nifti import read_nifti
from mridecomp.synth import write_nifti


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-data")
    assert main(["synth", "--out", str(d), "--subjects", "4", "--nz", "8", "--seed", "0"]) == 0
    return d


def test_synth_writes_dataset(data_dir):
    manifest = data_dir / "manifest.csv"
    assert manifest.exists()
    lines = manifest.read_text().splitlines()
    assert lines[0].startswith("subject_id,label,path")
    assert len(lines) == 13  # header + 4 subjects x 3 classes


# what fit writes, apart from models/cell-*.json: the config and fitted files of a pipeline run
FIT_FILES = [
    "centroids.json",
    "codec.json",
    "config.json",
    "decomposition_report.csv",
    "losses.json",
    "metrics.json",
    "pca.json",
    "report.txt",
    "scaler.json",
    "seeds.json",
    "split.json",
    "sublabeled_test.csv",
    "sublabeled_train.csv",
]


def _files(directory):
    return sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file())


def test_full_standalone_chain(data_dir, tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["features", "--manifest", str(data_dir / "manifest.csv"), "--out", str(work)]) == 0
    assert _files(work) == ["config.json", "entropies.csv", "features.csv", "manifest.csv"]
    assert "feature matrix" in capsys.readouterr().out

    fit = tmp_path / "fit"
    assert main(["fit", "--features", str(work / "features.csv"), "--out", str(fit)]) == 0
    assert _files(fit) == sorted([*FIT_FILES, "models/cell-0.json", "models/cell-1.json"])
    assert "composed test accuracy" in capsys.readouterr().out
    metrics = json.loads((fit / "metrics.json").read_text())
    assert metrics["selected_cell"] in metrics["cells"]
    assert "Accuracy (%)" in (fit / "report.txt").read_text()


def test_pipeline_subcommand(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"training": {"learning_rates": [0.01], "epochs": 40}}))
    run_dir = tmp_path / "run"
    code = main(
        [
            "pipeline",
            "--manifest", str(data_dir / "manifest.csv"),
            "--config", str(cfg_path),
            "--out", str(run_dir),
        ]
    )
    assert code == 0
    assert (run_dir / "metrics.json").exists()
    out = capsys.readouterr().out
    assert "composed test accuracy" in out


def test_standalone_chain_reproduces_pipeline(data_dir, tmp_path):
    """fit on a run's features.csv, given its split.json or not, writes the
    run's config and every file the run fitted, byte for byte, and nothing else."""
    cfg_path = tmp_path / "cfg.json"
    rates = [0.01, 0.001, 0.1]
    cfg_path.write_text(json.dumps({"training": {"learning_rates": rates, "epochs": 30}}))
    run = tmp_path / "run"
    common = ["--config", str(cfg_path)]
    manifest = str(data_dir / "manifest.csv")
    assert main(["pipeline", "--manifest", manifest, "--out", str(run), *common]) == 0

    fitted = sorted([*FIT_FILES, "models/cell-0.json", "models/cell-1.json", "models/cell-2.json"])
    features = ["--features", str(run / "features.csv")]
    for name, split in (("refit", ["--split", str(run / "split.json")]), ("fit", [])):
        out = tmp_path / name
        assert main(["fit", *features, *split, "--out", str(out), *common]) == 0
        assert _files(out) == fitted
        for path in fitted:
            assert (out / path).read_bytes() == (run / path).read_bytes(), (name, path)


def test_features_then_fit_into_one_directory_is_the_pipeline(data_dir, tmp_path):
    """pipeline is features then fit: run into one directory, with the same
    config and seed, they write the pipeline run's files byte for byte, all
    but run_info.json."""
    cfg_path = tmp_path / "cfg.json"
    rates = [0.01, 0.001, 0.1]
    cfg_path.write_text(json.dumps({"training": {"learning_rates": rates, "epochs": 30}}))
    common = ["--config", str(cfg_path), "--seed", "3"]
    manifest = ["--manifest", str(data_dir / "manifest.csv")]
    run, chain = tmp_path / "run", tmp_path / "chain"
    assert main(["pipeline", *manifest, "--out", str(run), *common]) == 0
    assert main(["features", *manifest, "--out", str(chain), *common]) == 0
    features = ["--features", str(chain / "features.csv")]
    assert main(["fit", *features, "--out", str(chain), *common]) == 0

    written = _files(chain)
    assert written == [path for path in _files(run) if path != "run_info.json"]
    assert len(written) == 19
    for path in written:
        assert (chain / path).read_bytes() == (run / path).read_bytes(), path


@pytest.mark.parametrize(
    "document, message",
    [
        pytest.param("{not json", "invalid JSON: ", id="not-json"),
        pytest.param({"train": ["s0"]}, "missing split key(s): ['test']", id="missing-key"),
        pytest.param(
            {"train": ["s0"], "test": ["s1", "s2"], "note": "x"},
            "unknown split key(s): ['note']",
            id="unknown-key",
        ),
        pytest.param({"train": "s0", "test": ["s1", "s2"]}, "train must be a list", id="not-a-list"),
        pytest.param({"train": ["s0", "s1"], "test": [2]}, "test[0] must be a string", id="not-a-str"),
        pytest.param(
            {"train": [], "test": ["s0", "s1", "s2"]},
            "train and test must each name a subject",
            id="empty-side",
        ),
        pytest.param(
            {"train": ["s0", "s1"], "test": ["s1", "s2"]},
            "subjects in both train and test: ['s1']",
            id="on-both-sides",
        ),
        pytest.param(
            {"train": ["s0", "s1"], "test": ["s2", "s9"]},
            "subjects not in the feature rows: ['s9']",
            id="absent-from-features",
        ),
        pytest.param(
            {"train": ["s0"], "test": ["s2"]},
            "subjects in neither train nor test: ['s1']",
            id="on-neither-side",
        ),
        pytest.param(
            {"train": ["s0", "s1"], "test": ["s2"]},
            "classes with no train subject: ['B']",
            id="class-not-in-train",
        ),
    ],
)
def test_bad_split_exits_1(tmp_path, monkeypatch, capsys, document, message):
    """fit --split: a file that is not a split of the feature rows' subjects
    is bad input, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.csv").write_text("subject_id,label,f0\ns0,A,0.0\ns1,A,1.0\ns2,B,2.0\n")
    split = tmp_path / "split.json"
    split.write_text(document if isinstance(document, str) else json.dumps(document))
    assert main(["fit", "--features", "f.csv", "--split", str(split), "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {split}: {message}")
    assert not (tmp_path / "out").exists()


def test_seed_override_is_deterministic(data_dir, tmp_path):
    work = tmp_path / "work"
    main(["features", "--manifest", str(data_dir / "manifest.csv"), "--out", str(work)])
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(["fit", "--features", str(work / "features.csv"), "--out", str(out), "--seed", "5"])
        assert code == 0
    assert json.loads((a / "seeds.json").read_text())["base"] == 5
    for name in ("split.json", "codec.json", "centroids.json", "metrics.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_bad_config_exits_1(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    for document, message in (
        ({"split": {"train_frac": 1.0}}, "train_frac"),
        ({"slice_selection": {"levels": 257}}, "error: slice_selection.levels must be <= 256"),
    ):
        cfg_path.write_text(json.dumps(document))
        code = main(
            [
                "pipeline",
                "--manifest", str(data_dir / "manifest.csv"),
                "--config", str(cfg_path),
                "--out", str(tmp_path / "run"),
            ]
        )
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("number", ["1e999", "NaN", "-Infinity"])
def test_config_with_a_non_finite_number_exits_1(data_dir, tmp_path, capsys, number):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(f'{{"training": {{"learning_rates": [{number}]}}}}')
    argv = ["pipeline", "--manifest", str(data_dir / "manifest.csv"), "--config", str(cfg_path)]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {cfg_path}: invalid JSON: ")
    assert number.lstrip("-") in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "document, key",
    [
        ({"training": {"learning_rates": [10**400]}}, "training.learning_rates[0]"),
        ({"training": {"eps": 10**400}}, "training.eps"),
    ],
    ids=["learning-rate", "eps"],
)
def test_config_with_an_integer_beyond_float64_exits_1(data_dir, tmp_path, capsys, document, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    argv = ["pipeline", "--manifest", str(data_dir / "manifest.csv"), "--config", str(cfg_path)]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"error: {key} must be a number within float64's range, got 1000")
    assert not (tmp_path / "run").exists()


def test_validation_fraction_is_an_unknown_config_key(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"training": {"validation_fraction": 0.2}}')
    argv = ["pipeline", "--manifest", str(data_dir / "manifest.csv"), "--config", str(cfg_path)]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "unknown config key(s) in training: ['validation_fraction']" in err
    assert not (tmp_path / "run").exists()


def test_duplicate_learning_rates_exit_1(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"training": {"learning_rates": [0.01, 1e-2]}}')
    argv = ["pipeline", "--manifest", str(data_dir / "manifest.csv"), "--config", str(cfg_path)]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    assert "learning_rates must be distinct" in capsys.readouterr().err
    assert not (tmp_path / "run" / "models").exists()


def test_unknown_config_key_exits_1(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sliceselection": {"levels": 8}}))
    code = main(
        [
            "pipeline",
            "--manifest", str(data_dir / "manifest.csv"),
            "--config", str(cfg_path),
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_missing_required_flag_exits_1(capsys):
    assert main(["features", "--out", "out"]) == 1
    assert "--manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["features", "--manifest", "m.csv"],
        ["fit", "--features", "f.csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_missing_out_exits_1(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "document",
    [
        {"slice_selection": {"levels": "8"}},
        {"pca": {"variance_threshold": None}},
        {"slice_selection": {"offset": "ab"}},
        {"training": {"learning_rates": 0.01}},
        {"seed": "x"},
        {"training": {"epochs": 2.5}},
        {"decomposition": {"k": True}},
    ],
    ids=lambda document: json.dumps(document),
)
def test_mistyped_config_value_exits_1(data_dir, tmp_path, capsys, document):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    argv = ["pipeline", "--manifest", str(data_dir / "manifest.csv"), "--config", str(cfg_path)]
    assert main([*argv, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    section, value = next(iter(document.items()))
    name = section if not isinstance(value, dict) else f"{section}.{next(iter(value))}"
    assert f"error: {name} must be" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--features", "missing.csv", "--config", "missing.json"],
        ["fit", "--features", "missing.csv"],
        ["fit", "--features", "f.csv", "--split", "missing.json"],
        ["features", "--manifest", "missing.csv"],
        ["pipeline", "--manifest", "missing.csv"],
    ],
    ids=["config", "features", "split", "manifest", "pipeline-manifest"],
)
def test_missing_input_file_exits_1(argv, tmp_path, monkeypatch, capsys):
    """An input file named by a flag that cannot be opened is a bad argument."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f.csv").write_text("subject_id,label,f0\ns0,A_1,-1.0\ns1,A_2,1.0\n")
    assert main([*argv, "--out", "out"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error: missing." in err and "cannot read: No such file or directory" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--out", "x", "--config", "cfg.json"],
        ["synth", "--out", "x", "--force"],
        ["fit", "--features", "f.csv", "--out", "x", "--manifest", "m.csv"],
        ["fit", "--features", "f.csv", "--out", "x", "--codec", "c.json"],
        ["fit", "--features", "f.csv", "--out", "x", "--model", "m.json"],
        ["features", "--manifest", "m.csv", "--out", "x", "--split", "s.json"],
        ["features", "--manifest", "m.csv", "--out", "x", "--force"],
        ["pipeline", "--manifest", "m.csv", "--out", "x", "--force"],
    ],
)
def test_flags_a_subcommand_ignores_are_rejected(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unsafe_subject_id_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("subject_id,label,path\nCN00,CN,a.nii\n../escape,CN,b.nii\n")
    assert main(["features", "--manifest", str(bad), "--out", str(tmp_path / "work")]) == 1
    err = capsys.readouterr().err
    assert ":3:" in err and "../escape" in err
    assert not (tmp_path / "work").exists()


def test_synth_validation_exits_1(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path), "--subjects", "1"]) == 1
    assert "need at least 2 subjects per class, got 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "classes, message",
    [
        ("CN,CN", "duplicate class names"),
        ("../x,C", "class name '../x' does not make a safe subject id"),
    ],
)
def test_synth_rejects_unusable_class_names(tmp_path, capsys, classes, message):
    out = tmp_path / "esc" / "out"
    assert main(["synth", "--out", str(out), "--classes", classes, "--subjects", "2"]) == 1
    assert message in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    for removed in ("slices", "decompose", "train", "evaluate"):  # features and fit replaced them
        assert main([removed, "--features", "f.csv", "--out", "x"]) == 1
        assert f"invalid choice: '{removed}'" in capsys.readouterr().err


_ROWS = "subject_id,label,f0,f1\n"


@pytest.mark.parametrize(
    "files, argv, code, message",
    [
        pytest.param(
            {"features.csv": _ROWS},
            ["fit", "--features", "features.csv"],
            1,
            "error: features.csv: no data rows",
            id="header-only-features",
        ),
        pytest.param(
            {"manifest.csv": "subject_id,label,path\n"},
            ["features", "--manifest", "manifest.csv"],
            1,
            "error: manifest.csv: manifest has no data rows",
            id="header-only-manifest",
        ),
        pytest.param(
            {"features.csv": _ROWS + "a0,AD,0.5,1.0\nc0,CN,0.0,0.0\nc1,CN,1.0,1.0\nc2,CN,2.0,4.0\n"},
            ["fit", "--features", "features.csv"],
            2,
            "error: stage 'decompose' failed: class 'AD' has 1 samples, fewer than k=2",
            id="one-row-class",
        ),
    ],
)
def test_too_few_rows_exit_codes_and_messages(
    tmp_path, monkeypatch, capsys, files, argv, code, message
):
    """An input with no rows, or too few rows for the fit, ends in one stderr
    line: an empty file is bad input (exit 1), a fit that cannot run is its
    stage's failure (exit 2)."""
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    capsys.readouterr()
    assert main(argv + ["--out", "out"]) == code
    assert capsys.readouterr().err == message + "\n"


def _absolute_manifest_lines(data_dir):
    """The fixture manifest's lines with absolute volume paths, for a copy
    of the manifest written elsewhere."""
    lines = (data_dir / "manifest.csv").read_text().splitlines()
    for i in range(1, len(lines)):
        volume = lines[i].split(",")[2]
        lines[i] = lines[i].replace(volume, str(data_dir / volume))
    return lines


def _assert_subjects_failed(err, work, manifest_lines, failed):
    """The failed subjects end the run in the slices stage, with one error
    naming them all, after every other subject of the manifest was ranked
    into entropies.csv; no features.csv is written."""
    assert "Traceback" not in err
    assert err == (
        "error: stage 'slices' failed: subjects failed slice selection or feature extraction: "
        + ", ".join(sorted(failed))
        + "\n"
    )
    subjects = {line.split(",", 1)[0] for line in manifest_lines[1:]}
    ranked_lines = (work / "entropies.csv").read_text().splitlines()[1:]
    ranked = {line.split(",", 1)[0] for line in ranked_lines}
    assert ranked == subjects - set(failed)
    assert not (work / "features.csv").exists()


def test_missing_volume_exits_2(data_dir, tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    lines = _absolute_manifest_lines(data_dir)
    first_file = lines[1].split(",")[2]
    lines[1] = lines[1].replace(first_file, "missing.nii")
    broken.write_text("\n".join(lines) + "\n")

    work = tmp_path / "work"
    assert main(["features", "--manifest", str(broken), "--out", str(work)]) == 2
    _assert_subjects_failed(capsys.readouterr().err, work, lines, [lines[1].split(",")[0]])


def test_corrupt_gzip_volume_exits_2(data_dir, tmp_path, capsys):
    lines = _absolute_manifest_lines(data_dir)
    gz_lines = [i for i, line in enumerate(lines) if ".nii.gz" in line][:2]
    for i, cut in zip(gz_lines, ("truncated", "flipped")):
        volume = lines[i].split(",")[2]
        data = bytearray(Path(volume).read_bytes())
        if cut == "truncated":
            del data[len(data) // 2 :]
        else:
            data[len(data) // 2] ^= 0x10
        (tmp_path / f"{cut}.nii.gz").write_bytes(bytes(data))
        lines[i] = lines[i].replace(volume, str(tmp_path / f"{cut}.nii.gz"))
    broken = tmp_path / "broken.csv"
    broken.write_text("\n".join(lines) + "\n")

    work = tmp_path / "work"
    assert main(["features", "--manifest", str(broken), "--out", str(work)]) == 2
    failed = [lines[i].split(",")[0] for i in gz_lines]
    _assert_subjects_failed(capsys.readouterr().err, work, lines, failed)


@pytest.mark.parametrize("command", ["features", "pipeline"])
def test_unloadable_model_exits_2(data_dir, tmp_path, capsys, command):
    model = tmp_path / "enc.onnx"
    model.write_bytes(b"not an onnx model")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"features": {"backend": "onnx", "model_path": str(model)}}))
    out = tmp_path / "out"
    argv = [command, "--manifest", str(data_dir / "manifest.csv"), "--config", str(config)]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: stage 'features' failed: ")
    assert not (out / "features.csv").exists()


def _manifest_with_wide_volume(data_dir, tmp_path, subject, low, high):
    """A copy of the manifest in which subject reads a float64 copy of its
    volume with low and high written into the voxels those indices select."""
    lines = (data_dir / "manifest.csv").read_text().splitlines()
    for i in range(1, len(lines)):  # the manifest is written elsewhere: absolute paths
        sid, _, volume = lines[i].split(",")[:3]
        path = data_dir / volume
        if sid == subject:
            voxels = np.array(read_nifti(path).voxels, dtype=np.float64)
            voxels[low], voxels[high] = -1.7e308, 1.7e308
            path = tmp_path / "wide.nii"
            write_nifti(path, voxels, datatype_code=64)
        lines[i] = lines[i].replace(volume, str(path))
    manifest = tmp_path / "wide.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


@pytest.mark.parametrize("command", ["features", "pipeline"])
def test_subject_with_non_finite_feature_rows_exits_2(data_dir, tmp_path, capsys, caplog, command):
    # finite float64 voxels whose neighbours span more than float64 resample to inf/nan
    lines = (data_dir / "manifest.csv").read_text().splitlines()
    subject = lines[2].split(",")[0]
    manifest = _manifest_with_wide_volume(
        data_dir, tmp_path, subject, np.s_[0, 0, :], np.s_[1, 0, :]
    )

    out = tmp_path / "out"
    assert main([command, "--manifest", str(manifest), "--out", str(out)]) == 2
    _assert_subjects_failed(capsys.readouterr().err, out, lines, [subject])
    assert f"subject {subject} failed: " in caplog.text
    assert "feature rows are not finite" in caplog.text


def test_non_finite_loss_exits_2_and_leaves_no_invalid_json(tmp_path, capsys):
    # a learning rate near float64's limit overflows the weights in the first epoch
    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--subjects", "6", "--nz", "30", "--seed", "0"]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"training": {"learning_rates": [1e308]}}))
    capsys.readouterr()

    out = tmp_path / "out"
    argv = ["pipeline", "--manifest", str(data_dir / "manifest.csv"), "--out", str(out)]
    assert main(argv + ["--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(
        "error: stage 'train' failed: cell lr=1e+308: train loss is first not finite at epoch 1"
    )
    written = sorted(out.rglob("*.json"))
    assert written
    for path in written:
        text = path.read_text()
        assert "Infinity" not in text and "NaN" not in text, path


def test_train_with_a_non_finite_loss_exits_2(data_dir, tmp_path, capsys):
    # fit reports a training loss that is not finite as the pipeline does
    work = tmp_path / "work"
    assert main(["features", "--manifest", str(data_dir / "manifest.csv"), "--out", str(work)]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"training": {"learning_rates": [1e308]}}))
    capsys.readouterr()

    out = tmp_path / "fit"
    argv = ["fit", "--features", str(work / "features.csv"), "--config", str(cfg_path)]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(
        "error: stage 'train' failed: cell lr=1e+308: train loss is first not finite at epoch 1"
    )
    assert not (out / "losses.json").exists()
    assert not list((out / "models").iterdir())


def test_fit_rejects_a_subject_with_two_labels(data_dir, tmp_path, capsys):
    """One AD00 row of a run's features.csv relabelled CN: fit exits 1 naming
    the file, the subject, both labels and the line, and writes nothing."""
    work = tmp_path / "work"
    assert main(["features", "--manifest", str(data_dir / "manifest.csv"), "--out", str(work)]) == 0
    lines = (work / "features.csv").read_text().splitlines(keepends=True)
    rows = [i for i, line in enumerate(lines) if line.startswith("AD00,AD,")]
    lines[rows[1]] = lines[rows[1]].replace("AD00,AD,", "AD00,CN,", 1)
    (work / "features.csv").write_text("".join(lines))
    out = tmp_path / "fit"
    capsys.readouterr()
    assert main(["fit", "--features", str(work / "features.csv"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {work / 'features.csv'}: line {rows[1] + 1}: subject 'AD00' is labelled 'CN',"
        f" but 'AD' on line {rows[0] + 1}\n"
    )
    assert not out.exists()


def _huge_features(data_dir, tmp_path):
    """The fixture's features.csv scaled by 5e305: finite feature rows whose
    standard deviations overflow float64."""
    work = tmp_path / "work"
    assert main(["features", "--manifest", str(data_dir / "manifest.csv"), "--out", str(work)]) == 0
    X = load_precomputed(work / "features.csv")
    save_features(dataclasses.replace(X, values=X.values * 5e305), tmp_path / "huge.csv")
    return tmp_path / "huge.csv"


@pytest.mark.parametrize(
    "command, stage",
    [
        ("synth", "synth"),
        ("features", "manifest"),
        ("fit", "decompose"),
        ("pipeline", "manifest"),
    ],
)
def test_failure_inside_a_subcommand_exits_2(data_dir, tmp_path, capsys, command, stage):
    """Every subcommand reports a failure inside it as its stage's, as the pipeline does."""
    manifest = ["--manifest", str(data_dir / "manifest.csv")]
    if command == "fit":
        argv = ["fit", "--features", str(_huge_features(data_dir, tmp_path))]
        out = tmp_path / "fit"
    else:
        (tmp_path / "file").write_text("")
        argv = [command] if command == "synth" else [command, *manifest]
        out = tmp_path / "file" / "out"
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: stage '{stage}' failed: ")
    assert "Traceback" not in err
    assert not (out / "scaler.json").exists()


def test_decompose_names_the_feature_column_that_overflows(data_dir, tmp_path, capsys):
    huge = _huge_features(data_dir, tmp_path)
    out = tmp_path / "fit"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", "--features", str(huge), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: stage 'decompose' failed: feature column f0 overflows float64: "
        "its mean or standard deviation is not finite\n"
    )
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "scaler.json").exists()


def test_pipeline_stage_failure_exits_2(data_dir, tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    lines = _absolute_manifest_lines(data_dir)
    first_file = lines[1].split(",")[2]
    lines[1] = lines[1].replace(first_file, "missing.nii")
    broken.write_text("\n".join(lines) + "\n")

    run = tmp_path / "run"
    assert main(["pipeline", "--manifest", str(broken), "--out", str(run)]) == 2
    _assert_subjects_failed(capsys.readouterr().err, run, lines, [lines[1].split(",")[0]])


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [
            sys.executable, "-m", "mridecomp",
            "synth", "--out", str(tmp_path), "--subjects", "2", "--nz", "4",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "manifest.csv").exists()

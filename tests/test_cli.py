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


def test_full_standalone_chain(data_dir, tmp_path, capsys):
    work = tmp_path / "work"
    assert main(["slices", "--manifest", str(data_dir / "manifest.csv"), "--out", str(work)]) == 0
    assert sorted(p.name for p in work.iterdir()) == ["entropies.csv"]
    out = capsys.readouterr().out
    assert "selected" in out

    assert main(["features", "--manifest", str(data_dir / "manifest.csv"), "--out", str(work)]) == 0
    assert (work / "features.csv").exists()

    dec = tmp_path / "dec"
    assert main(["decompose", "--features", str(work / "features.csv"), "--out", str(dec)]) == 0
    assert sorted(p.name for p in dec.iterdir()) == [
        "centroids.json",
        "codec.json",
        "decomposition_report.csv",
        "pca.json",
        "scaler.json",
        "sublabeled_features.csv",
    ]

    tr = tmp_path / "tr"
    assert (
        main(
            [
                "train",
                "--features", str(dec / "sublabeled_features.csv"),
                "--codec", str(dec / "codec.json"),
                "--out", str(tr),
            ]
        )
        == 0
    )
    assert (tr / "model.json").exists()
    assert (tr / "losses.json").exists()
    assert list((tr / "models").glob("cell-*.json"))

    ev = tmp_path / "ev"
    assert (
        main(
            [
                "evaluate",
                "--features", str(dec / "sublabeled_features.csv"),
                "--model", str(tr / "model.json"),
                "--out", str(ev),
            ]
        )
        == 0
    )
    metrics = json.loads((ev / "metrics.json").read_text())
    assert "composed_metrics" in metrics
    assert "Accuracy (%)" in (ev / "report.txt").read_text()


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
    """decompose + train on the train rows rebuild the pipeline's artifacts."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"training": {"learning_rates": [0.01, 0.001], "epochs": 30}}))
    run = tmp_path / "run"
    common = ["--config", str(cfg_path)]
    manifest = str(data_dir / "manifest.csv")
    assert main(["pipeline", "--manifest", manifest, "--out", str(run), *common]) == 0

    train = set(json.loads((run / "split.json").read_text())["train"])
    header, *rows = (run / "features.csv").read_text().splitlines(keepends=True)
    train_csv = tmp_path / "train_features.csv"
    train_csv.write_text(header + "".join(r for r in rows if r.split(",", 1)[0] in train))

    dec, tr = tmp_path / "dec", tmp_path / "tr"
    assert main(["decompose", "--features", str(train_csv), "--out", str(dec), *common]) == 0
    assert main(
        [
            "train",
            "--features", str(dec / "sublabeled_features.csv"),
            "--codec", str(dec / "codec.json"),
            "--out", str(tr),
            *common,
        ]
    ) == 0

    fitted = ["scaler.json", "pca.json", "codec.json", "centroids.json", "decomposition_report.csv"]
    for name in fitted:
        assert (dec / name).read_bytes() == (run / name).read_bytes(), name
    assert (dec / "sublabeled_features.csv").read_bytes() == (
        run / "sublabeled_train.csv"
    ).read_bytes()
    models = sorted(p.name for p in (run / "models").glob("cell-*.json"))
    assert models == sorted(p.name for p in (tr / "models").glob("cell-*.json"))
    assert len(models) == 2
    for name in models:
        assert (tr / "models" / name).read_bytes() == (run / "models" / name).read_bytes(), name


_CODEC = {"classes": ["A"], "cluster_counts": [2]}
_MODEL = {
    "input_dim": 1,
    "hidden_dim": 0,
    "output_dim": 2,
    "codec": _CODEC,
    "params": {"W": [[0.5, -0.5]], "b": [0.0, 0.0]},
}


@pytest.mark.parametrize(
    "flag, document, code",
    [
        pytest.param("--model", "{not json", 1, id="model-not-json"),
        pytest.param("--codec", "{not json", 1, id="codec-not-json"),
        pytest.param("--codec", {"classes": ["A"]}, 1, id="codec-without-cluster_counts"),
        pytest.param("--codec", {**_CODEC, "cluster_counts": ["two"]}, 1, id="codec-mistyped"),
        pytest.param("--codec", {"classes": "AD", "cluster_counts": [1, 1]}, 1, id="codec-str-classes"),
        pytest.param("--codec", {**_CODEC, "cluster_counts": [2.7]}, 1, id="codec-float-count"),
        pytest.param(
            "--model",
            {k: v for k, v in _MODEL.items() if k != "input_dim"},
            1,
            id="model-without-input_dim",
        ),
        pytest.param("--model", {**_MODEL, "codec": {"classes": "A"}}, 1, id="model-bad-codec"),
        pytest.param("--model", {**_MODEL, "input_dim": 1.0}, 1, id="model-float-input_dim"),
        pytest.param("--model", {**_MODEL, "note": "x"}, 1, id="model-unknown-key"),
        pytest.param(
            "--model",
            {**_MODEL, "params": {"W": [[float("nan"), -0.5]], "b": [0.0, 0.0]}},
            1,
            id="model-NaN-weight",
        ),
        pytest.param(
            "--model",
            {**_MODEL, "params": {"W": [[0.5, -0.5]], "b": [float("inf"), 0.0]}},
            1,
            id="model-Infinity-bias",
        ),
        pytest.param("--codec", '{"classes": ["A"], "cluster_counts": [1e999]}', 1, id="codec-1e999"),
        pytest.param("--codec", {**_CODEC, "note": "x"}, 1, id="codec-unknown-key"),
        pytest.param(
            "--model",
            {**_MODEL, "params": {"W": [[0.5, -0.5, 0.0]], "b": [0.0, 0.0]}},
            2,
            id="model-W-shape",
        ),
    ],
)
def test_malformed_model_or_codec_exits_without_traceback(tmp_path, capsys, flag, document, code):
    """evaluate --model / train --codec: a bad file is an error naming it, not a crash."""
    features = tmp_path / "sublabeled.csv"
    features.write_text("subject_id,label,f0\ns0,A_1,-1.0\ns1,A_2,1.0\n")
    bad = tmp_path / "bad.json"
    bad.write_text(document if isinstance(document, str) else json.dumps(document))
    command = "evaluate" if flag == "--model" else "train"
    argv = [command, "--features", str(features), flag, str(bad), "--out", str(tmp_path / "out")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert f"error: {bad}" in err
    else:  # the model loads, so its shapes fail inside the evaluate stage
        assert err.startswith(f"error: stage 'evaluate' failed: {bad}: expected params ")


def test_seed_override_is_deterministic(data_dir, tmp_path):
    work = tmp_path / "work"
    main(["features", "--manifest", str(data_dir / "manifest.csv"), "--out", str(work)])
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        code = main(
            ["decompose", "--features", str(work / "features.csv"), "--out", str(out), "--seed", "5"]
        )
        assert code == 0
    assert (a / "codec.json").read_bytes() == (b / "codec.json").read_bytes()
    assert (a / "centroids.json").read_bytes() == (b / "centroids.json").read_bytes()


def test_bad_config_exits_1(data_dir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"split": {"train_frac": 1.0}}))
    code = main(
        [
            "pipeline",
            "--manifest", str(data_dir / "manifest.csv"),
            "--config", str(cfg_path),
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 1
    assert "train_frac" in capsys.readouterr().err


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
    assert main(["slices", "--out", "/tmp/x"]) == 1
    assert "--manifest" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["slices", "--manifest", "m.csv"],
        ["decompose", "--features", "f.csv"],
        ["train", "--features", "f.csv", "--codec", "c.json"],
        ["evaluate", "--features", "f.csv", "--model", "m.json"],
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
        ["decompose", "--features", "missing.csv", "--config", "missing.json"],
        ["decompose", "--features", "missing.csv"],
        ["train", "--features", "f.csv", "--codec", "missing.json"],
        ["evaluate", "--features", "f.csv", "--model", "missing.json"],
        ["slices", "--manifest", "missing.csv"],
        ["pipeline", "--manifest", "missing.csv"],
    ],
    ids=["config", "features", "codec", "model", "manifest", "pipeline-manifest"],
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
        ["decompose", "--features", "f.csv", "--out", "x", "--manifest", "m.csv"],
        ["train", "--features", "f.csv", "--codec", "c.json", "--out", "x", "--force"],
        ["evaluate", "--features", "f.csv", "--model", "m.json", "--out", "x", "--force"],
        ["slices", "--manifest", "m.csv", "--out", "x", "--force"],
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
    assert main(["slices", "--manifest", str(bad), "--out", str(tmp_path / "work")]) == 1
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


_ROWS = "subject_id,label,f0,f1\n"


@pytest.mark.parametrize(
    "files, argv, code, message",
    [
        pytest.param(
            {"features.csv": _ROWS},
            ["decompose", "--features", "features.csv"],
            1,
            "error: features.csv: no data rows",
            id="header-only-features",
        ),
        pytest.param(
            {"manifest.csv": "subject_id,label,path\n"},
            ["slices", "--manifest", "manifest.csv"],
            1,
            "error: manifest.csv: manifest has no data rows",
            id="header-only-manifest",
        ),
        pytest.param(
            {"features.csv": _ROWS + "a0,AD,0.5,1.0\nc0,CN,0.0,0.0\nc1,CN,1.0,1.0\nc2,CN,2.0,4.0\n"},
            ["decompose", "--features", "features.csv"],
            2,
            "error: stage 'decompose' failed: class 'AD' has 1 samples, fewer than k=2",
            id="one-row-class",
        ),
        pytest.param(
            {
                "codec.json": '{"classes": ["AD", "CN"], "cluster_counts": [2, 1]}',
                "rows.csv": _ROWS + "a0,AD_1,0.0,1.0\nc0,CN_1,1.0,0.0\n",
            },
            ["train", "--features", "rows.csv", "--codec", "codec.json"],
            2,
            "error: stage 'train' failed: subclass AD_2 has no training samples",
            id="missing-subclass",
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


def test_missing_volume_exits_2(data_dir, tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    lines = (data_dir / "manifest.csv").read_text().splitlines()
    first_file = lines[1].split(",")[2]
    lines[1] = lines[1].replace(first_file, "missing.nii")
    broken.write_text("\n".join(lines) + "\n")

    work = tmp_path / "work"
    code = main(["slices", "--manifest", str(broken), "--out", str(work)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: subject" in err
    # the healthy subjects were still processed
    assert (work / "entropies.csv").exists()


def test_corrupt_gzip_volume_exits_2(data_dir, tmp_path, capsys):
    lines = (data_dir / "manifest.csv").read_text().splitlines()
    for i in range(1, len(lines)):  # the manifest is written elsewhere: absolute paths
        volume = lines[i].split(",")[2]
        lines[i] = lines[i].replace(volume, str(data_dir / volume))
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
    assert main(["slices", "--manifest", str(broken), "--out", str(work)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    for i in gz_lines:
        assert f"error: subject {lines[i].split(',')[0]}" in err
    ranked = (work / "entropies.csv").read_text().splitlines()[1:]
    assert len({line.split(",", 1)[0] for line in ranked}) == len(lines) - 1 - len(gz_lines)


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
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if command == "features":
        assert f"error: subject {subject}: " in err
        assert "feature rows are not finite" in err
        written = load_precomputed(out / "features.csv")
        assert subject not in written.subject_ids
        assert len(set(written.subject_ids)) == len(lines) - 2
    else:
        assert f"feature extraction: {subject}" in err
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


def test_train_with_a_non_finite_loss_exits_2(tmp_path, capsys):
    # finite rows near float64's limit: each row's loss is finite, their sum is not
    (tmp_path / "codec.json").write_text('{"classes": ["A", "B"], "cluster_counts": [1, 1]}')
    rows = ["subject_id,label,f0,f1"]
    rows += [f"a{i},A_1,1.7e308,-1.7e308" for i in range(500)]
    rows += [f"b{i},B_1,-1.7e308,1.7e308" for i in range(500)]
    (tmp_path / "rows.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "fit"
    argv = ["train", "--features", str(tmp_path / "rows.csv"), "--codec", str(tmp_path / "codec.json")]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(
        "error: stage 'train' failed: cell lr=0.01: train loss is first not finite at epoch 0"
    )
    assert not list(out.rglob("*.json"))


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
        ("slices", "slices"),
        ("features", "features"),
        ("decompose", "decompose"),
        ("pipeline", "manifest"),
    ],
)
def test_failure_inside_a_subcommand_exits_2(data_dir, tmp_path, capsys, command, stage):
    """Every subcommand reports a failure inside it as its stage's, as the pipeline does."""
    manifest = ["--manifest", str(data_dir / "manifest.csv")]
    if command == "decompose":
        argv = ["decompose", "--features", str(_huge_features(data_dir, tmp_path))]
        out = tmp_path / "dec"
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
    out = tmp_path / "dec"
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["decompose", "--features", str(huge), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: stage 'decompose' failed: feature column f0 overflows float64: "
        "its mean or standard deviation is not finite\n"
    )
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not (out / "scaler.json").exists()


def test_pipeline_stage_failure_exits_2(data_dir, tmp_path, capsys):
    broken = tmp_path / "broken.csv"
    lines = (data_dir / "manifest.csv").read_text().splitlines()
    first_file = lines[1].split(",")[2]
    lines[1] = lines[1].replace(first_file, "missing.nii")
    broken.write_text("\n".join(lines) + "\n")

    code = main(["pipeline", "--manifest", str(broken), "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: stage 'slices' failed: ")


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

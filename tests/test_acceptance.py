"""Acceptance gate: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Each test is self-contained: oracles are implemented inline from
first principles or taken from oracles.py, which holds reference code only,
rather than imported from the other test modules, so this file and
oracles.py alone certify the build.
"""

import itertools
import json
import time

import numpy as np
import pytest

from mridecomp.classifier import TrainConfig, init_model, train
from mridecomp.cluster import elbow_select_k, kmeans_restarts
from mridecomp.config import PipelineConfig
from mridecomp.decomposition import LabelCodec, decompose
from mridecomp.entropy import EntropyConfig, glcm_block, rank_slices
from mridecomp.evaluation import evaluate
from mridecomp.features import FeatureMatrix
from mridecomp.nifti import Volume, quantize_block, read_nifti
from mridecomp.pipeline import run_pipeline
from mridecomp.reduction import pca_fit, pca_transform
from mridecomp.synth import generate_dataset, write_nifti

from oracles import (
    brute_force_wcss,
    entropy_brute,
    glcm_brute,
    gradient_check,
    parse_subclass_name,
)


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def volume_of(pixels) -> Volume:
    """A one-slice volume holding the 2-D float64 pixels."""
    voxels = np.asarray(pixels, dtype=np.float64)[:, :, None]
    return Volume(subject_id="acc", dims=voxels.shape, voxels=voxels, datatype_code=64)


# --- criterion 1: GLCM entropy vs brute-force oracle -------------------------------


def test_criterion_01_entropy_oracle():
    rng = np.random.default_rng(101)
    levels = 4
    offsets = [(0, 1), (1, 0), (1, 1), (0, -1)]
    max_err = 0.0
    n_cases = 0
    start = time.monotonic()
    for rows, cols in itertools.product(range(1, 5), range(1, 5)):
        fills = [
            rng.integers(0, levels, size=(rows, cols)).astype(np.float64),
            rng.uniform(-50, 50, size=(rows, cols)),
            np.zeros((rows, cols)),
            np.arange(rows * cols, dtype=np.float64).reshape(rows, cols),
        ]
        for pixels, offset, symmetric in itertools.product(fills, offsets, [True, False]):
            block = pixels[:, :, None].copy()
            lo, hi = block.min(axis=(0, 1)), block.max(axis=(0, 1))
            indices = quantize_block(block, levels, lo, hi)
            counts = glcm_brute(indices[:, :, 0], levels, offset, symmetric)
            try:
                probabilities = glcm_block(indices, levels, offset, symmetric)[0]
            except Exception:
                # the offset has no in-bounds pairs for this shape; the
                # brute-force count must agree that the matrix is empty
                assert counts.sum() == 0
                continue
            cell_err = float(np.abs(probabilities - counts / counts.sum()).max())
            cfg = EntropyConfig(levels=levels, offset=offset, symmetric=symmetric)
            score = rank_slices(volume_of(pixels), cfg)[0].entropy
            entropy_err = abs(score - entropy_brute(counts))
            max_err = max(max_err, cell_err, entropy_err)
            n_cases += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "GLCM cells and entropy match a brute-force oracle on an exhaustive small-slice suite",
        max_err <= 1e-12 and elapsed < 1.0,
        f"{n_cases} cases, max |err| {max_err:.2e}, {elapsed:.2f}s",
    )


# --- criterion 2: affine invariance -------------------------------------------------


def test_criterion_02_affine_invariance():
    rng = np.random.default_rng(202)
    cfg = EntropyConfig()
    worst = 0.0
    for _ in range(100):
        pixels = rng.uniform(-100, 100, size=(12, 12))
        base = rank_slices(volume_of(pixels), cfg)[0].entropy
        for a in (0.5, 3.0):
            for b in (-10.0, 100.0):
                other = rank_slices(volume_of(a * pixels + b), cfg)[0].entropy
                worst = max(worst, abs(other - base))
    report(
        2,
        "slice entropy is invariant under positive affine intensity maps",
        worst == 0.0,
        f"100 slices x 4 maps, max |difference| {worst:.2e}",
    )


# --- criterion 3: k-means vs exhaustive optimum --------------------------------------


def clustered_instance(rng):
    """Random small instance with planted structure: separated centers plus
    unit noise. Unstructured uniform clouds are excluded on purpose — they
    admit near-ties where no Lloyd-style solver reliably reaches the global
    optimum in a fixed restart budget, which would test luck, not code."""
    n = int(rng.integers(4, 9))
    m = int(rng.integers(1, 4))
    k = min(int(rng.integers(1, 4)), n)
    for _ in range(50):
        centers = rng.uniform(-10, 10, size=(k, m))
        gaps = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(k)
            for j in range(i)
        ]
        if not gaps or min(gaps) >= 6.0:
            break
    else:
        # rejection failed; space the centers along the first axis instead
        centers = np.zeros((k, m))
        centers[:, 0] = np.arange(k) * 8.0 - 8.0
    X = centers[rng.integers(0, k, size=n)] + rng.normal(size=(n, m))
    return X, k


def test_criterion_03_kmeans_reaches_optimum():
    start = time.monotonic()
    worst_gap = 0.0
    for trial in range(50):
        rng = np.random.default_rng(30_300 + trial)
        X, k = clustered_instance(rng)
        result = kmeans_restarts(X, k, seed=trial, n_init=10)
        optimum = brute_force_wcss(X, k)
        worst_gap = max(worst_gap, result.wcss - optimum)
    elapsed = time.monotonic() - start
    report(
        3,
        "restarted k-means attains the exhaustive-search optimum on 50 small instances",
        worst_gap <= 1e-9 and elapsed < 30.0,
        f"worst gap {worst_gap:.2e}, {elapsed:.1f}s",
    )


# --- criterion 4: elbow recovers the planted group count ----------------------------


def test_criterion_04_elbow_recovery():
    results = {}
    for g in (2, 3, 4):
        hits = 0
        for trial in range(30):
            rng = np.random.default_rng(1000 * g + trial)
            centers = (8.0 / np.sqrt(2.0)) * np.eye(g)
            X = np.vstack([c + rng.normal(size=(20, g)) for c in centers])
            chosen = elbow_select_k(X, 1, 6, seed=trial).k
            hits += chosen == g
        results[g] = hits
    ok = all(hits >= 27 for hits in results.values())
    report(
        4,
        "elbow selection recovers the planted group count in >=90% of trials",
        ok,
        ", ".join(f"g={g}: {hits}/30" for g, hits in results.items()),
    )


# --- criterion 5: PCA structure -------------------------------------------------------


def as_matrix(values) -> FeatureMatrix:
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    return FeatureMatrix(
        values=values,
        labels=("x",) * n,
        subject_ids=tuple(f"s{i}" for i in range(n)),
    )


def test_criterion_05_pca_structure():
    rng = np.random.default_rng(505)
    ortho_err = 0.0
    for _ in range(10):
        n = int(rng.integers(5, 40))
        m = int(rng.integers(2, 12))
        model = pca_fit(as_matrix(rng.normal(size=(n, m))), variance_threshold=1.0)
        C = model.components
        ortho_err = max(ortho_err, float(np.abs(C @ C.T - np.eye(C.shape[0])).max()))

    direction = np.array([3.0, 4.0, 0.0]) / 5.0
    rank1 = np.outer(rng.normal(size=30), direction)
    model1 = pca_fit(as_matrix(rank1), variance_threshold=0.95)
    ratio = float(model1.explained_variance_ratio[0])
    rank1_ok = model1.n_components == 1 and abs(ratio - 1.0) <= 1e-9

    X = rng.normal(size=(25, 6))
    full = pca_fit(as_matrix(X), variance_threshold=1.0)
    Z = pca_transform(as_matrix(X), full)
    recon_err = float(np.abs(Z.values @ full.components + full.mean - X).max())

    report(
        5,
        "PCA yields orthonormal components, isolates rank-1 data, reconstructs exactly",
        ortho_err <= 1e-8 and rank1_ok and recon_err < 1e-6,
        f"orthonormality {ortho_err:.1e}, rank-1 ratio {ratio:.12f}, reconstruction {recon_err:.1e}",
    )


# --- criterion 6: analytic vs numerical gradients -------------------------------------


def test_criterion_06_gradient_check():
    rng = np.random.default_rng(606)
    codec = LabelCodec(classes=("A", "B", "C"), cluster_counts=(2, 2, 2))
    worst = 0.0
    for trial in range(20):
        hidden = 0 if trial % 2 == 0 else int(rng.integers(4, 17))
        dim = int(rng.integers(2, 9))
        model = init_model(dim, codec, hidden_dim=hidden, seed=trial)
        for param in model.params.values():
            param *= 50.0  # init_model's N(0, 0.01) weights to N(0, 0.5)
        X = rng.normal(size=(int(rng.integers(3, 12)), dim))
        y = rng.integers(0, codec.n_sublabels, size=X.shape[0])
        worst = max(worst, gradient_check(model, X, y))
    report(
        6,
        "analytic gradients agree with central differences on 20 random models",
        worst < 1e-4,
        f"worst relative error {worst:.2e}",
    )


# --- criterion 7: decomposition conserves counts and codec is a bijection -------------


def test_criterion_07_decomposition_conservation():
    rng = np.random.default_rng(707)
    ok = True
    detail = ""
    for trial in range(10):
        classes = ["AD", "CN", "MCI"][: int(rng.integers(2, 4))]
        per = int(rng.integers(8, 20))
        values = rng.normal(size=(per * len(classes), 3)) * 5
        labels = [cls for cls in classes for _ in range(per)]
        X = FeatureMatrix(
            values=values,
            labels=tuple(labels),
            subject_ids=tuple(f"s{i}" for i in range(len(labels))),
        )
        ds = decompose(X, k=2, seed=trial)
        for cls in ds.codec.classes:
            expected = labels.count(cls)
            got = sum(
                int((ds.sublabels == ds.codec.encode(cls, c)).sum()) for c in range(2)
            )
            if got != expected:
                ok = False
                detail = f"trial {trial}: class {cls} {got} != {expected}"
        for sid in range(ds.codec.n_sublabels):
            cls, cluster = ds.codec.decode(sid)
            if ds.codec.encode(cls, cluster) != sid:
                ok = False
                detail = f"codec round trip broke at id {sid}"
            if parse_subclass_name(ds.codec, ds.codec.subclass_name(sid)) != sid:
                ok = False
                detail = f"name round trip broke at id {sid}"
    report(
        7,
        "decomposition conserves per-class counts; sublabel codec is a bijection",
        ok,
        detail or "10 random datasets",
    )


# --- criterion 8: composing subclasses never lowers accuracy ---------------------------


def test_criterion_08_composition_dominance():
    codec = LabelCodec(classes=("AD", "CN", "MCI"), cluster_counts=(2, 2, 2))
    ok = True
    margins = []
    for trial in range(6):
        rng = np.random.default_rng(808 + trial)
        X, y = [], []
        for sid in range(6):
            center = np.zeros(6)
            center[sid] = 8.0
            X.append(center + (2.0 + trial) * rng.normal(size=(12, 6)))
            y += [sid] * 12
        X, y = np.vstack(X), np.asarray(y)
        model = train(X, y, codec, TrainConfig(epochs=60, seed=trial)).model
        rep = evaluate(model, X, y, mode="argmax-strip")
        subclass_accuracy = rep.sub_metrics["accuracy"]
        margins.append(rep.composed_accuracy - subclass_accuracy)
        if rep.composed_accuracy < subclass_accuracy - 1e-12:
            ok = False
    report(
        8,
        "composed class accuracy never falls below subclass accuracy",
        ok,
        f"margins {', '.join(f'{m:+.3f}' for m in margins)}",
    )


# --- criteria 9 & 10: end-to-end accuracy, speed, and determinism ----------------------


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("e2e-data")
    manifest_path, _ = generate_dataset(data_dir, subjects_per_class=6, nz=30, seed=0)
    run_dir = tmp_path_factory.mktemp("e2e-run") / "a"
    cfg = PipelineConfig()
    start = time.monotonic()
    result = run_pipeline(manifest_path, cfg, run_dir)
    elapsed = time.monotonic() - start
    return manifest_path, cfg, run_dir, result, elapsed


def test_criterion_09_end_to_end_accuracy(e2e_run):
    _, _, _, result, elapsed = e2e_run
    acc = result.report.composed_accuracy
    report(
        9,
        "default pipeline reaches >=0.90 composed test accuracy on synthetic data in <60s",
        acc >= 0.90 and elapsed < 60.0,
        f"accuracy {acc:.4f}, {elapsed:.1f}s",
    )


def test_criterion_10_determinism(e2e_run, tmp_path):
    manifest_path, cfg, run_dir, _, _ = e2e_run
    rerun_dir = tmp_path / "b"
    run_pipeline(manifest_path, cfg, rerun_dir)
    first = (run_dir / "metrics.json").read_bytes()
    second = (rerun_dir / "metrics.json").read_bytes()
    same = first == second
    report(
        10,
        "rerunning the pipeline reproduces metrics.json byte for byte",
        same,
        f"{len(first)} bytes",
    )
    # spot-check the fitted artifacts too
    for name in ("scaler.json", "pca.json", "codec.json", "centroids.json"):
        assert (run_dir / name).read_bytes() == (rerun_dir / name).read_bytes(), name


# --- criterion 11: NIfTI round trips ---------------------------------------------------


def test_criterion_11_nifti_round_trip(tmp_path):
    rng = np.random.default_rng(1111)
    int_codes = {2: np.uint8, 4: np.int16, 8: np.int32}
    float_codes = {16: np.float32, 64: np.float64}
    ok = True
    detail = []
    for suffix in (".nii", ".nii.gz"):
        for code, dtype in int_codes.items():
            info = np.iinfo(dtype)
            voxels = rng.integers(info.min, info.max, size=(5, 4, 3)).astype(np.float64)
            path = tmp_path / f"int{code}{suffix}"
            write_nifti(path, voxels, datatype_code=code)
            back = read_nifti(path).voxels
            if not np.array_equal(back, voxels):
                ok = False
                detail.append(f"int code {code}{suffix} mismatch")
        for code, dtype in float_codes.items():
            voxels = rng.uniform(-1e4, 1e4, size=(5, 4, 3)).astype(dtype).astype(np.float64)
            path = tmp_path / f"float{code}{suffix}"
            write_nifti(path, voxels, datatype_code=code)
            back = read_nifti(path).voxels
            rel = np.abs(back - voxels) / np.maximum(np.abs(voxels), 1e-30)
            if float(rel.max()) > 1e-6:
                ok = False
                detail.append(f"float code {code}{suffix} rel err {rel.max():.2e}")
    report(
        11,
        "NIfTI volumes round trip exactly (ints) and to 1e-6 (floats), plain and gzipped",
        ok,
        "; ".join(detail) or "5 dtypes x 2 containers",
    )

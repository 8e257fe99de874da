"""Class decomposition: codec bijection, per-class clustering, relabeling."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mridecomp import cluster
from mridecomp.artifacts import read_json, write_json
from mridecomp.config import PipelineConfig
from mridecomp.decomposition import LabelCodec, assign_sublabels, decompose, write_report_csv
from mridecomp.errors import DegenerateInput, EmptyInput, InvalidK, UnknownSublabel
from mridecomp.features import FeatureMatrix, load_precomputed, save_features
from mridecomp.pipeline import run_decompose_stage

from oracles import codec_from_json, parse_labels, parse_subclass_name


def matrix(values, labels, subjects=None):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    return FeatureMatrix(
        values=values,
        labels=tuple(labels),
        subject_ids=tuple(subjects or [f"s{i}" for i in range(n)]),
    )


def three_class_data(rng, per_class=12, spread=0.5):
    """Each class is two well-separated subgroups along its own axis."""
    values, labels = [], []
    for ci, cls in enumerate(["AD", "CN", "MCI"]):
        for g in range(2):
            center = np.zeros(3)
            center[ci] = 20.0 * (g + 1)
            values.append(center + spread * rng.normal(size=(per_class // 2, 3)))
            labels += [cls] * (per_class // 2)
    return matrix(np.vstack(values), labels)


# --- codec -------------------------------------------------------------------


def test_codec_dense_layout_and_names():
    codec = LabelCodec(classes=("AD", "CN", "MCI"), cluster_counts=(2, 2, 2))
    assert codec.n_sublabels == 6
    assert codec.encode("AD", 0) == 0
    assert codec.encode("AD", 1) == 1
    assert codec.encode("CN", 0) == 2
    assert codec.encode("MCI", 1) == 5
    assert codec.subclass_name(0) == "AD_1"
    assert codec.subclass_name(3) == "CN_2"
    assert codec.subclass_name(5) == "MCI_2"


def test_codec_round_trip_all_ids():
    codec = LabelCodec(classes=("A", "B", "C"), cluster_counts=(3, 1, 2))
    for sid in range(codec.n_sublabels):
        cls, cluster = codec.decode(sid)
        assert codec.encode(cls, cluster) == sid
        assert parse_subclass_name(codec, codec.subclass_name(sid)) == sid
        assert codec.decode(sid)[0] == cls


def test_codec_rejects_bad_lookups():
    codec = LabelCodec(classes=("A", "B"), cluster_counts=(2, 1))
    with pytest.raises(UnknownSublabel):
        codec.encode("Z", 0)
    with pytest.raises(UnknownSublabel):
        codec.encode("B", 1)
    with pytest.raises(UnknownSublabel):
        codec.decode(3)
    with pytest.raises(UnknownSublabel):
        codec.decode(-1)
    with pytest.raises(UnknownSublabel):
        parse_subclass_name(codec, "nounderscorename")
    with pytest.raises(UnknownSublabel):
        parse_subclass_name(codec, "A_0")  # clusters are 1-based in names


def test_codec_validation():
    with pytest.raises(InvalidK):
        LabelCodec(classes=("A", "A"), cluster_counts=(1, 1))
    with pytest.raises(InvalidK):
        LabelCodec(classes=("A",), cluster_counts=(0,))
    with pytest.raises(InvalidK):
        LabelCodec(classes=("A", "B"), cluster_counts=(1,))


def test_codec_json_round_trip(tmp_path):
    codec = LabelCodec(classes=("AD", "CN"), cluster_counts=(2, 3))
    path = tmp_path / "codec.json"
    write_json(codec, path)
    assert codec_from_json(path) == codec


# --- decompose ---------------------------------------------------------------


def test_count_conservation(rng):
    X = three_class_data(rng)
    ds = decompose(X, k=2, seed=0)
    labels_arr = np.asarray(X.labels)
    for cls in ds.codec.classes:
        class_total = int((labels_arr == cls).sum())
        sub_total = sum(
            int((ds.sublabels == ds.codec.encode(cls, c)).sum())
            for c in range(dict(zip(ds.codec.classes, ds.codec.cluster_counts))[cls])
        )
        assert sub_total == class_total


def test_sublabels_consistent_with_original_class(rng):
    X = three_class_data(rng)
    ds = decompose(X, k=2, seed=1)
    for label, sub in zip(X.labels, ds.sublabels):
        assert ds.codec.decode(int(sub))[0] == label


def test_separated_subgroups_recovered_exactly(rng):
    X = three_class_data(rng, per_class=16, spread=0.1)
    ds = decompose(X, k=2, seed=3)
    # within each class the first 8 rows and last 8 rows were generated
    # around different centers, so they must land in different clusters
    labels_arr = np.asarray(X.labels)
    for cls in ds.codec.classes:
        subs = ds.sublabels[labels_arr == cls]
        first, second = set(subs[:8].tolist()), set(subs[8:].tolist())
        assert len(first) == 1 and len(second) == 1
        assert first != second


def test_classes_sorted_for_determinism(rng):
    X = three_class_data(rng)
    ds = decompose(X, k=2, seed=0)
    assert ds.codec.classes == ("AD", "CN", "MCI")


def test_deterministic_given_seed(rng):
    X = three_class_data(rng)
    a = decompose(X, k=2, seed=11)
    b = decompose(X, k=2, seed=11)
    np.testing.assert_array_equal(a.sublabels, b.sublabels)
    for cls in a.codec.classes:
        np.testing.assert_array_equal(a.centroids[cls], b.centroids[cls])


def test_class_too_small(rng):
    X = matrix(rng.normal(size=(4, 2)), ["A", "A", "A", "B"])
    with pytest.raises(DegenerateInput, match="^class 'B' has 1 samples, fewer than k=2$"):
        decompose(X, k=2, seed=0)


def test_empty_input_rejected():
    X = matrix(np.empty((0, 2)), [])
    with pytest.raises(EmptyInput):
        decompose(X, k=2)
    with pytest.raises(InvalidK):
        decompose(matrix(np.zeros((2, 1)), ["A", "A"]), k=0)


def two_and_three_groups(rng):
    """Class A: 2 subgroups, class B: 3 subgroups (simplex placement), 12 rows each."""
    values, labels = [], []
    for g in range(2):
        center = np.zeros(4)
        center[g] = 25.0
        values.append(center + 0.5 * rng.normal(size=(12, 4)))
        labels += ["A"] * 12
    for g in range(3):
        center = np.zeros(4)
        center[g + 1] = -25.0
        values.append(center + 0.5 * rng.normal(size=(12, 4)))
        labels += ["B"] * 12
    return matrix(np.vstack(values), labels)


def test_elbow_mode_per_class_counts(rng):
    ds = decompose(two_and_three_groups(rng), elbow_range=(1, 6), seed=5)
    assert ds.codec.cluster_counts == (2, 3)


def test_elbow_mode_clusters_with_the_elbow_fit(rng, monkeypatch):
    """Each class keeps the elbow search's own fit for its k: no k-means run
    beyond the search's n_init restarts per candidate k."""
    X = two_and_three_groups(rng)
    seed, n_init, (k_min, k_max) = 5, 4, (1, 6)
    runs = Counter()
    lockstep = cluster._lockstep

    def counted(rows, k, seeds):
        runs[len(rows)] += len(seeds)
        return lockstep(rows, k, seeds)

    monkeypatch.setattr(cluster, "_lockstep", counted)
    ds = decompose(X, elbow_range=(k_min, k_max), seed=seed, n_init=n_init)
    monkeypatch.undo()

    labels = np.asarray(X.labels)
    assert runs == {24: (k_max - k_min + 1) * n_init, 36: (k_max - k_min + 1) * n_init}
    for class_index, cls in enumerate(ds.codec.classes):
        rows = X.values[labels == cls]
        class_seed = np.random.SeedSequence([seed, class_index])
        elbow = cluster.elbow_select_k(rows, k_min, k_max, seed=class_seed, n_init=n_init)
        fit = elbow.fits[ds.codec.cluster_counts[class_index]]
        assert ds.centroids[cls].tobytes() == fit.centroids.tobytes()
        assert ds.wcss[cls] == fit.wcss
        expected = ds.codec.encode(cls, 0) + fit.assignments
        np.testing.assert_array_equal(ds.sublabels[labels == cls], expected)


def test_elbow_mode_small_class_falls_back(rng, caplog):
    X = matrix(rng.normal(size=(4, 2)), ["A", "A", "A", "A"])
    with caplog.at_level("WARNING"):
        ds = decompose(X, elbow_range=(3, 9), seed=0)
    assert ds.codec.cluster_counts == (1,)
    assert "too few" in caplog.text


def test_assign_sublabels_nearest_in_class(rng):
    X = three_class_data(rng, per_class=16, spread=0.1)
    ds = decompose(X, k=2, seed=7)
    # points at the exact generating centers must map to that center's cluster
    probe_values, probe_labels = [], []
    for ci, cls in enumerate(["AD", "CN", "MCI"]):
        for g in range(2):
            center = np.zeros(3)
            center[ci] = 20.0 * (g + 1)
            probe_values.append(center)
            probe_labels.append(cls)
    probe = matrix(np.asarray(probe_values), probe_labels)
    assigned = assign_sublabels(probe, ds.codec, ds.centroids)
    for label, sub in zip(probe_labels, assigned):
        assert ds.codec.decode(int(sub))[0] == label
    # the two probes of each class land in different clusters
    for ci in range(3):
        assert assigned[2 * ci] != assigned[2 * ci + 1]


def assign_sublabels_per_row(X, codec, centroids):
    """The row-by-row nearest-centroid rule assign_sublabels vectorises."""
    sublabels = np.empty(X.n, dtype=np.int64)
    for i, (row, cls) in enumerate(zip(X.values, X.labels)):
        if cls not in centroids:
            raise UnknownSublabel(f"no centroids for class {cls!r}")
        cents = centroids[cls]
        dists = np.einsum("km,km->k", cents - row, cents - row)
        sublabels[i] = codec.encode(cls, int(np.argmin(dists)))
    return sublabels


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    counts=st.lists(st.integers(1, 4), min_size=1, max_size=4),
    n=st.integers(0, 40),
    dim=st.integers(1, 5),
    grid=st.booleans(),
)
def test_assign_sublabels_matches_per_row_rule(seed, counts, n, dim, grid):
    """Rows of interleaved classes get the sublabel the per-row rule gives them,
    ties between equidistant centroids included (grid draws small integers)."""
    rng = np.random.default_rng(seed)
    classes = tuple(f"C{i}" for i in range(len(counts)))
    codec = LabelCodec(classes=classes, cluster_counts=tuple(counts))

    def draw(*shape):
        return rng.integers(-2, 3, size=shape).astype(float) if grid else rng.normal(size=shape)

    centroids = {cls: draw(k, dim) for cls, k in zip(classes, counts)}
    probe = matrix(draw(n, dim), rng.choice(classes, size=n).tolist())
    np.testing.assert_array_equal(
        assign_sublabels(probe, codec, centroids), assign_sublabels_per_row(probe, codec, centroids)
    )


def test_assign_sublabels_unknown_class(rng):
    X = three_class_data(rng)
    ds = decompose(X, k=2, seed=0)
    probe = matrix(np.zeros((1, 3)), ["XX"])
    with pytest.raises(UnknownSublabel):
        assign_sublabels(probe, ds.codec, ds.centroids)


def test_report_and_csv(tmp_path, rng):
    X = three_class_data(rng)
    ds = decompose(X, k=2, seed=0)
    path = tmp_path / "decomposition_report.csv"
    write_report_csv(ds, path)
    header, *lines = path.read_text().splitlines()
    assert header == "subclass,class,count,class_wcss"
    rows = [line.split(",") for line in lines]
    assert [r[0] for r in rows] == ["AD_1", "AD_2", "CN_1", "CN_2", "MCI_1", "MCI_2"]
    assert [r[1] for r in rows] == ["AD", "AD", "CN", "CN", "MCI", "MCI"]
    assert sum(int(r[2]) for r in rows) == X.n
    assert [float(r[3]) for r in rows] == [ds.wcss[r[1]] for r in rows]


def test_sublabeled_csv_loads_back(tmp_path, rng):
    X = three_class_data(rng)
    ds = decompose(X, k=2, seed=0)
    names = [ds.codec.subclass_name(int(s)) for s in ds.sublabels]
    path = tmp_path / "sub.csv"
    save_features(ds.codec.relabel(X, ds.sublabels), path)
    loaded = load_precomputed(path)
    np.testing.assert_array_equal(loaded.values, X.values)
    assert list(loaded.labels) == names
    assert loaded.subject_ids == X.subject_ids
    np.testing.assert_array_equal(parse_labels(ds.codec, loaded.labels), ds.sublabels)


def test_centroids_json_round_trip(tmp_path, rng):
    X = three_class_data(rng)
    fit_rows = np.ones(X.n, dtype=bool)
    stage = run_decompose_stage(X, fit_rows, PipelineConfig(), tmp_path)
    centroids = stage.decomposed.centroids
    loaded = read_json(tmp_path / "centroids.json")
    assert set(loaded) == set(centroids)
    for cls in loaded:
        np.testing.assert_array_equal(np.asarray(loaded[cls]), centroids[cls])

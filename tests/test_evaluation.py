"""Subject split, confusion matrices, sensitivity/specificity, evaluation."""

import numpy as np
import pytest

from mridecomp.artifacts import read_json, write_json
from mridecomp.classifier import TrainingConfig, forward, train
from mridecomp.decomposition import LabelCodec
from mridecomp.errors import ConfigError, DegenerateInput, ShapeMismatch
from mridecomp.evaluation import (
    EvalReport,
    confusion_matrix,
    evaluate,
    metrics_from_confusion,
    render_metrics_table,
    subject_split,
)

from oracles import aggregate_confusion

CODEC_3x2 = LabelCodec(classes=("AD", "CN", "MCI"), cluster_counts=(2, 2, 2))


def subjects(counts: dict[str, int]) -> dict[str, str]:
    return {f"{cls}{i:03d}": cls for cls, n in counts.items() for i in range(n)}


# --- subject split ---------------------------------------------------------------


def test_split_counts_single_class():
    train_ids, test_ids = subject_split(subjects({"CN": 10}), 0.8, seed=0)
    assert len(train_ids) == 8 and len(test_ids) == 2


def test_split_counts_three_class_cohort():
    labels = subjects({"AD": 44, "CN": 45, "MCI": 45})
    train_ids, test_ids = subject_split(labels, 0.8, seed=0)
    assert len(train_ids) == 107 and len(test_ids) == 27
    # stratified: per-class train counts are floor(0.8 * n + 0.5)
    for cls, expected in [("AD", 35), ("CN", 36), ("MCI", 36)]:
        assert sum(labels[s] == cls for s in train_ids) == expected


def test_split_disjoint_and_complete():
    labels = subjects({"A": 7, "B": 9})
    train_ids, test_ids = subject_split(labels, 0.75, seed=3)
    assert set(train_ids) | set(test_ids) == set(labels)
    assert set(train_ids) & set(test_ids) == set()


def test_split_deterministic_and_seed_sensitive():
    labels = subjects({"A": 20, "B": 20})
    assert subject_split(labels, 0.8, seed=5) == subject_split(labels, 0.8, seed=5)
    assert subject_split(labels, 0.8, seed=5) != subject_split(labels, 0.8, seed=6)


def test_split_repairs_empty_test_side():
    train_ids, test_ids = subject_split(subjects({"A": 2}), 0.9, seed=0)
    assert len(train_ids) == 1 and len(test_ids) == 1


def test_split_repairs_empty_train_side():
    train_ids, test_ids = subject_split(subjects({"A": 2}), 0.05, seed=0)
    assert len(train_ids) == 1 and len(test_ids) == 1


def test_split_validation():
    with pytest.raises(ConfigError):
        subject_split(subjects({"A": 4}), 1.0)
    with pytest.raises(ConfigError):
        subject_split(subjects({"A": 4}), 0.0)
    with pytest.raises(DegenerateInput, match="^need at least 2 subjects to split, got 1$"):
        subject_split({"only": "A"}, 0.8)
    # no class gets a train subject, and the repair gives AD one
    no_train = r"^classes with no train subject at train_frac=0.2: \['CN', 'MCI'\]$"
    with pytest.raises(DegenerateInput, match=no_train):
        subject_split(subjects({"AD": 2, "CN": 2, "MCI": 2}), 0.2, seed=0)


# --- confusion and metrics -------------------------------------------------------


def test_confusion_matrix_hand_example():
    # classes AD=0, CN=1, MCI=2; rows = true label
    y_true = np.array([0, 0, 2, 1])
    y_pred = np.array([0, 2, 2, 1])
    m = confusion_matrix(y_true, y_pred, 3)
    np.testing.assert_array_equal(m, [[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    assert m.dtype == np.int64
    with pytest.raises(ShapeMismatch, match=r"^shape mismatch: \(4,\) vs \(3,\)$"):
        confusion_matrix(y_true, y_pred[:3], 3)


def test_metrics_hand_example():
    m = np.array([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    out = metrics_from_confusion(m, ["AD", "CN", "MCI"])
    assert out["accuracy"] == pytest.approx(0.75)
    assert out["macro_sensitivity"] == pytest.approx(5 / 6)
    assert out["macro_specificity"] == pytest.approx(8 / 9)
    per = out["per_class"]
    assert per["AD"]["support"] == 2
    assert per["AD"]["sensitivity"] == pytest.approx(0.5)
    assert per["AD"]["specificity"] == pytest.approx(1.0)
    assert per["MCI"]["sensitivity"] == pytest.approx(1.0)
    assert per["MCI"]["specificity"] == pytest.approx(2 / 3)


def test_metrics_perfect_predictions():
    m = np.diag([5, 3, 4])
    out = metrics_from_confusion(m, ["A", "B", "C"])
    assert out["accuracy"] == 1.0
    assert out["macro_sensitivity"] == 1.0
    assert out["macro_specificity"] == 1.0


def test_absent_class_excluded_from_macro(caplog):
    # class B never appears in the truth; its sensitivity is undefined
    m = np.array([[3, 0, 0], [0, 0, 0], [1, 0, 2]])
    with caplog.at_level("WARNING"):
        out = metrics_from_confusion(m, ["A", "B", "C"])
    assert out["per_class"]["B"]["support"] == 0
    assert out["per_class"]["B"]["sensitivity"] is None
    assert out["macro_sensitivity"] == pytest.approx((1.0 + 2 / 3) / 2)
    assert "absent" in caplog.text


def test_aggregation_identity_random_matrices(rng):
    for _ in range(20):
        sub = rng.integers(0, 9, size=(6, 6))
        agg = aggregate_confusion(sub, CODEC_3x2)
        # the package's composition map, sublabel id -> class index
        class_index = CODEC_3x2.class_indices()
        expected = np.zeros((3, 3), dtype=np.int64)
        for i in range(6):
            for j in range(6):
                expected[class_index[i], class_index[j]] += sub[i, j]
        np.testing.assert_array_equal(agg, expected)
        assert agg.sum() == sub.sum()


# --- end-to-end evaluation -------------------------------------------------------


def trained_model_and_data(rng, noise=1.0):
    X, y = [], []
    for sid in range(6):
        center = np.zeros(6)
        center[sid] = 10.0
        X.append(center + noise * rng.normal(size=(10, 6)))
        y += [sid] * 10
    X, y = np.vstack(X), np.asarray(y)
    [result] = train(X, y, CODEC_3x2, TrainingConfig(epochs=100, learning_rates=(0.01,)), [0])
    return result.model, X, y


def test_evaluate_argmax_strip_aggregation_exact(rng):
    model, X, y = trained_model_and_data(rng, noise=4.0)
    report = evaluate(model, X, y, mode="argmax-strip")
    np.testing.assert_array_equal(
        report.composed_confusion, aggregate_confusion(report.sub_confusion, CODEC_3x2)
    )
    assert report.sub_confusion.sum() == report.n_samples
    assert report.composed_confusion.sum() == report.n_samples


def test_composed_accuracy_at_least_subclass(rng):
    # holds for argmax-strip: cluster confusions inside a class are forgiven
    for trial in range(5):
        model, X, y = trained_model_and_data(rng, noise=3.0 + trial)
        report = evaluate(model, X, y, mode="argmax-strip")
        assert report.composed_accuracy >= report.sub_metrics["accuracy"] - 1e-12


def test_evaluate_prob_sum_mode(rng):
    model, X, y = trained_model_and_data(rng, noise=2.0)
    report = evaluate(model, X, y, mode="prob-sum")
    assert report.mode == "prob-sum"
    assert report.composed_confusion.sum() == report.n_samples
    assert 0.0 <= report.composed_accuracy <= 1.0


def test_evaluate_separable_data_perfect(rng):
    model, X, y = trained_model_and_data(rng, noise=0.5)
    report = evaluate(model, X, y)
    assert report.composed_accuracy == 1.0
    assert report.composed_metrics["macro_sensitivity"] == 1.0
    assert report.composed_metrics["macro_specificity"] == 1.0


def test_evaluate_rejects_empty_and_bad_mode(rng):
    model, X, y = trained_model_and_data(rng)
    with pytest.raises(DegenerateInput, match="^evaluation set is empty$"):
        evaluate(model, np.empty((0, 6)), np.empty(0, dtype=np.int64))
    with pytest.raises(ConfigError):
        evaluate(model, X, y, mode="majority")


def test_report_to_dict_structure(rng, tmp_path):
    """write_json writes an EvalReport as an object of its fields."""
    model, X, y = trained_model_and_data(rng)
    write_json(evaluate(model, X, y), tmp_path / "metrics.json")
    blob = read_json(tmp_path / "metrics.json")
    assert blob["mode"] == "argmax-strip"
    assert blob["classes"] == ["AD", "CN", "MCI"]
    assert len(blob["composed_confusion"]) == 3
    assert "accuracy" in blob["composed_metrics"]


def composed_report(accuracy, sensitivity, specificity):
    """An EvalReport whose composed metrics are the given macro figures."""
    metrics = {
        "accuracy": accuracy,
        "macro_sensitivity": sensitivity,
        "macro_specificity": specificity,
        "per_class": {},
    }
    empty = np.zeros((0, 0), dtype=np.int64)
    return EvalReport((), (), "argmax-strip", 0, empty, empty, metrics, metrics)


def test_render_metrics_table():
    reports = {
        "lr=0.01": composed_report(0.9537, sensitivity=0.91, specificity=0.97),
        "lr=0.001": composed_report(0.90, sensitivity=0.88, specificity=0.95),
    }
    text = render_metrics_table(reports)
    assert "Accuracy (%)" in text
    assert "Sensitivity (%)" in text
    assert "Specificity (%)" in text
    assert "95.37" in text
    assert "lr=0.001" in text
    assert text.splitlines()[1].split() == ["lr=0.01", "95.37", "97.00", "91.00"]

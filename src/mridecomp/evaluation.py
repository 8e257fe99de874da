"""Subject-level splitting, confusion matrices, and evaluation metrics.

Splits are stratified per class at the subject level (all slices of a
subject land on one side). Metrics are one-vs-rest: per-class sensitivity
TP/(TP+FN) and specificity TN/(TN+FP), macro-averaged over the classes
actually present in the evaluation set.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .classifier import ClassifierModel, compose_predictions, forward
from .errors import ConfigError, EmptyTestSet, TooFewSubjects

logger = logging.getLogger(__name__)


def subject_split(
    subject_labels: dict[str, str], train_frac: float, seed: int = 0
) -> tuple[list[str], list[str]]:
    """Stratified subject-level split; returns (train_ids, test_ids) sorted.

    Per class, floor(train_frac * n + 0.5) subjects go to train (rounding
    toward train). If either side ends up empty overall, one subject is
    moved across from the largest class on the other side.
    """
    if not 0.0 < train_frac < 1.0:
        raise ConfigError(f"train_frac must be in (0, 1), got {train_frac}")
    if len(subject_labels) < 2:
        raise TooFewSubjects(f"need at least 2 subjects to split, got {len(subject_labels)}")

    by_class: dict[str, list[str]] = {}
    for sid, label in subject_labels.items():
        by_class.setdefault(label, []).append(sid)

    rng = np.random.default_rng(seed)
    train: list[str] = []
    test: list[str] = []
    for label in sorted(by_class):
        ids = sorted(by_class[label])
        order = rng.permutation(len(ids))
        n_train = int(math.floor(train_frac * len(ids) + 0.5))
        n_train = min(n_train, len(ids))
        shuffled = [ids[i] for i in order]
        train.extend(shuffled[:n_train])
        test.extend(shuffled[n_train:])

    if not test:
        donor_class = max(sorted(by_class), key=lambda c: sum(s in train for s in by_class[c]))
        moved = sorted(s for s in by_class[donor_class] if s in train)[0]
        train.remove(moved)
        test.append(moved)
    if not train:
        donor_class = max(sorted(by_class), key=lambda c: sum(s in test for s in by_class[c]))
        moved = sorted(s for s in by_class[donor_class] if s in test)[0]
        test.remove(moved)
        train.append(moved)
    return sorted(train), sorted(test)


def confusion_matrix(y_true: np.ndarray, y_pred: np.ndarray, n_labels: int) -> np.ndarray:
    """(n_labels, n_labels) integer matrix; rows true, columns predicted."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ConfigError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    matrix = np.zeros((n_labels, n_labels), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix


def metrics_from_confusion(matrix: np.ndarray, names: list[str]) -> dict:
    """Accuracy plus per-class and macro sensitivity/specificity.

    Classes with no true samples (or no true negatives) are excluded from
    the corresponding macro average with a warning; their per-class entry
    is None.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    total = int(matrix.sum())
    accuracy = float(np.trace(matrix)) / total if total else 0.0

    per_class: dict[str, dict] = {}
    sens_values: list[float] = []
    spec_values: list[float] = []
    for idx, name in enumerate(names):
        tp = int(matrix[idx, idx])
        fn = int(matrix[idx].sum()) - tp
        fp = int(matrix[:, idx].sum()) - tp
        tn = total - tp - fn - fp
        support = tp + fn
        sensitivity: float | None = None
        specificity: float | None = None
        if support > 0:
            sensitivity = tp / (tp + fn)
            sens_values.append(sensitivity)
        else:
            logger.warning("class %s absent from evaluation set; excluded from macro sensitivity", name)
        if tn + fp > 0:
            specificity = tn / (tn + fp)
            spec_values.append(specificity)
        else:
            logger.warning("class %s has no true negatives; excluded from macro specificity", name)
        per_class[name] = {
            "support": support,
            "sensitivity": sensitivity,
            "specificity": specificity,
        }

    return {
        "accuracy": accuracy,
        "macro_sensitivity": sum(sens_values) / len(sens_values) if sens_values else 0.0,
        "macro_specificity": sum(spec_values) / len(spec_values) if spec_values else 0.0,
        "per_class": per_class,
    }


@dataclass(frozen=True)
class EvalReport:
    classes: tuple[str, ...]
    subclass_names: tuple[str, ...]
    mode: str
    n_samples: int
    sub_confusion: np.ndarray
    composed_confusion: np.ndarray
    sub_metrics: dict
    composed_metrics: dict

    @property
    def composed_accuracy(self) -> float:
        return self.composed_metrics["accuracy"]


def evaluate(
    model: ClassifierModel,
    X: np.ndarray,
    sublabels: np.ndarray,
    mode: str = "argmax-strip",
) -> EvalReport:
    """Confusion matrices and metrics over subclasses and composed classes.

    Composed predictions come from compose_predictions; under argmax-strip
    the composed matrix equals the subclass matrix aggregated through the
    codec (an exact integer identity).
    """
    X = np.asarray(X, dtype=np.float64)
    sublabels = np.asarray(sublabels, dtype=np.int64)
    if X.shape[0] == 0:
        raise EmptyTestSet("evaluation set is empty")

    codec = model.codec
    probs = forward(model, X)
    sub_matrix = confusion_matrix(sublabels, np.argmax(probs, axis=1), codec.n_sublabels)
    composed_matrix = confusion_matrix(
        codec.class_indices()[sublabels],
        compose_predictions(codec, probs, mode),
        len(codec.classes),
    )

    subclass_names = tuple(codec.subclass_name(i) for i in range(codec.n_sublabels))
    return EvalReport(
        classes=codec.classes,
        subclass_names=subclass_names,
        mode=mode,
        n_samples=int(X.shape[0]),
        sub_confusion=sub_matrix,
        composed_confusion=composed_matrix,
        sub_metrics=metrics_from_confusion(sub_matrix, list(subclass_names)),
        composed_metrics=metrics_from_confusion(composed_matrix, list(codec.classes)),
    )


def render_metrics_table(reports: dict[str, EvalReport]) -> str:
    """Plain-text table: one row per named report with its composed accuracy
    and macro specificity and sensitivity, in percent."""
    headers = ["", "Accuracy (%)", "Specificity (%)", "Sensitivity (%)"]
    cells = [headers]
    for name, report in reports.items():
        m = report.composed_metrics
        percents = (m["accuracy"], m["macro_specificity"], m["macro_sensitivity"])
        cells.append([name] + [f"{100.0 * v:.2f}" for v in percents])
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for r in cells:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(headers))).rstrip())
    return "\n".join(lines)

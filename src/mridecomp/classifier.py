"""Softmax classifier over the decomposed (subclass) label space.

The model is a softmax head, optionally preceded by one hidden ReLU layer
(hidden_dim > 0). Training minimizes cross-entropy with mini-batch Adam;
shuffling and initialization are seeded so runs are bit-reproducible.
TrainingConfig holds the learning-rate grid and the settings its cells
share, and train trains every cell (one learning rate and one seed) in one
lockstep loop: every numpy call works on all cells' stacked parameters, and
each cell's arithmetic is exactly that of training it alone.
Predictions over subclasses compose back to original classes either by
stripping the cluster index from the argmax subclass (default) or by
summing subclass probabilities per class.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .decomposition import LabelCodec
from .errors import ConfigError, DegenerateInput, ShapeMismatch

COMPOSE_MODES = ("argmax-strip", "prob-sum")


def check_compose_mode(mode: str) -> None:
    """The one check of a compose mode, for the config and compose_predictions."""
    if mode not in COMPOSE_MODES:
        raise ConfigError(f"compose_mode must be one of {COMPOSE_MODES}, got {mode!r}")


@dataclass(frozen=True)
class TrainingConfig:
    """The learning-rate grid plus the settings its cells share: epochs,
    batch size, hidden width (0 = plain softmax head) and the Adam
    constants. It is checked by validate, not when constructed."""

    epochs: int = 200
    batch_size: int = 64
    hidden_dim: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    learning_rates: tuple[float, ...] = (0.01, 0.001)

    def validate(self) -> None:
        rates = list(self.learning_rates)
        if not rates:
            raise ConfigError("training.learning_rates must be non-empty")
        if len(set(rates)) != len(rates):
            # cells are named lr=<value>, so equal rates would share one name
            raise ConfigError(f"training.learning_rates must be distinct, got {rates}")
        if not all(lr > 0 for lr in rates):
            raise ConfigError(f"training.learning_rates must be > 0, got {rates}")
        if self.epochs < 1:
            raise ConfigError(f"training.epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"training.batch_size must be >= 1, got {self.batch_size}")
        if self.hidden_dim < 0:
            raise ConfigError(f"training.hidden_dim must be >= 0, got {self.hidden_dim}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("training.beta1 and training.beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ConfigError(f"training.eps must be > 0, got {self.eps}")


@dataclass
class ClassifierModel:
    input_dim: int
    hidden_dim: int  # 0 = plain softmax head
    output_dim: int
    codec: LabelCodec
    params: dict[str, np.ndarray]

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        i, h, o = self.input_dim, self.hidden_dim, self.output_dim
        if h > 0:
            return {"W1": (i, h), "b1": (h,), "W2": (h, o), "b2": (o,)}
        return {"W": (i, o), "b": (o,)}


@dataclass(frozen=True)
class TrainResult:
    model: ClassifierModel
    epoch_losses: list[float]  # index 0 = loss before any update

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


def init_model(
    input_dim: int,
    codec: LabelCodec,
    hidden_dim: int = 0,
    seed: int = 0,
) -> ClassifierModel:
    """Seeded Gaussian weights (standard deviation 0.01), zero biases."""
    rng = np.random.default_rng(seed)
    output_dim = codec.n_sublabels
    if hidden_dim > 0:
        params = {
            "W1": rng.normal(0.0, 0.01, size=(input_dim, hidden_dim)),
            "b1": np.zeros(hidden_dim),
            "W2": rng.normal(0.0, 0.01, size=(hidden_dim, output_dim)),
            "b2": np.zeros(output_dim),
        }
    else:
        params = {
            "W": rng.normal(0.0, 0.01, size=(input_dim, output_dim)),
            "b": np.zeros(output_dim),
        }
    return ClassifierModel(
        input_dim=input_dim,
        hidden_dim=hidden_dim,
        output_dim=output_dim,
        codec=codec,
        params=params,
    )


def _log_softmax(Z: np.ndarray) -> np.ndarray:
    shifted = Z - np.maximum.reduce(Z, axis=-1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))


def _logits(params: dict[str, np.ndarray], X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Returns (logits, hidden activations or None), for one model or for a
    stack of them (see _backprop)."""
    if "W1" in params:
        H = np.maximum(X @ params["W1"] + params["b1"], 0.0)
        return H @ params["W2"] + params["b2"], H
    return X @ params["W"] + params["b"], None


def forward(model: ClassifierModel, X: np.ndarray) -> np.ndarray:
    """Softmax probabilities for a batch, shape (n, output_dim)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise ShapeMismatch(f"expected (n, {model.input_dim}) inputs, got {X.shape}")
    Z, _ = _logits(model.params, X)
    return np.exp(_log_softmax(Z))


def _losses(params: dict[str, np.ndarray], X: np.ndarray, y: np.ndarray) -> list[float]:
    """Mean cross-entropy of integer sublabels y under each model of a stack
    (see _backprop), X being every row. The gathered log-probabilities are
    copied contiguous, so that each model's mean sums them pairwise, as the
    mean of one model's 1-D gather does."""
    Z, _ = _logits(params, X)
    logp = np.ascontiguousarray(_log_softmax(Z)[:, np.arange(X.shape[0]), y])
    return (-logp.mean(axis=-1)).tolist()


def _backprop(
    params: dict[str, np.ndarray],
    X: np.ndarray,
    onehot: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    """Writes the batch's analytic cross-entropy gradients of a stack of C
    models into grads, arrays shaped like params; dZ = (softmax - onehot) / n.

    X and onehot are (C, n, ·), every weight (C, rows, cols) and every bias
    (C, 1, cols): each cell's slices are one model and its batch."""
    Z, H = _logits(params, X)
    dZ = np.exp(_log_softmax(Z)) - onehot
    dZ /= X.shape[-2]
    if H is not None:
        np.matmul(H.swapaxes(1, 2), dZ, out=grads["W2"])
        np.add.reduce(dZ, axis=1, keepdims=True, out=grads["b2"])
        dH = dZ @ params["W2"].swapaxes(1, 2)
        np.putmask(dH, H <= 0.0, 0.0)
        np.matmul(X.swapaxes(1, 2), dH, out=grads["W1"])
        np.add.reduce(dH, axis=1, keepdims=True, out=grads["b1"])
    else:
        np.matmul(X.swapaxes(1, 2), dZ, out=grads["W"])
        np.add.reduce(dZ, axis=1, keepdims=True, out=grads["b"])


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive pieces of the last axis of a buffer, one view per name,
    shaped as given after the buffer's leading axes."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[..., start : start + size].reshape(flat.shape[:-1] + shape)
        start += size
    return views


def train(
    X: np.ndarray,
    sublabels: np.ndarray,
    codec: LabelCodec,
    cfg: TrainingConfig,
    seeds: Sequence[int],
) -> list[TrainResult]:
    """Mini-batch Adam on cross-entropy over the subclass label space, one
    result per learning rate of cfg, in order; seeds[i] seeds cell i's
    initial weights and shuffles.

    Raises ConfigError if cfg is invalid or there is not one seed per
    learning rate, and DegenerateInput if any codec id has no training
    sample. epoch_losses[0] is a cell's pre-training loss; entry e is its
    full training loss after epoch e.

    Every cell steps in lockstep: the parameters and gradients of all C
    cells live in one (C, P) buffer and both Adam moments in one (2, C, P)
    buffer (each model.params holds views into its row), and each batch is
    gathered per cell from that cell's own seeded permutation. A step is one
    stacked gradient pass and one Adam update of every cell, and each cell's
    arithmetic is what training it alone would do, bit for bit.
    """
    cfg.validate()
    if len(seeds) != len(cfg.learning_rates):
        raise ConfigError(
            f"train needs one seed per learning rate, got {len(seeds)} for "
            f"{len(cfg.learning_rates)}"
        )
    X = np.asarray(X, dtype=np.float64)
    sublabels = np.asarray(sublabels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != sublabels.shape[0]:
        raise ShapeMismatch(
            f"feature matrix has {X.shape[0] if X.ndim == 2 else '?'} rows "
            f"but {sublabels.shape[0]} labels"
        )
    present = set(np.unique(sublabels).tolist())
    for sid in range(codec.n_sublabels):
        if sid not in present:
            raise DegenerateInput(
                f"subclass {codec.subclass_name(sid)} has no training samples"
            )

    models = [init_model(X.shape[1], codec, hidden_dim=cfg.hidden_dim, seed=seed) for seed in seeds]
    shapes = models[0].param_shapes()
    theta = np.stack([np.concatenate([m.params[name].ravel() for name in shapes]) for m in models])
    for row, model in zip(theta, models):
        model.params = _views(row, shapes)
    # the (C, ·) stacks _backprop takes: a bias becomes (C, 1, cols)
    stacked = {name: (1, *shape)[-2:] for name, shape in shapes.items()}
    params = _views(theta, stacked)
    grad = np.zeros_like(theta)
    grads = _views(grad, stacked)
    moments, scratch = np.zeros((2, *theta.shape)), np.zeros((2, *theta.shape))
    update, denom = scratch
    # Adam's (beta1, beta2), (1 - beta1, 1 - beta2) and both bias corrections,
    # shaped to scale the first and second moment at once
    betas = np.array([cfg.beta1, cfg.beta2]).reshape(2, 1, 1)
    gains = np.array([1.0 - cfg.beta1, 1.0 - cfg.beta2]).reshape(2, 1, 1)
    corrections = np.empty((2, 1, 1))
    rates = np.array(cfg.learning_rates)[:, None]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    step_count = 0

    epoch_losses = [[first] for first in _losses(params, X, sublabels)]

    n = X.shape[0]
    onehot = np.eye(codec.n_sublabels)[sublabels]
    for _ in range(cfg.epochs):
        orders = np.stack([rng.permutation(n) for rng in rngs])
        X_epoch, onehot_epoch = X[orders], onehot[orders]
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            _backprop(params, X_epoch[:, batch], onehot_epoch[:, batch], grads)
            step_count += 1
            corrections[:, 0, 0] = (1.0 - cfg.beta1**step_count, 1.0 - cfg.beta2**step_count)
            # m1 = beta1*m1 + (1-beta1)*g and m2 = beta2*m2 + (1-beta2)*(g*g), then
            # theta -= lr*(m1/bc1) / (sqrt(m2/bc2) + eps), one operation at a time;
            # scratch holds the two moment increments, then m1/bc1 and m2/bc2
            moments *= betas
            np.copyto(update, grad)
            np.multiply(grad, grad, out=denom)
            scratch *= gains
            moments += scratch
            np.divide(moments, corrections, out=scratch)
            update *= rates
            np.sqrt(denom, out=denom)
            denom += cfg.eps
            update /= denom
            theta -= update
        for losses, last in zip(epoch_losses, _losses(params, X, sublabels)):
            losses.append(last)

    return [
        TrainResult(model=model, epoch_losses=losses)
        for model, losses in zip(models, epoch_losses)
    ]


def compose_probabilities(codec: LabelCodec, probs: np.ndarray) -> np.ndarray:
    """Per-class totals of an (n, n_sublabels) probability matrix, shape (n, n_classes).

    Subclass columns are added into their class in sublabel-id order, so the
    totals are reproducible bit for bit.
    """
    totals = np.zeros((probs.shape[0], len(codec.classes)))
    for sid, ci in enumerate(codec.class_indices()):
        totals[:, ci] += probs[:, sid]
    return totals


def compose_predictions(
    codec: LabelCodec, probs: np.ndarray, mode: str = "argmax-strip"
) -> np.ndarray:
    """Original-class index (into codec.classes) for each row of a probability matrix.

    argmax-strip: argmax over subclasses, then drop the cluster index.
    prob-sum: argmax over the per-class probability totals.
    Ties break toward the first subclass or class in codec order.
    """
    check_compose_mode(mode)
    if mode == "argmax-strip":
        return codec.class_indices()[np.argmax(probs, axis=1)]
    return np.argmax(compose_probabilities(codec, probs), axis=1)


def model_to_json(model: ClassifierModel, path) -> None:
    # a function of its own, so that the benchmark can time writing checkpoints
    write_json(model, path)


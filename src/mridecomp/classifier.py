"""Softmax classifier over the decomposed (subclass) label space.

The model is a softmax head, optionally preceded by one hidden ReLU layer
(hidden_dim > 0). Training minimizes cross-entropy with mini-batch Adam;
shuffling and initialization are seeded so runs are bit-reproducible.
Predictions over subclasses compose back to original classes either by
stripping the cluster index from the argmax subclass (default) or by
summing subclass probabilities per class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_json, write_json
from .decomposition import LabelCodec
from .errors import ConfigError, DimMismatch, MissingSubclass, ParseError

COMPOSE_MODES = ("argmax-strip", "prob-sum")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 200
    batch_size: int = 64
    hidden_dim: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.hidden_dim < 0:
            raise ConfigError(f"hidden_dim must be >= 0, got {self.hidden_dim}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("Adam betas must lie in [0, 1)")
        if not self.eps > 0:
            raise ConfigError(f"eps must be > 0, got {self.eps}")


@dataclass
class ClassifierModel:
    input_dim: int
    hidden_dim: int  # 0 = plain softmax head
    output_dim: int
    codec: LabelCodec
    params: dict[str, np.ndarray] = field(default_factory=dict)

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        i, h, o = self.input_dim, self.hidden_dim, self.output_dim
        if h > 0:
            return {"W1": (i, h), "b1": (h,), "W2": (h, o), "b2": (o,)}
        return {"W": (i, o), "b": (o,)}

    def param_names(self) -> list[str]:
        return list(self.param_shapes())


@dataclass(frozen=True)
class TrainResult:
    model: ClassifierModel
    epoch_losses: list[float]  # index 0 = loss before any update
    val_losses: list[float] | None

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1]


def init_model(
    input_dim: int,
    codec: LabelCodec,
    hidden_dim: int = 0,
    seed: int = 0,
    scale: float = 0.01,
) -> ClassifierModel:
    """Small seeded Gaussian weights, zero biases."""
    rng = np.random.default_rng(seed)
    output_dim = codec.n_sublabels
    if hidden_dim > 0:
        params = {
            "W1": rng.normal(0.0, scale, size=(input_dim, hidden_dim)),
            "b1": np.zeros(hidden_dim),
            "W2": rng.normal(0.0, scale, size=(hidden_dim, output_dim)),
            "b2": np.zeros(output_dim),
        }
    else:
        params = {
            "W": rng.normal(0.0, scale, size=(input_dim, output_dim)),
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
    shifted = Z - Z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _logits(model: ClassifierModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Returns (logits, hidden activations or None)."""
    if model.hidden_dim > 0:
        H = np.maximum(X @ model.params["W1"] + model.params["b1"], 0.0)
        return H @ model.params["W2"] + model.params["b2"], H
    return X @ model.params["W"] + model.params["b"], None


def forward(model: ClassifierModel, X: np.ndarray) -> np.ndarray:
    """Softmax probabilities for a batch, shape (n, output_dim)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimMismatch(f"expected (n, {model.input_dim}) inputs, got {X.shape}")
    Z, _ = _logits(model, X)
    return np.exp(_log_softmax(Z))


def loss(model: ClassifierModel, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of integer sublabels y under the model."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    Z, _ = _logits(model, X)
    logp = _log_softmax(Z)
    return float(-logp[np.arange(X.shape[0]), y].mean())


def _backprop(
    model: ClassifierModel, X: np.ndarray, onehot: np.ndarray, grads: dict[str, np.ndarray]
) -> None:
    """Writes the batch's analytic cross-entropy gradients into grads, arrays
    shaped like model.params; dZ = (softmax - onehot) / n."""
    Z, H = _logits(model, X)
    dZ = np.exp(_log_softmax(Z)) - onehot
    dZ /= X.shape[0]
    if model.hidden_dim > 0:
        np.matmul(H.T, dZ, out=grads["W2"])
        np.sum(dZ, axis=0, out=grads["b2"])
        dH = dZ @ model.params["W2"].T
        dH[H <= 0.0] = 0.0
        np.matmul(X.T, dH, out=grads["W1"])
        np.sum(dH, axis=0, out=grads["b1"])
    else:
        np.matmul(X.T, dZ, out=grads["W"])
        np.sum(dZ, axis=0, out=grads["b"])


def gradients(model: ClassifierModel, X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic cross-entropy gradients of integer sublabels y under the model."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    grads = {name: np.empty_like(p) for name, p in model.params.items()}
    _backprop(model, X, np.eye(model.output_dim)[y], grads)
    return grads


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive pieces of a flat buffer, one view per name, shaped as given."""
    views, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[start : start + size].reshape(shape)
        start += size
    return views


def train(
    X: np.ndarray,
    sublabels: np.ndarray,
    codec: LabelCodec,
    cfg: TrainConfig,
    X_val: np.ndarray | None = None,
    y_val: np.ndarray | None = None,
) -> TrainResult:
    """Mini-batch Adam on cross-entropy over the subclass label space.

    epoch_losses[0] is the pre-training loss; entry e is the full training
    loss after epoch e. Raises MissingSubclass if any codec id has no
    training sample.

    The parameters, gradients and both moments each live in one flat buffer
    (model.params holds views into the first), so a step is one gradient
    pass and one Adam update of the whole vector.
    """
    X = np.asarray(X, dtype=np.float64)
    sublabels = np.asarray(sublabels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != sublabels.shape[0]:
        raise DimMismatch(
            f"feature matrix has {X.shape[0] if X.ndim == 2 else '?'} rows "
            f"but {sublabels.shape[0]} labels"
        )
    present = set(np.unique(sublabels).tolist())
    for sid in range(codec.n_sublabels):
        if sid not in present:
            raise MissingSubclass(
                f"subclass {codec.subclass_name(sid)} has no training samples"
            )

    model = init_model(X.shape[1], codec, hidden_dim=cfg.hidden_dim, seed=cfg.seed)
    shapes = model.param_shapes()
    theta = np.concatenate([model.params[name].ravel() for name in shapes])
    model.params = _views(theta, shapes)
    grad, m1, m2, step, denom = (np.zeros_like(theta) for _ in range(5))
    grads = _views(grad, shapes)
    rng = np.random.default_rng(cfg.seed)
    step_count = 0

    epoch_losses = [loss(model, X, sublabels)]
    val_losses = None
    if X_val is not None and y_val is not None and len(y_val) > 0:
        val_losses = [loss(model, X_val, y_val)]

    n = X.shape[0]
    onehot = np.eye(codec.n_sublabels)[sublabels]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        X_epoch, onehot_epoch = X[order], onehot[order]
        for start in range(0, n, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            _backprop(model, X_epoch[batch], onehot_epoch[batch], grads)
            step_count += 1
            bc1 = 1.0 - cfg.beta1**step_count
            bc2 = 1.0 - cfg.beta2**step_count
            # m1 = beta1*m1 + (1-beta1)*g and m2 = beta2*m2 + (1-beta2)*(g*g), then
            # theta -= lr*(m1/bc1) / (sqrt(m2/bc2) + eps), one operation at a time
            m1 *= cfg.beta1
            np.multiply(grad, 1.0 - cfg.beta1, out=step)
            m1 += step
            np.multiply(grad, grad, out=step)
            step *= 1.0 - cfg.beta2
            m2 *= cfg.beta2
            m2 += step
            np.divide(m1, bc1, out=step)
            step *= cfg.learning_rate
            np.divide(m2, bc2, out=denom)
            np.sqrt(denom, out=denom)
            denom += cfg.eps
            step /= denom
            theta -= step
        epoch_losses.append(loss(model, X, sublabels))
        if val_losses is not None:
            val_losses.append(loss(model, X_val, y_val))

    return TrainResult(model=model, epoch_losses=epoch_losses, val_losses=val_losses)


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
    if mode not in COMPOSE_MODES:
        raise ConfigError(f"unknown compose mode {mode!r}; expected one of {COMPOSE_MODES}")
    if mode == "argmax-strip":
        return codec.class_indices()[np.argmax(probs, axis=1)]
    return np.argmax(compose_probabilities(codec, probs), axis=1)


def model_to_json(model: ClassifierModel, path) -> None:
    write_json(
        {
            "input_dim": model.input_dim,
            "hidden_dim": model.hidden_dim,
            "output_dim": model.output_dim,
            "codec": model.codec.to_dict(),
            "params": {k: v.tolist() for k, v in model.params.items()},
        },
        path,
    )


def model_from_json(path) -> ClassifierModel:
    """Load a model_to_json file. Undecodable JSON or a missing or mistyped key
    raises ParseError; parameters that do not fit the declared dims raise
    DimMismatch."""
    payload = read_json(path)
    try:
        model = ClassifierModel(
            input_dim=int(payload["input_dim"]),
            hidden_dim=int(payload["hidden_dim"]),
            output_dim=int(payload["output_dim"]),
            codec=LabelCodec.from_dict(payload["codec"]),
            params={k: np.asarray(v, dtype=np.float64) for k, v in payload["params"].items()},
        )
    except KeyError as exc:
        raise ParseError(f"{path}: model file lacks key {exc}") from None
    except (TypeError, ValueError, AttributeError, ParseError) as exc:
        raise ParseError(f"{path}: malformed model file: {exc}") from None
    shapes = {name: p.shape for name, p in model.params.items()}
    if shapes != model.param_shapes() or model.output_dim != model.codec.n_sublabels:
        raise DimMismatch(
            f"{path}: expected params {model.param_shapes()} for {model.codec.n_sublabels} "
            f"subclasses, got {shapes} with output_dim {model.output_dim}"
        )
    return model

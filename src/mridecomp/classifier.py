"""Softmax classifier over the decomposed (subclass) label space.

The model is a softmax head, optionally preceded by one hidden ReLU layer
(hidden_dim > 0). Training minimizes cross-entropy with mini-batch Adam;
shuffling and initialization are seeded so runs are bit-reproducible.
Predictions over subclasses compose back to original classes either by
stripping the cluster index from the argmax subclass (default) or by
summing subclass probabilities per class.
"""

from __future__ import annotations

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


def gradients(model: ClassifierModel, X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
    """Analytic cross-entropy gradients; dZ = (softmax - onehot) / n."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    Z, H = _logits(model, X)
    P = np.exp(_log_softmax(Z))
    dZ = P.copy()
    dZ[np.arange(n), y] -= 1.0
    dZ /= n
    if model.hidden_dim > 0:
        grads = {
            "W2": H.T @ dZ,
            "b2": dZ.sum(axis=0),
        }
        dH = dZ @ model.params["W2"].T
        dH[H <= 0.0] = 0.0
        grads["W1"] = X.T @ dH
        grads["b1"] = dH.sum(axis=0)
        return grads
    return {"W": X.T @ dZ, "b": dZ.sum(axis=0)}


def gradient_check(
    model: ClassifierModel, X: np.ndarray, y: np.ndarray, step: float = 1e-5
) -> float:
    """Max relative error of analytic gradients vs central finite differences."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise DimMismatch("gradient check needs a non-empty batch")
    analytic = gradients(model, X, y)
    worst = 0.0
    for name in model.param_names():
        param = model.params[name]
        flat = param.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            plus = loss(model, X, y)
            flat[idx] = orig - step
            minus = loss(model, X, y)
            flat[idx] = orig
            numeric = (plus - minus) / (2.0 * step)
            ga = float(analytic[name].ravel()[idx])
            rel = abs(ga - numeric) / max(1e-6, abs(ga), abs(numeric))
            worst = max(worst, rel)
    return worst


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
    rng = np.random.default_rng(cfg.seed)
    m1 = {k: np.zeros_like(v) for k, v in model.params.items()}
    m2 = {k: np.zeros_like(v) for k, v in model.params.items()}
    step_count = 0

    epoch_losses = [loss(model, X, sublabels)]
    val_losses = None
    if X_val is not None and y_val is not None and len(y_val) > 0:
        val_losses = [loss(model, X_val, y_val)]

    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads = gradients(model, X[batch], sublabels[batch])
            step_count += 1
            bc1 = 1.0 - cfg.beta1**step_count
            bc2 = 1.0 - cfg.beta2**step_count
            for name, g in grads.items():
                m1[name] = cfg.beta1 * m1[name] + (1.0 - cfg.beta1) * g
                m2[name] = cfg.beta2 * m2[name] + (1.0 - cfg.beta2) * (g * g)
                m_hat = m1[name] / bc1
                v_hat = m2[name] / bc2
                model.params[name] -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
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

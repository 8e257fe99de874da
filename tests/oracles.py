"""Reference implementations the tests compare the package against.

train_reference, resize_reference, onnx_features_reference and
quantize_reference are the straightforward forms of classifier.train (one
gradient dict and one Adam update per parameter per step, a fancy-indexed
batch per step), of features.bilinear_resize (one 2-D grid, promoted to
float64 whole), of OnnxBackend.extract (one slice at a time) and of
nifti.quantize (the slice promoted to float64 whole, clamped after the
integer cast). The package's versions must give the same bytes.

gradient_check compares analytic gradients with central finite differences.
gradients runs the package's one gradient formula (classifier._backprop) on
a whole batch. pca_inverse undoes a PCA projection, and aggregate_confusion
sums a subclass confusion matrix into classes cell by cell.

glcm_brute and entropy_brute count co-occurring pairs and score them by
nested loops, brute_force_wcss finds the k-means optimum by enumerating
every assignment, and same_bytes compares two arrays bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from mridecomp import minionnx
from mridecomp.classifier import TrainResult, _backprop, init_model, loss
from mridecomp.errors import DimMismatch, InvalidLevels, MissingSubclass
from mridecomp.nifti import QuantizedSlice


def gradients(model, X, y) -> dict[str, np.ndarray]:
    """The package's analytic cross-entropy gradients of integer sublabels y."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    grads = {name: np.empty_like(p) for name, p in model.params.items()}
    _backprop(model, X, np.eye(model.output_dim)[y], grads)
    return grads


def pca_inverse(values, model) -> np.ndarray:
    """Back-project reduced rows into the original feature space."""
    return np.asarray(values) @ model.components + model.mean


def aggregate_confusion(sub_matrix, codec) -> np.ndarray:
    """Sum subclass confusion cells into original-class cells."""
    n_classes = len(codec.classes)
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    for i in range(codec.n_sublabels):
        ci = codec.classes.index(codec.decode(i)[0])
        for j in range(codec.n_sublabels):
            cj = codec.classes.index(codec.decode(j)[0])
            out[ci, cj] += sub_matrix[i, j]
    return out


def gradients_reference(model, X, y) -> dict[str, np.ndarray]:
    """Analytic cross-entropy gradients; dZ = (softmax - onehot) / n."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    if model.hidden_dim > 0:
        H = np.maximum(X @ model.params["W1"] + model.params["b1"], 0.0)
        Z = H @ model.params["W2"] + model.params["b2"]
    else:
        H = None
        Z = X @ model.params["W"] + model.params["b"]
    shifted = Z - Z.max(axis=1, keepdims=True)
    P = np.exp(shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)))
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


def train_reference(X, sublabels, codec, cfg) -> TrainResult:
    """Mini-batch Adam, one gradient dict and one update per parameter per step."""
    X = np.asarray(X, dtype=np.float64)
    sublabels = np.asarray(sublabels, dtype=np.int64)
    present = set(np.unique(sublabels).tolist())
    for sid in range(codec.n_sublabels):
        if sid not in present:
            raise MissingSubclass(f"subclass {codec.subclass_name(sid)} has no training samples")

    model = init_model(X.shape[1], codec, hidden_dim=cfg.hidden_dim, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    m1 = {k: np.zeros_like(v) for k, v in model.params.items()}
    m2 = {k: np.zeros_like(v) for k, v in model.params.items()}
    step_count = 0

    epoch_losses = [loss(model, X, sublabels)]

    n = X.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads = gradients_reference(model, X[batch], sublabels[batch])
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

    return TrainResult(model=model, epoch_losses=epoch_losses)


def resize_reference(pixels, out_rows: int, out_cols: int) -> np.ndarray:
    """Bilinear resample of one 2-D grid, half-pixel centers, v0 + t*(v1-v0)."""
    src = np.asarray(pixels, dtype=np.float64)
    in_rows, in_cols = src.shape
    if (in_rows, in_cols) == (out_rows, out_cols):
        return src.copy()

    def axis_coords(n_out, n_in):
        coords = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        coords = np.clip(coords, 0.0, n_in - 1.0)
        lo = np.floor(coords).astype(np.int64)
        lo = np.minimum(lo, n_in - 2) if n_in > 1 else np.zeros_like(lo)
        frac = coords - lo
        return lo, frac

    r0, fr = axis_coords(out_rows, in_rows)
    c0, fc = axis_coords(out_cols, in_cols)
    r1 = np.minimum(r0 + 1, in_rows - 1)
    c1 = np.minimum(c0 + 1, in_cols - 1)

    top = src[np.ix_(r0, c0)]
    top = top + fc[None, :] * (src[np.ix_(r0, c1)] - top)
    bottom = src[np.ix_(r1, c0)]
    bottom = bottom + fc[None, :] * (src[np.ix_(r1, c1)] - bottom)
    return top + fr[:, None] * (bottom - top)


def onnx_features_reference(backend, pixels) -> np.ndarray:
    """OnnxBackend's feature vector for one 2-D slice, preprocessed on its own."""
    rows, cols = backend.input_shape[-2], backend.input_shape[-1]
    image = resize_reference(pixels, rows, cols)
    if len(backend.input_shape) == 2:
        tensor = (image - backend.mean) / backend.std
    else:
        channels = backend.input_shape[-3]
        tensor = np.broadcast_to(image, (channels, rows, cols)).copy()
        mean = backend.mean if backend.mean.ndim == 0 else backend.mean.reshape(-1, 1, 1)
        std = backend.std if backend.std.ndim == 0 else backend.std.reshape(-1, 1, 1)
        tensor = (tensor - mean) / std
        if len(backend.input_shape) == 4:
            tensor = tensor[None]
    return np.asarray(minionnx.run_model(backend.model, tensor), dtype=np.float64).reshape(-1)


def quantize_reference(s, levels: int) -> QuantizedSlice:
    """floor((p - min) / (max - min) * levels) clamped to levels-1, in float64
    (on halved values when max - min overflows)."""
    if levels < 2:
        raise InvalidLevels(f"levels must be >= 2, got {levels}")
    pixels = np.asarray(s.pixels, dtype=np.float64)
    lo = pixels.min()
    hi = pixels.max()
    if np.isinf(float(hi) - float(lo)):  # max - min overflows float64: halve everything
        pixels, lo, hi = pixels / 2, lo / 2, hi / 2
    if hi == lo:
        indices = np.zeros(pixels.shape, dtype=np.int64)
    else:
        scaled = pixels - lo
        scaled /= hi - lo
        scaled *= levels
        indices = scaled.astype(np.int64)  # scaled >= 0, so truncation is floor
        np.minimum(indices, levels - 1, out=indices)
    indices.setflags(write=False)
    return QuantizedSlice(levels=levels, indices=indices)


def gradient_check(model, X: np.ndarray, y: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central finite differences."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise DimMismatch("gradient check needs a non-empty batch")
    analytic = gradients(model, X, y)
    worst = 0.0
    for name in model.param_shapes():
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


def same_bytes(a, b) -> bool:
    """Whether a and b have the same dtype, shape and bytes."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def glcm_brute(indices, levels: int, offset, symmetric: bool) -> np.ndarray:
    """Co-occurrence counts by nested loops over every in-bounds pixel pair."""
    indices = np.asarray(indices)
    rows, cols = indices.shape
    dr, dc = offset
    counts = np.zeros((levels, levels), dtype=np.float64)
    for r in range(rows):
        for c in range(cols):
            r2, c2 = r + dr, c + dc
            if 0 <= r2 < rows and 0 <= c2 < cols:
                counts[indices[r, c], indices[r2, c2]] += 1.0
    if symmetric:
        counts = counts + counts.T
    return counts


def entropy_brute(counts) -> float:
    """Shannon entropy in bits of counts over their sum; 0 for no counts."""
    total = float(np.sum(counts))
    if total == 0:
        return 0.0
    return -sum(v / total * math.log2(v / total) for v in np.ravel(counts) if v > 0)


def brute_force_wcss(X, k: int) -> float:
    """Exact k-means optimum: the minimum over every assignment of rows to k
    labels (empty clusters allowed)."""
    best = math.inf
    for assignment in itertools.product(range(k), repeat=X.shape[0]):
        labels = np.asarray(assignment)
        total = 0.0
        for c in range(k):
            members = X[labels == c]
            if len(members):
                total += ((members - members.mean(axis=0)) ** 2).sum()
        best = min(best, total)
    return best

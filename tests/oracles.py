"""Reference implementations the tests compare the package against.

train_reference, resize_reference, onnx_features_reference,
quantize_reference and glcm_reference are the straightforward forms of
classifier.train (one gradient dict and one Adam update per parameter per
step, a fancy-indexed batch per step), of features.bilinear_resize (one 2-D
grid, promoted to float64 whole), of OnnxBackend.extract (one slice at a
time), of entropy.quantize_block (one slice promoted to float64 whole,
clamped after the integer cast) and of entropy.glcm_block (one slice's pairs
counted on their own); slice_entropy_reference chains the last two and
glcm_entropy, one 1-D sum per slice, into the score entropy.rank_slices
gives each slice of a volume, and top_k_reference is entropy.select_top_k
as a sort of slice indices by descending score, then index.
kmeans_reference is one restart of cluster.kmeans_restarts on its own, with
a boolean mask and a mean per cluster and per iteration, distances from
sq_dists_reference, seeded by init_plus_plus_reference, and
kmeans_restarts_reference runs it once per restart. The package's versions
must give the same bytes.

loss is one model's mean cross-entropy over every row, from its own 1-D
gather; train's stacked epoch losses must equal it bit for bit.
gradient_check compares analytic gradients with central finite differences.
gradients runs the package's one gradient formula (classifier._backprop) on
a whole batch. pca_inverse undoes a PCA projection, and aggregate_confusion
sums a subclass confusion matrix into classes cell by cell.

quantize and glcm run one slice through entropy.quantize_block and
entropy.glcm_block, and slice_entropy is the score rank_slices gives a
one-slice volume; the per-slice helpers take a slice as a 2-D pixel array.
glcm_brute and entropy_brute count co-occurring pairs and score them by
nested loops, brute_force_wcss finds the k-means optimum by enumerating
every assignment, and same_bytes compares two arrays bit for bit.

model_from_json and codec_from_json read a models/cell-*.json and a
codec.json back; parse_subclass_name and parse_labels invert
LabelCodec.subclass_name, so tests can check that names round-trip.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from dataclasses import dataclass

from mridecomp import cluster, minionnx
from mridecomp.artifacts import read_json_as
from mridecomp.classifier import (
    ClassifierModel,
    TrainResult,
    _backprop,
    _log_softmax,
    _logits,
    init_model,
)
from mridecomp.cluster import KMeansResult
from mridecomp.decomposition import LabelCodec
from mridecomp.entropy import SliceSelectionConfig, glcm_block, quantize_block, rank_slices
from mridecomp.errors import ConfigError, DegenerateInput, EmptyGlcm, ShapeMismatch, UnknownSublabel
from mridecomp.nifti import Volume


def loss(model, X, y) -> float:
    """Mean cross-entropy of integer sublabels y under one model."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    Z, _ = _logits(model.params, X)
    logp = _log_softmax(Z)
    return float(-logp[np.arange(X.shape[0]), y].mean())


def gradients(model, X, y) -> dict[str, np.ndarray]:
    """The package's analytic cross-entropy gradients of integer sublabels y,
    from classifier._backprop on a stack of one model."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    params = {name: p.reshape(1, -1, p.shape[-1]) for name, p in model.params.items()}
    grads = {name: np.empty_like(p) for name, p in params.items()}
    _backprop(params, X[None], np.eye(model.output_dim)[y][None], grads)
    return {name: g.reshape(model.params[name].shape) for name, g in grads.items()}


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


def train_reference(X, sublabels, codec, cfg, learning_rate, seed) -> TrainResult:
    """One cell of classifier.train, the one with learning_rate and seed:
    mini-batch Adam, one gradient dict and one update per parameter per step."""
    X = np.asarray(X, dtype=np.float64)
    sublabels = np.asarray(sublabels, dtype=np.int64)
    present = set(np.unique(sublabels).tolist())
    for sid in range(codec.n_sublabels):
        if sid not in present:
            raise DegenerateInput(f"subclass {codec.subclass_name(sid)} has no training samples")

    model = init_model(X.shape[1], codec, hidden_dim=cfg.hidden_dim, seed=seed)
    rng = np.random.default_rng(seed)
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
                model.params[name] -= learning_rate * m_hat / (np.sqrt(v_hat) + cfg.eps)
        epoch_losses.append(loss(model, X, sublabels))

    return TrainResult(model=model, epoch_losses=epoch_losses)


def _masked_means(X, assignments, centroids) -> np.ndarray:
    means = centroids.copy()
    for j in range(len(centroids)):
        mask = assignments == j
        if mask.any():
            means[j] = X[mask].mean(axis=0)
    return means


def sq_dists_reference(X, centroids) -> np.ndarray:
    """(n, k) squared distances from one (n, k, m) broadcast of differences."""
    diff = X[:, None, :] - centroids[None, :, :]
    return np.einsum("nkm,nkm->nk", diff, diff)


def init_plus_plus_reference(X, k: int, rng) -> np.ndarray:
    """k-means++ seeding of one restart: the first centroid uniform, each
    next one drawn with probability proportional to the squared distance to
    the closest chosen centroid (uniform once every distance is zero)."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]), dtype=np.float64)
    centroids[0] = X[rng.integers(n)]
    closest = np.einsum("nm,nm->n", X - centroids[0], X - centroids[0])
    for j in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            centroids[j] = X[rng.integers(n)]
            continue
        centroids[j] = X[rng.choice(n, p=closest / total)]
        closest = np.minimum(closest, np.einsum("nm,nm->n", X - centroids[j], X - centroids[j]))
    return centroids


def kmeans_reference(X, k: int, seed) -> KMeansResult:
    """One restart of Lloyd's iterations from k-means++ seeding: each
    cluster's members found by a mask, an empty cluster seizes the point
    farthest from its centroid, then the means are taken again. It reads
    cluster.MAX_ITER when called, so a test can patch it."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    centroids = init_plus_plus_reference(X, k, np.random.default_rng(seed))
    assignments = np.full(n, -1, dtype=np.int64)
    converged = False
    for n_iter in range(1, cluster.MAX_ITER + 1):
        new_assign = sq_dists_reference(X, centroids).argmin(axis=1)
        new_centroids = _masked_means(X, new_assign, centroids)
        empties = [j for j in range(k) if not (new_assign == j).any()]
        if empties:
            for j in empties:
                dists = np.einsum(
                    "nm,nm->n", X - new_centroids[new_assign], X - new_centroids[new_assign]
                )
                donor = int(np.argmax(dists))
                new_assign[donor] = j
                new_centroids[j] = X[donor]
            new_centroids = _masked_means(X, new_assign, new_centroids)
        shift = float(np.max(np.abs(new_centroids - centroids)))
        unchanged = bool(np.array_equal(new_assign, assignments))
        centroids, assignments = new_centroids, new_assign
        if unchanged or shift < cluster.TOL:
            converged = True
            break
    wcss = float(sq_dists_reference(X, centroids)[np.arange(n), assignments].sum())
    return KMeansResult(centroids, assignments, wcss, n_iter, converged)


def kmeans_restarts_reference(X, k: int, seed=0, n_init: int = 10) -> KMeansResult:
    """cluster.kmeans_restarts as n_init kmeans_reference fits, one after
    another: the first fit with the smallest wcss."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    best = None
    for child in seed.spawn(n_init):
        run = kmeans_reference(X, k, child)
        if best is None or run.wcss < best.wcss:
            best = run
    return best


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


@dataclass(frozen=True)
class QuantizedSlice:
    """Slice discretized to integer grey levels in [0, levels)."""

    levels: int
    indices: np.ndarray


@dataclass(frozen=True)
class GlcmMatrix:
    levels: int
    probabilities: np.ndarray


def quantize(pixels, levels: int) -> QuantizedSlice:
    """One slice through entropy.quantize_block, promoted to float64 in its own
    memory layout, so the indices keep that layout (Fortran order for a slice
    of a volume)."""
    block = np.array(pixels, dtype=np.float64)[:, :, None]
    lo, hi = block.min(axis=(0, 1)), block.max(axis=(0, 1))
    return QuantizedSlice(levels=levels, indices=quantize_block(block, levels, lo, hi)[:, :, 0])


def glcm(q: QuantizedSlice, offset=(0, 1), symmetric: bool = True) -> GlcmMatrix:
    """entropy.glcm_block of one quantized slice."""
    probabilities = glcm_block(q.indices[:, :, None], q.levels, offset, symmetric)[0]
    return GlcmMatrix(levels=q.levels, probabilities=probabilities)


def glcm_entropy(g: GlcmMatrix) -> float:
    """Shannon entropy in bits of one normalized co-occurrence matrix,
    -sum P log2 P over its non-zero cells in one 1-D sum."""
    nz = g.probabilities[g.probabilities > 0]
    return float(-(nz * np.log2(nz)).sum())


def slice_entropy(pixels, cfg=SliceSelectionConfig()) -> float:
    """The score entropy.rank_slices gives one slice as a one-slice volume."""
    voxels = np.asarray(pixels)[:, :, None]
    return float(rank_slices(Volume("s", voxels.shape, voxels, datatype_code=0), cfg)[0])


def top_k_reference(entropies, k: int) -> list[int]:
    """The indices of the k first slices sorted by (-entropy, index), in
    ascending order."""
    ranked = sorted(range(len(entropies)), key=lambda i: (-entropies[i], i))
    return sorted(ranked[:k])


def quantize_reference(pixels, levels: int) -> QuantizedSlice:
    """floor((p - min) / (max - min) * levels) clamped to levels-1, in float64
    (on halved values when max - min overflows)."""
    if levels < 2:
        raise ConfigError(f"levels must be >= 2, got {levels}")
    pixels = np.asarray(pixels, dtype=np.float64)
    lo = pixels.min()
    hi = pixels.max()
    if np.isinf(float(hi) - float(lo)):  # max - min overflows float64: halve everything
        pixels, lo, hi = pixels / 2, lo / 2, hi / 2
    scaled = pixels - lo
    if hi != lo:  # a constant slice stays at level 0
        scaled /= hi - lo
        scaled *= levels
    indices = scaled.astype(np.int64)  # scaled >= 0, so truncation is floor
    np.minimum(indices, levels - 1, out=indices)
    indices.setflags(write=False)
    return QuantizedSlice(levels=levels, indices=indices)


def glcm_reference(q: QuantizedSlice, offset=(0, 1), symmetric: bool = True) -> GlcmMatrix:
    """One slice's co-occurrence probabilities from one bincount of its pair
    codes, as entropy.glcm counted them before slices were scored in groups."""
    dr, dc = offset
    if (dr, dc) == (0, 0):
        raise ConfigError("co-occurrence offset must not be (0, 0)")
    idx = q.indices
    nrows, ncols = idx.shape
    r0, r1 = max(0, -dr), nrows - max(0, dr)
    c0, c1 = max(0, -dc), ncols - max(0, dc)
    if r0 >= r1 or c0 >= c1:
        raise EmptyGlcm(f"no pixel pair fits offset {offset} in a {idx.shape} slice")
    levels = q.levels
    codes = idx[r0:r1, c0:c1] * levels
    codes += idx[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    counts = np.bincount(codes.ravel(order="K"), minlength=levels * levels)
    matrix = counts.reshape(levels, levels).astype(np.float64)
    if symmetric:
        matrix = matrix + matrix.T
    matrix /= codes.size * (2 if symmetric else 1)
    return GlcmMatrix(levels=levels, probabilities=matrix)


def slice_entropy_reference(pixels, cfg) -> float:
    """quantize_reference -> glcm_reference -> glcm_entropy for one slice on
    its own; 0.0 when no pixel pair fits cfg.offset."""
    q = quantize_reference(pixels, cfg.levels)
    try:
        g = glcm_reference(q, cfg.offset, cfg.symmetric)
    except EmptyGlcm:
        return 0.0
    return glcm_entropy(g)


def gradient_check(model, X: np.ndarray, y: np.ndarray, step: float = 1e-5) -> float:
    """Max relative error of analytic gradients vs central finite differences."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.shape[0] == 0:
        raise DegenerateInput("gradient check needs a non-empty batch")
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


def model_from_json(path) -> ClassifierModel:
    """A model_to_json file read back. Undecodable JSON or a missing, unknown
    or mistyped key raises ParseError naming the file; parameters that do not
    fit the declared dims raise ShapeMismatch."""
    model = read_json_as(ClassifierModel, path, "model")
    shapes = {name: p.shape for name, p in model.params.items()}
    if shapes != model.param_shapes() or model.output_dim != model.codec.n_sublabels:
        raise ShapeMismatch(
            f"{path}: expected params {model.param_shapes()} for {model.codec.n_sublabels} "
            f"subclasses, got {shapes} with output_dim {model.output_dim}"
        )
    return model


def codec_from_json(path) -> LabelCodec:
    """The codec.json file at path; a bad file raises ParseError naming it."""
    return read_json_as(LabelCodec, path, "codec")


def parse_subclass_name(codec: LabelCodec, name: str) -> int:
    """The sublabel id codec names name ("AD_2"); UnknownSublabel otherwise."""
    cls, _, suffix = name.rpartition("_")
    if not cls or not suffix.isdigit():
        raise UnknownSublabel(f"malformed subclass name {name!r}")
    return codec.encode(cls, int(suffix) - 1)


def parse_labels(codec: LabelCodec, names) -> np.ndarray:
    """Sublabel ids of subclass names, e.g. the labels of a sublabeled CSV."""
    return np.asarray([parse_subclass_name(codec, name) for name in names], dtype=np.int64)

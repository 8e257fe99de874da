"""Slice-to-vector feature backends and the feature CSV interchange.

Every backend is a deterministic map from a stack of 2-D slices to one
fixed-length vector per slice: the raw-pixel baseline (bilinear resample +
flatten) or an external ONNX model with a JSON sidecar describing
preprocessing. Features computed elsewhere enter through the CSV
interchange instead (load_precomputed).

Feature CSV schema: header ``subject_id,label,f0..f{m-1}``, one row per
slice. Floats are written with shortest round-trip repr so export followed
by import is bit-identical.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import minionnx
from .artifacts import open_input, read_json
from .errors import ConfigError, ModelLoadError, ParseError, ShapeMismatch

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FeatureMatrix:
    """n feature rows with aligned class labels and subject identities."""

    values: np.ndarray
    labels: tuple[str, ...]
    subject_ids: tuple[str, ...]

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        n = self.values.shape[0]
        if len(self.labels) != n or len(self.subject_ids) != n:
            raise ValueError(
                f"row count mismatch: {n} rows, {len(self.labels)} labels, "
                f"{len(self.subject_ids)} subject ids"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("feature values must be finite")
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def rows(self, index: np.ndarray) -> "FeatureMatrix":
        """Row subset (boolean mask or integer index array), order preserved."""
        idx = np.asarray(index)
        if idx.dtype == bool:
            idx = np.flatnonzero(idx)
        return FeatureMatrix(
            values=self.values[idx].copy(),
            labels=tuple(self.labels[i] for i in idx),
            subject_ids=tuple(self.subject_ids[i] for i in idx),
        )


def bilinear_resize(pixels: np.ndarray, out_rows: int, out_cols: int) -> np.ndarray:
    """Resample the last two axes of (..., rows, cols) with bilinear
    interpolation, half-pixel centers; a 2-D grid is the case with no
    leading axes.

    The result is a C-ordered float64 array (its layout decides how later
    matrix products round); same-size input is returned as a copy and
    constants are preserved exactly (interpolation uses the v0 + t*(v1-v0)
    form). Only the four gathered corner grids are promoted to float64, never
    the whole input.
    """
    src = np.asarray(pixels)
    in_rows, in_cols = src.shape[-2:]
    if (in_rows, in_cols) == (out_rows, out_cols):
        return src.astype(np.float64, order="C")

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

    # np.take keeps the leading axes outermost, so every grid stays C-ordered
    rows0, rows1 = np.take(src, r0, axis=-2), np.take(src, r1, axis=-2)

    def corner(rows, c):
        return np.take(rows, c, axis=-1).astype(np.float64)

    top = corner(rows0, c0)
    top = top + fc * (corner(rows0, c1) - top)
    bottom = corner(rows1, c0)
    bottom = bottom + fc * (corner(rows1, c1) - bottom)
    return top + fr[:, None] * (bottom - top)


def _as_stack(stack) -> np.ndarray:
    stack = np.asarray(stack)
    if stack.ndim != 3:
        raise ShapeMismatch(f"expected a slice stack (n, rows, cols), got shape {stack.shape}")
    return stack


class FeatureBackend:
    """Deterministic contract: a stack of n same-shape slices (n, rows, cols)
    maps to n fixed-length feature rows (n, m), each row a function of its
    slice alone."""

    def extract(self, stack: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class RawPixelBackend(FeatureBackend):
    """Baseline backend: resampled pixel intensities as the feature vector."""

    def __init__(self, side: int = 16):
        if side < 2:
            raise ConfigError(f"side must be >= 2, got {side}")
        self.side = side

    def extract(self, stack: np.ndarray) -> np.ndarray:
        """Each slice resampled to side x side, flattened row-major."""
        stack = _as_stack(stack)
        return bilinear_resize(stack, self.side, self.side).reshape(len(stack), -1)


class OnnxBackend(FeatureBackend):
    """External neural extractor in ONNX format.

    The sidecar JSON (default: model path + ".json") is an object declaring
    preprocessing:
      input_shape  rank-2/3/4 shape the model expects, e.g. [1, 3, 224, 224]
      mean, std    per-channel (or scalar) normalization constants
      output_dim   optional expected feature length (an integer), checked at load
    Any other key is a ModelLoadError.
    Single-channel slices are replicated across the channel axis when the
    model wants more channels. A stack is resampled and normalised at once;
    the model then runs on one slice at a time.
    """

    def __init__(self, model_path, sidecar_path=None):
        model_path = Path(model_path)
        if sidecar_path is None:
            sidecar_path = model_path.with_name(model_path.name + ".json")
        self.model = minionnx.load_model(model_path)
        try:
            sidecar = read_json(sidecar_path)
        except ParseError as exc:
            raise ModelLoadError(f"cannot read sidecar: {exc}") from exc
        if not isinstance(sidecar, dict):
            raise ModelLoadError(f"sidecar {sidecar_path} must be a JSON object")
        unknown = sorted(set(sidecar) - {"input_shape", "mean", "std", "output_dim"})
        if unknown:
            raise ModelLoadError(f"sidecar {sidecar_path}: unknown key(s): {unknown}")
        declared_dim = sidecar.get("output_dim")
        if declared_dim is not None and type(declared_dim) is not int:
            raise ModelLoadError(
                f"sidecar {sidecar_path}: output_dim must be an integer, got {declared_dim!r}"
            )

        shape = sidecar.get("input_shape")
        declared = self.model.inputs.get(self.model.feed_names[0]) or []
        if shape is None:
            shape = [d for d in declared]
        if not isinstance(shape, list) or not shape or any(
            type(d) is not int or d <= 0 for d in shape
        ):
            raise ModelLoadError(
                f"input shape undetermined (sidecar: {shape}, model: {declared})"
            )
        if len(shape) < 2 or len(shape) > 4:
            raise ModelLoadError(f"input rank {len(shape)} unsupported, need 2..4")
        self.input_shape = tuple(shape)
        minionnx.check_feed_shape(self.model, self.input_shape)
        image_shape = self.input_shape[-3 if len(shape) > 2 else -2 :]
        try:
            self.mean = np.asarray(sidecar.get("mean", 0.0), dtype=np.float64)
            self.std = np.asarray(sidecar.get("std", 1.0), dtype=np.float64)
            for constants in (self.mean, self.std):
                # each must broadcast over one slice's input without growing it
                fitted = np.broadcast_shapes(self._channel_axis(constants).shape, image_shape)
                if fitted != image_shape:
                    raise ValueError(f"shape {constants.shape} does not fit {list(image_shape)}")
                if not np.isfinite(constants).all():
                    raise ValueError("values must be finite")
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelLoadError(f"sidecar {sidecar_path}: bad mean or std: {exc}") from None
        if np.any(self.std == 0):
            raise ModelLoadError("sidecar std must be nonzero")

        # the feature length, found by pushing a zero tensor through the model
        zeros = np.zeros(self.input_shape, dtype=np.float64)
        probe = int(np.asarray(minionnx.run_model(self.model, zeros)).size)
        if declared_dim is not None and declared_dim != probe:
            raise ShapeMismatch(
                f"model produces {probe} features, sidecar declares {declared_dim!r}"
            )
        self.output_dim = probe

    def _channel_axis(self, constants: np.ndarray) -> np.ndarray:
        """Per-channel constants laid along the channel axis of a rank-3/4 input."""
        if len(self.input_shape) == 2 or constants.ndim == 0:
            return constants
        return constants.reshape(-1, 1, 1)

    def _preprocess(self, stack: np.ndarray) -> np.ndarray:
        """Model inputs for a slice stack, one per slice along the first axis."""
        rows, cols = self.input_shape[-2], self.input_shape[-1]
        tensor = bilinear_resize(stack, rows, cols)
        if len(self.input_shape) > 2:
            channels = self.input_shape[-3]
            tensor = np.broadcast_to(tensor[:, None], (len(tensor), channels, rows, cols)).copy()
        tensor = (tensor - self._channel_axis(self.mean)) / self._channel_axis(self.std)
        if len(self.input_shape) == 4:
            tensor = tensor[:, None]
        return tensor

    def extract(self, stack: np.ndarray) -> np.ndarray:
        stack = _as_stack(stack)
        features = np.empty((len(stack), self.output_dim))
        for i, tensor in enumerate(self._preprocess(stack)):
            out = minionnx.run_model(self.model, tensor)
            vector = np.asarray(out, dtype=np.float64).reshape(-1)
            if vector.size != self.output_dim:
                raise ShapeMismatch(
                    f"model returned {vector.size} features, expected {self.output_dim}"
                )
            features[i] = vector
        return features


def _csv_fields(fields: list[str]) -> str:
    """The line csv.writer writes for fields, without its terminator."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow(fields)
    return line.getvalue()[:-1]


def save_features(matrix: FeatureMatrix, path) -> None:
    """Write a FeatureMatrix in the feature CSV interchange format.

    Each line is what csv.writer writes for the row: the subject id and
    label quoted by csv.writer itself (once per distinct pair), then each
    feature as the repr csv.writer gives a float."""
    prefixes: dict[tuple[str, str], str] = {}
    with open(path, "w", newline="") as fh:
        fh.write(_csv_fields(["subject_id", "label"] + [f"f{i}" for i in range(matrix.m)]) + "\n")
        for sid, label, row in zip(matrix.subject_ids, matrix.labels, matrix.values):
            prefix = prefixes.get((sid, label))
            if prefix is None:
                prefix = prefixes[sid, label] = _csv_fields([sid, label])
            fh.write(",".join([prefix, *map(repr, row.tolist())]) + "\n")


def load_precomputed(path) -> FeatureMatrix:
    """Load a feature CSV written by this tool or an external extractor."""
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: no header row") from None
        if len(header) < 3 or header[0] != "subject_id" or header[1] != "label":
            raise ParseError(f"{path}: header must start with subject_id,label,f0..")
        m = len(header) - 2
        expected = [f"f{i}" for i in range(m)]
        if header[2:] != expected:
            raise ParseError(f"{path}: feature columns must be named f0..f{m - 1}")

        subject_ids, labels, rows = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != m + 2:
                raise ParseError(
                    f"{path}: line {lineno}: expected {m + 2} fields, got {len(row)}"
                )
            try:
                values = [float(cell) for cell in row[2:]]
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
            if not all(np.isfinite(values)):
                raise ParseError(f"{path}: line {lineno}: non-finite feature value")
            subject_ids.append(row[0])
            labels.append(row[1])
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return FeatureMatrix(
        values=np.asarray(rows, dtype=np.float64),
        labels=tuple(labels),
        subject_ids=tuple(subject_ids),
    )

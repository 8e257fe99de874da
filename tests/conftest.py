"""Shared test helpers: a standalone protobuf encoder for building ONNX
fixture files and small utilities used across test modules.

The encoder here is written from the protobuf wire-format rules directly
(varints + tag bytes), independent of the package's decoder, so reader
tests exercise a genuine round trip rather than mirroring internals.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
import pytest


# ---------------------------------------------------------------------------
# protobuf wire-format encoding


def vint(n: int) -> bytes:
    """Unsigned LEB128 varint."""
    if n < 0:
        n += 1 << 64
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def tag(field: int, wire: int) -> bytes:
    return vint((field << 3) | wire)


def f_varint(field: int, n: int) -> bytes:
    return tag(field, 0) + vint(n)


def f_bytes(field: int, payload: bytes) -> bytes:
    return tag(field, 2) + vint(len(payload)) + payload


def f_string(field: int, s: str) -> bytes:
    return f_bytes(field, s.encode("utf-8"))


def f_float32(field: int, v: float) -> bytes:
    return tag(field, 5) + struct.pack("<f", v)


# ---------------------------------------------------------------------------
# ONNX message builders (field numbers from the onnx.proto schema)


def tensor_f32(name: str, dims: list[int], values) -> bytes:
    msg = b"".join(f_varint(1, d) for d in dims)
    msg += f_varint(2, 1)  # data_type FLOAT
    msg += f_string(8, name)
    msg += f_bytes(9, np.asarray(values, dtype="<f4").tobytes())
    return msg


def tensor_i64(name: str, dims: list[int], values) -> bytes:
    msg = b"".join(f_varint(1, d) for d in dims)
    msg += f_varint(2, 7)  # data_type INT64
    msg += f_string(8, name)
    msg += f_bytes(9, np.asarray(values, dtype="<i8").tobytes())
    return msg


def attr_int(name: str, value: int) -> bytes:
    return f_string(1, name) + f_varint(3, value) + f_varint(20, 2)  # type INT


def attr_float(name: str, value: float) -> bytes:
    return f_string(1, name) + f_float32(2, value) + f_varint(20, 1)  # type FLOAT


def node(op_type: str, inputs: list[str], outputs: list[str], attrs: list[bytes] = ()) -> bytes:
    msg = b"".join(f_string(1, i) for i in inputs)
    msg += b"".join(f_string(2, o) for o in outputs)
    msg += f_string(4, op_type)
    msg += b"".join(f_bytes(5, a) for a in attrs)
    return msg


def value_info(name: str, shape: list[int]) -> bytes:
    shape_msg = b"".join(f_bytes(1, f_varint(1, d)) for d in shape)
    tensor_type = f_varint(1, 1) + f_bytes(2, shape_msg)  # elem_type FLOAT + shape
    return f_string(1, name) + f_bytes(2, f_bytes(1, tensor_type))


def graph(
    nodes: list[bytes],
    initializers: list[bytes],
    inputs: list[bytes],
    outputs: list[bytes],
    name: str = "g",
) -> bytes:
    msg = b"".join(f_bytes(1, n) for n in nodes)
    msg += f_string(2, name)
    msg += b"".join(f_bytes(5, t) for t in initializers)
    msg += b"".join(f_bytes(11, v) for v in inputs)
    msg += b"".join(f_bytes(12, v) for v in outputs)
    return msg


def model(graph_msg: bytes) -> bytes:
    # ir_version + producer_name + graph + opset_import(version 13)
    opset = f_varint(2, 13)
    return f_varint(1, 8) + f_string(2, "testbuilder") + f_bytes(7, graph_msg) + f_bytes(8, opset)


def write_linear_model(path: Path, W: np.ndarray, b: np.ndarray) -> Path:
    """y = x @ W + b for rank-2 input (1, W.shape[0])."""
    W = np.asarray(W, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    g = graph(
        nodes=[
            node("MatMul", ["x", "W"], ["t0"]),
            node("Add", ["t0", "b"], ["y"]),
        ],
        initializers=[
            tensor_f32("W", list(W.shape), W.ravel()),
            tensor_f32("b", list(b.shape), b.ravel()),
        ],
        inputs=[value_info("x", [1, W.shape[0]])],
        outputs=[value_info("y", [1, W.shape[1]])],
    )
    path.write_bytes(model(g))
    return path


def write_conv_style_model(path: Path, side: int, channels: int, out_dim: int, seed: int = 0) -> tuple[Path, np.ndarray, np.ndarray]:
    """Flatten(1) then Gemm with transB for a rank-4 (1, C, side, side) input."""
    rng = np.random.default_rng(seed)
    in_dim = channels * side * side
    W = rng.normal(size=(out_dim, in_dim)).astype(np.float64)  # Gemm transB layout
    b = rng.normal(size=out_dim).astype(np.float64)
    g = graph(
        nodes=[
            node("Flatten", ["x"], ["flat"], attrs=[attr_int("axis", 1)]),
            node(
                "Gemm",
                ["flat", "W", "b"],
                ["pre"],
                attrs=[attr_int("transB", 1), attr_float("alpha", 1.0), attr_float("beta", 1.0)],
            ),
            node("Relu", ["pre"], ["y"]),
        ],
        initializers=[
            tensor_f32("W", list(W.shape), W.ravel()),
            tensor_f32("b", list(b.shape), b.ravel()),
        ],
        inputs=[value_info("x", [1, channels, side, side])],
        outputs=[value_info("y", [1, out_dim])],
    )
    path.write_bytes(model(g))
    # float32 storage quantizes the weights; return what the model really holds
    return path, W.astype("<f4").astype(np.float64), b.astype("<f4").astype(np.float64)


def write_reshape_model(path: Path, rows: int, cols: int, out_dim: int, seed: int = 0) -> tuple[Path, np.ndarray]:
    """Reshape (1, rows, cols) -> (0, -1) then MatMul, exercising 0/-1 dims."""
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(rows * cols, out_dim)).astype(np.float64)
    g = graph(
        nodes=[
            node("Reshape", ["x", "shape"], ["flat"]),
            node("MatMul", ["flat", "W"], ["y"]),
        ],
        initializers=[
            tensor_i64("shape", [2], [0, -1]),
            tensor_f32("W", list(W.shape), W.ravel()),
        ],
        inputs=[value_info("x", [1, rows, cols])],
        outputs=[value_info("y", [1, out_dim])],
    )
    path.write_bytes(model(g))
    return path, W.astype("<f4").astype(np.float64)


def write_sidecar(model_path: Path, **fields) -> Path:
    sidecar = Path(str(model_path) + ".json")
    sidecar.write_text(json.dumps(fields))
    return sidecar


# ---------------------------------------------------------------------------
# misc helpers


@pytest.fixture
def rng():
    return np.random.default_rng(20260813)

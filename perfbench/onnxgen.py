"""Write the small ONNX feature encoder used by the onnx_elbow_mlp workload.

The encoder is Flatten -> Gemm(transB) -> Relu on a [1, 1, side, side]
input. It is serialised straight from the protobuf wire-format rules
(varints, tags, length-delimited fields; field numbers from onnx.proto), so
the benchmark needs no onnx package and the program receives only bytes.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np


def _varint(n: int) -> bytes:
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _tag(field: int, wire: int) -> bytes:
    return _varint((field << 3) | wire)


def _f_varint(field: int, n: int) -> bytes:
    return _tag(field, 0) + _varint(n)


def _f_bytes(field: int, payload: bytes) -> bytes:
    return _tag(field, 2) + _varint(len(payload)) + payload


def _f_string(field: int, s: str) -> bytes:
    return _f_bytes(field, s.encode("utf-8"))


def _f_float32(field: int, v: float) -> bytes:
    return _tag(field, 5) + struct.pack("<f", v)


def _tensor_f32(name: str, values: np.ndarray) -> bytes:
    msg = b"".join(_f_varint(1, d) for d in values.shape)
    msg += _f_varint(2, 1)  # data_type FLOAT
    msg += _f_string(8, name)
    msg += _f_bytes(9, np.ascontiguousarray(values, dtype="<f4").tobytes())
    return msg


def _attr_int(name: str, value: int) -> bytes:
    return _f_string(1, name) + _f_varint(3, value) + _f_varint(20, 2)  # type INT


def _attr_float(name: str, value: float) -> bytes:
    return _f_string(1, name) + _f_float32(2, value) + _f_varint(20, 1)  # type FLOAT


def _node(op_type: str, inputs, outputs, attrs=()) -> bytes:
    msg = b"".join(_f_string(1, i) for i in inputs)
    msg += b"".join(_f_string(2, o) for o in outputs)
    msg += _f_string(4, op_type)
    msg += b"".join(_f_bytes(5, a) for a in attrs)
    return msg


def _value_info(name: str, shape) -> bytes:
    shape_msg = b"".join(_f_bytes(1, _f_varint(1, d)) for d in shape)
    tensor_type = _f_varint(1, 1) + _f_bytes(2, shape_msg)  # elem_type FLOAT + shape
    return _f_string(1, name) + _f_bytes(2, _f_bytes(1, tensor_type))


def encoder_bytes(side: int, out_dim: int, seed: int) -> bytes:
    """Serialised ModelProto of Flatten -> Gemm -> Relu with seeded weights."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, side, out_dim]))
    in_dim = side * side
    weights = rng.normal(scale=1.0 / np.sqrt(in_dim), size=(out_dim, in_dim))
    bias = rng.normal(scale=0.1, size=out_dim)
    graph = b"".join(
        _f_bytes(1, n)
        for n in (
            _node("Flatten", ["x"], ["flat"], [_attr_int("axis", 1)]),
            _node(
                "Gemm",
                ["flat", "W", "b"],
                ["pre"],
                [_attr_int("transB", 1), _attr_float("alpha", 1.0), _attr_float("beta", 1.0)],
            ),
            _node("Relu", ["pre"], ["y"]),
        )
    )
    graph += _f_string(2, "encoder")
    graph += _f_bytes(5, _tensor_f32("W", weights)) + _f_bytes(5, _tensor_f32("b", bias))
    graph += _f_bytes(11, _value_info("x", [1, 1, side, side]))
    graph += _f_bytes(12, _value_info("y", [1, out_dim]))
    opset = _f_varint(2, 13)
    return _f_varint(1, 8) + _f_string(2, "perfbench") + _f_bytes(7, graph) + _f_bytes(8, opset)


def write_encoder(path: Path, side: int, out_dim: int, seed: int, std: float) -> Path:
    """Write the model and its JSON sidecar (path + ".json"); returns the sidecar."""
    path.write_bytes(encoder_bytes(side, out_dim, seed))
    sidecar = path.with_name(path.name + ".json")
    sidecar.write_text(
        json.dumps(
            {"input_shape": [1, 1, side, side], "mean": 0.0, "std": std, "output_dim": out_dim}
        )
    )
    return sidecar

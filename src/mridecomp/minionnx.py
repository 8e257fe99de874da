"""Minimal ONNX model loading and inference with numpy.

Decodes the protobuf wire format directly (no protobuf/onnxruntime
dependency) and executes a small operator subset sufficient for
feed-forward feature extractors: MatMul, Gemm, Add, Sub, Mul, Relu,
Flatten, Reshape, Identity. Anything else raises ModelLoadError.

raw_data tensor payloads are little-endian per the ONNX standard; nodes
must be topologically sorted, as the standard requires: load_model rejects a
node that reads a tensor no earlier node, initializer or the input defines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ModelLoadError, ShapeMismatch

# TensorProto.DataType -> numpy dtype (little-endian)
_TENSOR_DTYPES = {1: "<f4", 6: "<i4", 7: "<i8", 11: "<f8"}

# op -> (fewest, most) named inputs; every supported op has one output
_SUPPORTED_OPS = {
    "MatMul": (2, 2), "Gemm": (2, 3), "Add": (2, 2), "Sub": (2, 2), "Mul": (2, 2),
    "Relu": (1, 1), "Flatten": (1, 1), "Reshape": (2, 2), "Identity": (1, 1),
}


def _varint(buf: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ModelLoadError("truncated varint in model file")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ModelLoadError("varint too long in model file")


def _signed64(value: int) -> int:
    return value - (1 << 64) if value >= (1 << 63) else value


def _iter_fields(buf: bytes):
    """Yield (field_number, wire_type, payload) triples from a message."""
    pos = 0
    size = len(buf)
    while pos < size:
        key, pos = _varint(buf, pos)
        number, wire = key >> 3, key & 7
        if wire == 0:
            value, pos = _varint(buf, pos)
        elif wire == 1:
            value, pos = buf[pos : pos + 8], pos + 8
        elif wire == 2:
            length, pos = _varint(buf, pos)
            value, pos = buf[pos : pos + length], pos + length
            if len(value) != length:
                raise ModelLoadError("truncated length-delimited field")
        elif wire == 5:
            value, pos = buf[pos : pos + 4], pos + 4
        else:
            raise ModelLoadError(f"unsupported protobuf wire type {wire}")
        yield number, wire, value


def _repeated_varints(wire: int, value) -> list[int]:
    # repeated int64 fields arrive packed (length-delimited) or one by one
    if wire == 0:
        return [_signed64(value)]
    out = []
    pos = 0
    while pos < len(value):
        v, pos = _varint(value, pos)
        out.append(_signed64(v))
    return out


def _parse_tensor(buf: bytes) -> tuple[str, np.ndarray]:
    dims: list[int] = []
    data_type = 0
    name = ""
    raw = None
    typed: list[float] = []
    typed_fields = {4: "<f4", 5: "<i4", 7: "<i8", 10: "<f8"}
    typed_dtype = None
    for number, wire, value in _iter_fields(buf):
        if number == 1:
            dims.extend(_repeated_varints(wire, value))
        elif number == 2:
            data_type = value
        elif number == 8:
            name = value.decode("utf-8")
        elif number == 9:
            raw = value
        elif number in typed_fields:
            typed_dtype = typed_fields[number]
            if number in (4, 10):  # packed floats/doubles
                typed.extend(np.frombuffer(value, dtype=typed_dtype).tolist())
            else:
                typed.extend(_repeated_varints(wire, value))
    if data_type not in _TENSOR_DTYPES:
        raise ModelLoadError(f"tensor {name!r}: unsupported data type {data_type}")
    dtype = _TENSOR_DTYPES[data_type]
    if raw is not None:
        array = np.frombuffer(raw, dtype=dtype)
    else:
        array = np.asarray(typed, dtype=typed_dtype or dtype)
    count = int(np.prod(dims)) if dims else array.size
    if array.size != count:
        raise ModelLoadError(f"tensor {name!r}: payload size {array.size} != shape {dims}")
    return name, array.reshape(dims).astype(np.float64 if "f" in dtype else np.int64)


def _parse_attributes(buf: bytes) -> tuple[str, object]:
    name = ""
    value: object = None
    for number, wire, payload in _iter_fields(buf):
        if number == 1:
            name = payload.decode("utf-8")
        elif number == 2:  # float f
            value = float(np.frombuffer(payload, dtype="<f4")[0])
        elif number == 3:  # int i
            value = _signed64(payload)
        elif number == 8:  # repeated ints
            ints = _repeated_varints(wire, payload)
            value = ints if value is None else list(value) + ints
    return name, value


def _parse_value_info(buf: bytes) -> tuple[str, list[int | None]]:
    name = ""
    shape: list[int | None] = []
    for number, _, value in _iter_fields(buf):
        if number == 1:
            name = value.decode("utf-8")
        elif number == 2:  # TypeProto
            for tnum, _, tval in _iter_fields(value):
                if tnum != 1:  # tensor_type
                    continue
                for snum, _, sval in _iter_fields(tval):
                    if snum != 2:  # shape
                        continue
                    for dnum, _, dval in _iter_fields(sval):
                        if dnum != 1:  # dim
                            continue
                        dim_value: int | None = None
                        for ddnum, dwire, ddval in _iter_fields(dval):
                            if ddnum == 1:
                                dim_value = _signed64(ddval)
                        shape.append(dim_value)
    return name, shape


@dataclass
class OnnxNode:
    op_type: str
    inputs: list[str]
    outputs: list[str]
    attrs: dict = field(default_factory=dict)


@dataclass
class OnnxModel:
    nodes: list[OnnxNode]
    initializers: dict[str, np.ndarray]
    inputs: dict[str, list[int | None]]
    outputs: list[str]

    @property
    def feed_names(self) -> list[str]:
        return [n for n in self.inputs if n not in self.initializers]


def _parse_node(buf: bytes) -> OnnxNode:
    node = OnnxNode(op_type="", inputs=[], outputs=[])
    for number, _, value in _iter_fields(buf):
        if number == 1:
            node.inputs.append(value.decode("utf-8"))
        elif number == 2:
            node.outputs.append(value.decode("utf-8"))
        elif number == 4:
            node.op_type = value.decode("utf-8")
        elif number == 5:
            name, attr = _parse_attributes(value)
            node.attrs[name] = attr
    return node


def _parse_graph(buf: bytes) -> OnnxModel:
    model = OnnxModel(nodes=[], initializers={}, inputs={}, outputs=[])
    for number, _, value in _iter_fields(buf):
        if number == 1:
            model.nodes.append(_parse_node(value))
        elif number == 5:
            name, array = _parse_tensor(value)
            model.initializers[name] = array
        elif number == 11:
            name, shape = _parse_value_info(value)
            model.inputs[name] = shape
        elif number == 12:
            name, _ = _parse_value_info(value)
            model.outputs.append(name)
    return model


def load_model(path) -> OnnxModel:
    """Parse an ONNX file into an executable graph description."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ModelLoadError(f"cannot read model {path}: {exc}") from exc

    graph = None
    try:
        for number, _, value in _iter_fields(raw):
            if number == 7:
                graph = _parse_graph(value)
    except ModelLoadError:
        raise
    except Exception as exc:
        raise ModelLoadError(f"{path}: not a decodable ONNX file: {exc}") from exc
    if graph is None or not graph.outputs:
        raise ModelLoadError(f"{path}: no graph found in model file")
    for node in graph.nodes:
        if node.op_type not in _SUPPORTED_OPS:
            raise ModelLoadError(f"{path}: unsupported op {node.op_type!r}")
    if len(graph.feed_names) != 1:
        raise ModelLoadError(
            f"{path}: expected exactly one model input, got {graph.feed_names}"
        )
    _check_wiring(graph, path)
    return graph


def _check_wiring(graph: OnnxModel, path) -> None:
    """ModelLoadError unless every tensor a node or the graph output reads is
    the feed, an initializer or an earlier node's output, and every node has
    its op's number of inputs and one output."""
    defined = set(graph.initializers) | set(graph.feed_names)
    for node in graph.nodes:
        inputs = [i for i in node.inputs if i]
        fewest, most = _SUPPORTED_OPS[node.op_type]
        if not fewest <= len(inputs) <= most:
            raise ModelLoadError(
                f"{path}: {node.op_type} node takes {fewest}..{most} inputs, got {inputs}"
            )
        for name in inputs:
            if name not in defined:
                raise ModelLoadError(f"{path}: {node.op_type} node reads undefined tensor {name!r}")
        if len(node.outputs) != 1:
            raise ModelLoadError(f"{path}: {node.op_type} node must have one output, got {node.outputs}")
        defined.add(node.outputs[0])
    for name in graph.outputs:
        if name not in defined:
            raise ModelLoadError(f"{path}: graph output {name!r} is never computed")


def _reshape(data: np.ndarray, shape: np.ndarray) -> np.ndarray:
    target = [int(data.shape[i]) if s == 0 else int(s) for i, s in enumerate(shape)]
    return data.reshape(target)


def check_feed_shape(model: OnnxModel, shape: tuple[int, ...]) -> None:
    """ShapeMismatch unless the model's declared input accepts a feed of this shape."""
    name = model.feed_names[0]
    declared = model.inputs.get(name, [])
    if declared and len(declared) != len(shape):
        raise ShapeMismatch(
            f"model input {name!r} expects rank {len(declared)}, got shape {shape}"
        )
    for want, got in zip(declared, shape):
        if want is not None and want > 0 and want != got:
            raise ShapeMismatch(f"model input {name!r} expects {declared}, got {shape}")


def run_model(model: OnnxModel, feed: np.ndarray) -> np.ndarray:
    """Execute the graph on one input tensor and return the first output."""
    name = model.feed_names[0]
    check_feed_shape(model, feed.shape)
    values: dict[str, np.ndarray] = dict(model.initializers)
    values[name] = np.asarray(feed, dtype=np.float64)
    for node in model.nodes:
        args = [values[i] for i in node.inputs if i]
        try:
            values[node.outputs[0]] = _apply(node, args)
        except (ValueError, IndexError, TypeError) as exc:
            # numpy's broadcast, matmul and reshape errors for tensors that do not fit
            raise ShapeMismatch(f"{node.op_type} -> {node.outputs[0]!r}: {exc}") from None
    return values[model.outputs[0]]


def _apply(node: OnnxNode, args: list[np.ndarray]) -> np.ndarray:
    op = node.op_type
    if op == "MatMul":
        return args[0] @ args[1]
    if op == "Gemm":
        a = args[0].T if node.attrs.get("transA") else args[0]
        b = args[1].T if node.attrs.get("transB") else args[1]
        out = node.attrs.get("alpha", 1.0) * (a @ b)
        if len(args) > 2:
            out = out + node.attrs.get("beta", 1.0) * args[2]
        return out
    if op == "Add":
        return args[0] + args[1]
    if op == "Sub":
        return args[0] - args[1]
    if op == "Mul":
        return args[0] * args[1]
    if op == "Relu":
        return np.maximum(args[0], 0.0)
    if op == "Flatten":
        axis = node.attrs.get("axis", 1)
        lead = int(np.prod(args[0].shape[:axis])) if axis else 1
        return args[0].reshape(lead, -1)
    if op == "Reshape":
        return _reshape(args[0], args[1])
    return args[0]  # Identity

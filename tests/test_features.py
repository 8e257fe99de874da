"""Feature backends: bilinear resize, raw pixels, CSV interchange, ONNX."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mridecomp import minionnx
from mridecomp.errors import (
    EmptyFile,
    InvalidSide,
    ModelLoadError,
    ParseError,
    ShapeMismatch,
)
from mridecomp.features import (
    FeatureMatrix,
    OnnxBackend,
    RawPixelBackend,
    bilinear_resize,
    load_precomputed,
    save_features,
)

import conftest as ob  # the test-side ONNX builder
from conftest import make_slice


# --- bilinear resize ---------------------------------------------------------


def test_resize_same_size_is_identity(rng):
    src = rng.normal(size=(5, 7))
    out = bilinear_resize(src, 5, 7)
    np.testing.assert_array_equal(out, src)


def test_resize_2x2_to_3x3_midpoints():
    out = bilinear_resize([[0.0, 2.0], [0.0, 2.0]], 3, 3)
    np.testing.assert_allclose(out, [[0, 1, 2], [0, 1, 2], [0, 1, 2]], atol=1e-15)


def test_resize_single_pixel_broadcasts():
    out = bilinear_resize([[4.25]], 3, 4)
    np.testing.assert_array_equal(out, np.full((3, 4), 4.25))


@settings(deadline=None, max_examples=40)
@given(
    value=st.floats(-1e6, 1e6, allow_nan=False),
    nr=st.integers(1, 6),
    nc=st.integers(1, 6),
    out_r=st.integers(1, 9),
    out_c=st.integers(1, 9),
)
def test_resize_preserves_constants_exactly(value, nr, nc, out_r, out_c):
    out = bilinear_resize(np.full((nr, nc), value), out_r, out_c)
    assert (out == value).all()


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), out_r=st.integers(1, 8), out_c=st.integers(1, 8))
def test_resize_respects_value_range(seed, out_r, out_c):
    rng = np.random.default_rng(seed)
    src = rng.normal(size=(5, 5))
    out = bilinear_resize(src, out_r, out_c)
    assert out.min() >= src.min() - 1e-12
    assert out.max() <= src.max() + 1e-12


def test_extract_raw_shape_and_validation(rng):
    s = make_slice(rng.normal(size=(24, 24)))
    v = RawPixelBackend(side=16).extract(s)
    assert v.shape == (256,)
    with pytest.raises(InvalidSide):
        RawPixelBackend(side=1)


def test_raw_backend_metadata(rng):
    backend = RawPixelBackend(side=8)
    assert backend.extract(make_slice(rng.normal(size=(10, 12)))).shape == (64,)
    with pytest.raises(InvalidSide):
        RawPixelBackend(side=0)


# --- feature CSV -------------------------------------------------------------


def make_matrix(rng, n=6, m=4):
    return FeatureMatrix(
        values=rng.normal(size=(n, m)),
        labels=tuple(["CN", "MCI", "AD"][i % 3] for i in range(n)),
        subject_ids=tuple(f"s{i // 2}" for i in range(n)),
    )


def test_feature_csv_round_trip_bit_identical(tmp_path, rng):
    X = make_matrix(rng)
    path = tmp_path / "features.csv"
    save_features(X, path)
    loaded = load_precomputed(path)
    np.testing.assert_array_equal(loaded.values, X.values)  # repr round trip is exact
    assert loaded.labels == X.labels
    assert loaded.subject_ids == X.subject_ids
    save_features(loaded, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    edge = [1e-05, 1e16, 5e-324, -0.0, 0.1, 1 / 3]
    E = FeatureMatrix(values=np.array([edge]), labels=("CN",), subject_ids=("s0",))
    save_features(E, tmp_path / "edge.csv")
    row = (tmp_path / "edge.csv").read_text().splitlines()[1]
    assert row == "s0,CN," + ",".join(repr(float(v)) for v in edge)
    loaded = load_precomputed(tmp_path / "edge.csv").values
    np.testing.assert_array_equal(loaded, E.values)
    np.testing.assert_array_equal(np.signbit(loaded), np.signbit(E.values))


def test_feature_csv_header_contract(tmp_path, rng):
    X = make_matrix(rng, n=2, m=3)
    path = tmp_path / "f.csv"
    save_features(X, path)
    header = path.read_text().splitlines()[0]
    assert header == "subject_id,label,f0,f1,f2"


def test_load_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,label,f0\ns0,CN,1.0\n")
    with pytest.raises(ParseError):
        load_precomputed(path)
    path.write_text("subject_id,label,g0\ns0,CN,1.0\n")
    with pytest.raises(ParseError):
        load_precomputed(path)


def test_load_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,label,f0,f1\ns0,CN,1.0\n")  # arity
    with pytest.raises(ParseError, match="line 2"):
        load_precomputed(path)
    path.write_text("subject_id,label,f0,f1\ns0,CN,1.0,abc\n")  # non-numeric
    with pytest.raises(ParseError, match="line 2"):
        load_precomputed(path)
    path.write_text("subject_id,label,f0,f1\ns0,CN,1.0,nan\n")  # non-finite
    with pytest.raises(ParseError, match="line 2"):
        load_precomputed(path)


def test_load_rejects_empty_inputs(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyFile):
        load_precomputed(path)
    path.write_text("subject_id,label,f0\n")
    with pytest.raises(EmptyFile):
        load_precomputed(path)


def test_feature_matrix_validation(rng):
    with pytest.raises(ValueError):
        FeatureMatrix(values=rng.normal(size=(3, 2)), labels=("a",), subject_ids=("s", "s", "s"))
    bad = rng.normal(size=(2, 2))
    bad[0, 0] = np.inf
    with pytest.raises(ValueError):
        FeatureMatrix(values=bad, labels=("a", "b"), subject_ids=("s", "t"))


def test_feature_matrix_rows_subset(rng):
    X = make_matrix(rng)
    sub = X.rows(np.array([2, 0]))
    np.testing.assert_array_equal(sub.values, X.values[[2, 0]])
    assert sub.labels == (X.labels[2], X.labels[0])
    mask = np.zeros(X.n, dtype=bool)
    mask[1] = True
    assert X.rows(mask).subject_ids == (X.subject_ids[1],)


# --- minimal ONNX runtime ----------------------------------------------------


# An Identity graph assembled byte-by-byte from the wire-format rules, so the
# decoder is checked against hand-computed bytes rather than our own encoder.
#   node:  input "x", output "y", op_type "Identity"
#   input: value_info "x" with shape (1, 3); output: value_info "y"
HAND_ASSEMBLED_IDENTITY = bytes(
    [
        0x3A, 0x2C,  # ModelProto field 7 (graph), length 44
        # GraphProto field 1 (node), length 16
        0x0A, 0x10,
        0x0A, 0x01, 0x78,  # NodeProto.input = "x"
        0x12, 0x01, 0x79,  # NodeProto.output = "y"
        0x22, 0x08, 0x49, 0x64, 0x65, 0x6E, 0x74, 0x69, 0x74, 0x79,  # op_type "Identity"
        # GraphProto field 11 (input), length 19: ValueInfoProto
        0x5A, 0x13,
        0x0A, 0x01, 0x78,  # name "x"
        0x12, 0x0E,  # type: TypeProto, length 14
        0x0A, 0x0C,  # tensor_type, length 12
        0x08, 0x01,  # elem_type = 1 (float)
        0x12, 0x08,  # shape: TensorShapeProto, length 8
        0x0A, 0x02, 0x08, 0x01,  # dim { dim_value: 1 }
        0x0A, 0x02, 0x08, 0x03,  # dim { dim_value: 3 }
        # GraphProto field 12 (output), length 3: ValueInfoProto name "y"
        0x62, 0x03, 0x0A, 0x01, 0x79,
    ]
)


def test_hand_assembled_model_bytes(tmp_path):
    path = tmp_path / "identity.onnx"
    path.write_bytes(HAND_ASSEMBLED_IDENTITY)
    model = minionnx.load_model(path)
    assert model.feed_names == ["x"]
    assert model.inputs["x"] == [1, 3]
    assert model.outputs == ["y"]
    assert [n.op_type for n in model.nodes] == ["Identity"]
    feed = np.array([[1.0, -2.0, 3.5]])
    np.testing.assert_array_equal(minionnx.run_model(model, feed), feed)


def test_builder_and_parser_linear_round_trip(tmp_path, rng):
    W = rng.integers(-8, 8, size=(16, 5)).astype(np.float64) / 8.0  # f32-exact
    b = rng.integers(-8, 8, size=5).astype(np.float64) / 4.0
    path = ob.write_linear_model(tmp_path / "lin.onnx", W, b)
    model = minionnx.load_model(path)
    x = rng.normal(size=(1, 16))
    out = minionnx.run_model(model, x)
    np.testing.assert_allclose(out, x @ W + b, atol=1e-12)


def test_run_model_validates_feed_shape(tmp_path, rng):
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(4), np.zeros(4))
    model = minionnx.load_model(path)
    with pytest.raises(ShapeMismatch):
        minionnx.run_model(model, np.zeros((1, 5)))
    with pytest.raises(ShapeMismatch):
        minionnx.run_model(model, np.zeros(4))


def test_unsupported_op_rejected(tmp_path):
    g = ob.graph(
        nodes=[ob.node("Conv", ["x", "W"], ["y"])],
        initializers=[ob.tensor_f32("W", [1, 1, 3, 3], np.zeros(9))],
        inputs=[ob.value_info("x", [1, 1, 8, 8])],
        outputs=[ob.value_info("y", [1, 1, 8, 8])],
    )
    path = tmp_path / "conv.onnx"
    path.write_bytes(ob.model(g))
    with pytest.raises(ModelLoadError, match="Conv"):
        minionnx.load_model(path)


def test_garbage_file_rejected(tmp_path):
    path = tmp_path / "noise.onnx"
    path.write_bytes(b"this is not a protobuf model at all")
    with pytest.raises(ModelLoadError):
        minionnx.load_model(path)


def test_initializer_listed_as_graph_input(tmp_path, rng):
    # older exports list weights both as initializer and as graph input;
    # the weight must not count as a feed input
    W = np.eye(3)
    g = ob.graph(
        nodes=[ob.node("MatMul", ["x", "W"], ["y"])],
        initializers=[ob.tensor_f32("W", [3, 3], W.ravel())],
        inputs=[ob.value_info("x", [1, 3]), ob.value_info("W", [3, 3])],
        outputs=[ob.value_info("y", [1, 3])],
    )
    path = tmp_path / "legacy.onnx"
    path.write_bytes(ob.model(g))
    model = minionnx.load_model(path)
    assert model.feed_names == ["x"]
    x = rng.normal(size=(1, 3))
    np.testing.assert_allclose(minionnx.run_model(model, x), x)


def test_reshape_zero_and_negative_dims(tmp_path, rng):
    path, W = ob.write_reshape_model(tmp_path / "rs.onnx", rows=2, cols=6, out_dim=3)
    model = minionnx.load_model(path)
    x = rng.normal(size=(1, 2, 6))
    np.testing.assert_allclose(
        minionnx.run_model(model, x), x.reshape(1, 12) @ W, rtol=1e-6, atol=1e-8
    )


# --- ONNX feature backend ----------------------------------------------------


def test_onnx_backend_rank2_linear(tmp_path, rng):
    W = rng.integers(-8, 8, size=(16, 5)).astype(np.float64) / 8.0
    b = rng.integers(-8, 8, size=5).astype(np.float64) / 4.0
    path = ob.write_linear_model(tmp_path / "lin.onnx", W, b)
    ob.write_sidecar(path, input_shape=[1, 16], mean=0.0, std=1.0, output_dim=5)

    backend = OnnxBackend(path)
    assert backend.output_dim == 5
    s = make_slice(rng.normal(size=(9, 9)))
    got = backend.extract(s)
    # oracle: resize slice to the declared (1, 16) strip, then affine map
    strip = bilinear_resize(s.pixels, 1, 16)
    np.testing.assert_allclose(got, (strip @ W + b).ravel(), atol=1e-10)


def test_onnx_backend_rank4_with_channel_replication(tmp_path, rng):
    side, channels, out_dim = 4, 3, 6
    path, W, b = ob.write_conv_style_model(
        tmp_path / "conv.onnx", side=side, channels=channels, out_dim=out_dim, seed=3
    )
    mean = [0.0, 1.0, 2.0]
    std = [1.0, 2.0, 4.0]
    ob.write_sidecar(path, input_shape=[1, channels, side, side], mean=mean, std=std)

    backend = OnnxBackend(path)
    assert backend.output_dim == out_dim
    s = make_slice(rng.normal(size=(7, 7)))
    got = backend.extract(s)

    image = bilinear_resize(s.pixels, side, side)
    stacked = np.stack([(image - m) / sd for m, sd in zip(mean, std)])
    expected = np.maximum(stacked.reshape(1, -1) @ W.T + b, 0.0).ravel()
    np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-8)


def test_onnx_backend_shape_from_model_when_sidecar_silent(tmp_path, rng):
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(4), np.zeros(4))
    ob.write_sidecar(path)  # empty sidecar: shape comes from the model graph
    backend = OnnxBackend(path)
    assert backend.input_shape == (1, 4)
    assert backend.output_dim == 4


def test_onnx_backend_sidecar_output_dim_mismatch(tmp_path):
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(4), np.zeros(4))
    ob.write_sidecar(path, input_shape=[1, 4], output_dim=9)
    with pytest.raises(ShapeMismatch):
        OnnxBackend(path)


def test_onnx_backend_missing_sidecar(tmp_path):
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(4), np.zeros(4))
    with pytest.raises(ModelLoadError, match="sidecar"):
        OnnxBackend(path)


def test_onnx_backend_zero_std_rejected(tmp_path):
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(4), np.zeros(4))
    ob.write_sidecar(path, input_shape=[1, 4], std=0.0)
    with pytest.raises(ModelLoadError):
        OnnxBackend(path)


def test_extract_external_one_shot(tmp_path, rng):
    W = np.eye(16)
    path = ob.write_linear_model(tmp_path / "id.onnx", W, np.zeros(16))
    ob.write_sidecar(path, input_shape=[1, 16])
    s = make_slice(rng.normal(size=(4, 4)))
    got = OnnxBackend(path).extract(s)
    np.testing.assert_allclose(got, bilinear_resize(s.pixels, 1, 16).ravel(), atol=1e-12)

"""Feature backends: bilinear resize, raw pixels, CSV interchange, ONNX."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mridecomp import minionnx
from mridecomp.errors import (
    ConfigError,
    ModelLoadError,
    ParseError,
    PipelineError,
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
from oracles import onnx_features_reference, resize_reference, same_bytes


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


DTYPES = [np.uint8, np.int16, np.int32, np.float32, np.float64]


def stored_values(rng, dtype, shape):
    """Values spanning an integer dtype's whole range, or wide floats."""
    if np.issubdtype(dtype, np.integer):
        info = np.iinfo(dtype)
        return rng.integers(info.min, info.max, size=shape, endpoint=True, dtype=dtype)
    return rng.normal(scale=500.0, size=shape).astype(dtype)


@settings(deadline=None, max_examples=80)
@given(
    dtype=st.sampled_from(DTYPES),
    n=st.integers(1, 4),
    in_r=st.integers(1, 9),
    in_c=st.integers(1, 9),
    out_r=st.integers(1, 12),
    out_c=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(dtype=np.int16, n=3, in_r=7, in_c=5, out_r=1, out_c=16, seed=0)
@example(dtype=np.uint8, n=2, in_r=6, in_c=9, out_r=16, out_c=1, seed=1)
def test_stacked_resize_matches_per_grid_reference(dtype, n, in_r, in_c, out_r, out_c, seed):
    """Up- and down-sampling of stored-dtype grids, as Fortran-ordered volume
    slice views, one at a time and stacked, give the reference's bytes in
    C order."""
    rng = np.random.default_rng(seed)
    volume = np.asfortranarray(stored_values(rng, dtype, (in_r, in_c, n)))
    grids = [volume[:, :, i] for i in range(n)]
    want = np.stack([resize_reference(g, out_r, out_c) for g in grids])
    for grid, expected in zip(grids, want):
        got = bilinear_resize(grid, out_r, out_c)
        assert got.flags.c_contiguous and same_bytes(got, expected)
    for stack in (np.stack(grids), np.moveaxis(volume, 2, 0)):
        got = bilinear_resize(stack, out_r, out_c)
        assert got.flags.c_contiguous and same_bytes(got, want)


def test_stacked_resize_promotes_only_the_gathered_grids():
    stack = np.zeros((64, 128, 128), dtype=np.uint8)
    tracemalloc.start()
    try:
        bilinear_resize(stack, 16, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * stack.nbytes  # a float64 copy of the stack alone is 8x


def test_raw_backend_stack_matches_per_slice_reference(rng):
    stack = stored_values(rng, np.int16, (5, 24, 20))
    got = RawPixelBackend(side=16).extract(stack)
    want = np.stack([resize_reference(p, 16, 16).ravel() for p in stack])
    assert got.flags.c_contiguous and same_bytes(got, want)


def test_extract_rejects_a_single_slice(rng):
    with pytest.raises(ShapeMismatch, match="stack"):
        RawPixelBackend(side=4).extract(rng.normal(size=(6, 6)))


def test_extract_raw_shape_and_validation(rng):
    v = RawPixelBackend(side=16).extract(rng.normal(size=(1, 24, 24)))
    assert v.shape == (1, 256)
    with pytest.raises(ConfigError, match="^side must be >= 2, got 1$"):
        RawPixelBackend(side=1)


def test_raw_backend_metadata(rng):
    backend = RawPixelBackend(side=8)
    assert backend.extract(rng.normal(size=(1, 10, 12))).shape == (1, 64)
    with pytest.raises(ConfigError, match="^side must be >= 2, got 0$"):
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


def test_feature_csv_lines_are_csv_writer_lines(tmp_path, rng):
    """Ids and labels that need quoting come out as csv.writer quotes them,
    and the file reads back."""
    X = FeatureMatrix(
        values=rng.normal(size=(4, 3)),
        labels=('AD, "early"', "CN", 'AD, "early"', "a\nb"),
        subject_ids=("s,0", 's"1', "s2", ""),
    )
    path = tmp_path / "quoted.csv"
    save_features(X, path)
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["subject_id", "label", "f0", "f1", "f2"])
    writer.writerows(
        [sid, label] + row.tolist() for sid, label, row in zip(X.subject_ids, X.labels, X.values)
    )
    assert path.read_bytes() == want.getvalue().encode()
    loaded = load_precomputed(path)
    assert (loaded.subject_ids, loaded.labels) == (X.subject_ids, X.labels)
    assert same_bytes(loaded.values, X.values)


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
    with pytest.raises(ParseError, match="empty.csv: no header row$"):
        load_precomputed(path)
    path.write_text("subject_id,label,f0\n")
    with pytest.raises(ParseError, match="empty.csv: no data rows$"):
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
    pixels = rng.normal(size=(9, 9))
    got = backend.extract(pixels[None])[0]
    # oracle: resize slice to the declared (1, 16) strip, then affine map
    strip = bilinear_resize(pixels, 1, 16)
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
    pixels = rng.normal(size=(7, 7))
    got = backend.extract(pixels[None])[0]

    image = bilinear_resize(pixels, side, side)
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
    pixels = rng.normal(size=(4, 4))
    got = OnnxBackend(path).extract(pixels[None])[0]
    np.testing.assert_allclose(got, bilinear_resize(pixels, 1, 16).ravel(), atol=1e-12)


@pytest.mark.parametrize("rank", [2, 4])
def test_onnx_stack_matches_per_slice_reference(tmp_path, rng, monkeypatch, rank):
    if rank == 2:
        path = ob.write_linear_model(tmp_path / "m.onnx", rng.normal(size=(16, 5)), np.ones(5))
        ob.write_sidecar(path, input_shape=[1, 16], mean=3.0, std=7.0)
    else:
        path, _, _ = ob.write_conv_style_model(tmp_path / "m.onnx", side=4, channels=3, out_dim=6)
        ob.write_sidecar(path, input_shape=[1, 3, 4, 4], mean=[0.0, 1.0, 2.0], std=[1.0, 2.0, 4.0])
    backend = OnnxBackend(path)
    volume = np.asfortranarray(stored_values(rng, np.uint8, (9, 11, 4)))
    stack = np.moveaxis(volume, 2, 0)
    calls = []
    run_model = minionnx.run_model
    monkeypatch.setattr(minionnx, "run_model", lambda *a: calls.append(a) or run_model(*a))
    got = backend.extract(stack)
    assert len(calls) == len(stack)  # one model run per slice
    want = np.stack([onnx_features_reference(backend, volume[:, :, i]) for i in range(4)])
    assert same_bytes(got, want)


# --- ONNX inputs that are damaged or malformed -------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=12,
)
SIDECAR_KEYS = st.sampled_from(["input_shape", "mean", "std", "output_dim"])


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sidecar=JSON_VALUES | st.dictionaries(SIDECAR_KEYS, JSON_VALUES))
def test_any_json_sidecar_loads_or_raises_a_pipeline_error(tmp_path, sidecar):
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(16)[:, :4], np.zeros(4))
    (tmp_path / "lin.onnx.json").write_text(json.dumps(sidecar))
    try:
        backend = OnnxBackend(path)
    except PipelineError:
        return
    features = backend.extract(np.arange(2 * 5 * 5, dtype=np.uint8).reshape(2, 5, 5))
    assert features.shape == (2, 4)


@pytest.mark.parametrize(
    "extra, message",
    [
        ({"stdev": 50.0}, "unknown key(s): ['stdev']"),
        ({"output_dim": 1.0}, "output_dim must be an integer, got 1.0"),
        ({"output_dim": True}, "output_dim must be an integer, got True"),
    ],
    ids=["unknown-key", "float-output-dim", "bool-output-dim"],
)
def test_sidecar_key_the_backend_does_not_read_is_a_model_load_error(tmp_path, extra, message):
    """A misspelt key, or an output_dim that only compares equal to the
    model's one feature, is rejected rather than ignored."""
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(4)[:, :1], np.zeros(1))
    ob.write_sidecar(path, input_shape=[1, 4], **extra)
    with pytest.raises(ModelLoadError) as excinfo:
        OnnxBackend(path)
    assert str(excinfo.value) == f"sidecar {path}.json: {message}"


def test_sidecar_that_is_not_an_object_is_a_model_load_error(tmp_path):
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(4), np.zeros(4))
    (tmp_path / "lin.onnx.json").write_text("[]")
    with pytest.raises(ModelLoadError, match="lin.onnx.json"):
        OnnxBackend(path)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "1e999"])
def test_sidecar_with_a_non_finite_number_is_a_model_load_error(tmp_path, number):
    path = ob.write_linear_model(tmp_path / "lin.onnx", np.eye(4), np.zeros(4))
    (tmp_path / "lin.onnx.json").write_text(f'{{"input_shape": [1, 4], "mean": {number}}}')
    with pytest.raises(ModelLoadError, match="lin.onnx.json: invalid JSON"):
        OnnxBackend(path)


@pytest.mark.parametrize("rank", [2, 4])
def test_every_truncated_model_loads_or_raises_a_pipeline_error(tmp_path, rank):
    if rank == 2:
        path = ob.write_linear_model(tmp_path / "m.onnx", np.eye(16)[:, :4], np.zeros(4))
        ob.write_sidecar(path, input_shape=[1, 16])
    else:
        path, _, _ = ob.write_conv_style_model(tmp_path / "m.onnx", side=4, channels=3, out_dim=6)
        ob.write_sidecar(path, input_shape=[1, 3, 4, 4])
    whole = path.read_bytes()
    loaded = 0
    for cut in range(len(whole)):
        path.write_bytes(whole[:cut])
        try:
            backend = OnnxBackend(path)
        except PipelineError:
            continue
        loaded += 1
        assert backend.extract(np.ones((1, 6, 6))).shape == (1, backend.output_dim)
    assert loaded < len(whole)


def test_node_reading_an_undefined_tensor_is_a_model_load_error(tmp_path):
    g = ob.graph(
        nodes=[ob.node("MatMul", ["x", "W"], ["y"])],
        initializers=[],
        inputs=[ob.value_info("x", [1, 3])],
        outputs=[ob.value_info("y", [1, 3])],
    )
    path = tmp_path / "no_w.onnx"
    path.write_bytes(ob.model(g))
    with pytest.raises(ModelLoadError, match="undefined tensor 'W'"):
        minionnx.load_model(path)


def test_graph_output_nothing_computes_is_a_model_load_error(tmp_path):
    g = ob.graph(
        nodes=[ob.node("Relu", ["x"], ["r"])],
        initializers=[],
        inputs=[ob.value_info("x", [1, 3])],
        outputs=[ob.value_info("y", [1, 3])],
    )
    path = tmp_path / "no_y.onnx"
    path.write_bytes(ob.model(g))
    with pytest.raises(ModelLoadError, match="'y'"):
        minionnx.load_model(path)


# (op, inputs, outputs) of a valid graph on a (1, 2, 4, 4) input that the
# wiring fuzz below mutates by renaming or dropping tensor names
_WIRED_NODES = [
    ("Flatten", ["x"], ["flat"]),
    ("Gemm", ["flat", "W", "b"], ["g"]),
    ("Relu", ["g"], ["r"]),
    ("Reshape", ["r", "shape"], ["rs"]),
    ("MatMul", ["rs", "V"], ["mm"]),
    ("Mul", ["mm", "s"], ["m"]),
    ("Sub", ["m", "c"], ["d"]),
    ("Add", ["d", "c"], ["a"]),
    ("Identity", ["a"], ["y"]),
]
_WIRED_NAMES = sorted(
    {"x", "W", "b", "shape", "V", "s", "c", "ghost", ""}
    | {name for _, ins, outs in _WIRED_NODES for name in ins + outs}
)


def _wired_model_bytes(nodes, init_names, input_name, output_name) -> bytes:
    rng = np.random.default_rng(3)
    initializers = [
        ob.tensor_f32(init_names["W"], [5, 32], rng.normal(size=160)),
        ob.tensor_f32(init_names["b"], [5], rng.normal(size=5)),
        ob.tensor_i64(init_names["shape"], [2], [0, -1]),
        ob.tensor_f32(init_names["V"], [5, 3], rng.normal(size=15)),
        ob.tensor_f32(init_names["s"], [1], [2.0]),
        ob.tensor_f32(init_names["c"], [3], [0.5, -1.0, 1.5]),
    ]
    encoded = [
        ob.node(op, ins, outs, attrs=[ob.attr_int("transB", 1)] if op == "Gemm" else [])
        for op, ins, outs in nodes
    ]
    g = ob.graph(
        nodes=encoded,
        initializers=initializers,
        inputs=[ob.value_info(input_name, [1, 2, 4, 4])],
        outputs=[ob.value_info(output_name, [1, 3])],
    )
    return ob.model(g)


_WIRING_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["node-input", "node-output", "initializer", "graph-input", "graph-output"]),
        st.integers(0, 100),
        st.integers(0, 3),
        st.one_of(st.none(), st.sampled_from(_WIRED_NAMES)),  # None drops the name
    ),
    min_size=1,
    max_size=3,
)


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=_WIRING_EDITS)
@example(edits=[("initializer", 3, 0, "ghost")])  # MatMul reads a V nothing defines
@example(edits=[("node-output", 8, 0, "mm")])  # graph output y is never computed
@example(edits=[("node-input", 4, 1, None)])  # MatMul with one input
@example(edits=[("node-input", 5, 1, "b")])  # Mul of (1, 3) and (5,)
def test_renamed_or_dropped_tensor_names_load_and_run_or_raise_a_pipeline_error(tmp_path, edits):
    nodes = [(op, list(ins), list(outs)) for op, ins, outs in _WIRED_NODES]
    init_names = {name: name for name in ("W", "b", "shape", "V", "s", "c")}
    names = {"graph-input": "x", "graph-output": "y"}
    for kind, which, position, new in edits:
        if kind in ("node-input", "node-output"):
            _, ins, outs = nodes[which % len(nodes)]
            listed = ins if kind == "node-input" else outs
            if listed:
                i = position % len(listed)
                if new is None:
                    del listed[i]
                else:
                    listed[i] = new
        elif kind == "initializer":
            key = sorted(init_names)[which % len(init_names)]
            init_names[key] = new or ""
        else:
            names[kind] = new or ""
    path = tmp_path / "wired.onnx"
    path.write_bytes(_wired_model_bytes(nodes, init_names, names["graph-input"], names["graph-output"]))
    ob.write_sidecar(path, input_shape=[1, 2, 4, 4])
    try:
        backend = OnnxBackend(path)
        features = backend.extract(np.arange(2 * 6 * 6, dtype=np.uint8).reshape(2, 6, 6))
    except PipelineError:
        return
    assert features.shape == (2, backend.output_dim)


def test_unmutated_wired_graph_runs(tmp_path):
    path = tmp_path / "wired.onnx"
    init_names = {name: name for name in ("W", "b", "shape", "V", "s", "c")}
    path.write_bytes(_wired_model_bytes(_WIRED_NODES, init_names, "x", "y"))
    ob.write_sidecar(path, input_shape=[1, 2, 4, 4])
    assert OnnxBackend(path).output_dim == 3

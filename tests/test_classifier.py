"""Softmax/MLP classifier: gradients, Adam training, composed prediction."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mridecomp.classifier import (
    TrainConfig,
    compose_predictions,
    compose_probabilities,
    forward,
    init_model,
    model_to_json,
    train,
    train_grid,
)
from mridecomp.decomposition import LabelCodec
from mridecomp.errors import ConfigError, DegenerateInput, ShapeMismatch

from oracles import (
    gradient_check,
    gradients,
    gradients_reference,
    model_from_json,
    same_bytes,
    train_reference,
)

CODEC_2x2 = LabelCodec(classes=("A", "B"), cluster_counts=(2, 2))
CODEC_3x2 = LabelCodec(classes=("AD", "CN", "MCI"), cluster_counts=(2, 2, 2))
CODEC_3x3 = LabelCodec(classes=("AD", "CN", "MCI"), cluster_counts=(3, 3, 3))


def blob_dataset(rng, codec, per=12, sep=12.0, dim=None):
    """One well-separated Gaussian blob per subclass (simplex placement)."""
    k = codec.n_sublabels
    dim = dim or k
    X, y = [], []
    for sid in range(k):
        center = np.zeros(dim)
        center[sid % dim] = sep * (1 + sid // dim)
        X.append(center + rng.normal(size=(per, dim)))
        y += [sid] * per
    return np.vstack(X), np.asarray(y, dtype=np.int64)


def zeroed(model):
    for param in model.params.values():
        param[...] = 0.0
    return model


def widened(model, std):
    """model with init_model's N(0, 0.01) weights rescaled to N(0, std)."""
    for param in model.params.values():
        param *= std / 0.01
    return model


# --- config validation ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"epochs": 0},
        {"batch_size": 0},
        {"hidden_dim": -1},
        {"beta1": 1.0},
        {"beta2": -0.1},
        {"eps": 0.0},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        TrainConfig(**kwargs)


def test_train_config_defaults_valid():
    cfg = TrainConfig()
    assert cfg.learning_rate == 0.01
    assert cfg.epochs == 200
    assert cfg.batch_size == 64
    assert cfg.hidden_dim == 0


# --- forward pass ----------------------------------------------------------------


def test_probabilities_sum_to_one(rng):
    model = init_model(5, CODEC_3x2, seed=1)
    X = rng.normal(size=(40, 5))
    P = forward(model, X)
    assert P.shape == (40, 6)
    assert np.all(P >= 0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_uniform_probabilities_at_zero_weights(rng):
    model = zeroed(init_model(4, CODEC_3x2, seed=0))
    p = forward(model, rng.normal(size=(1, 4)))
    np.testing.assert_allclose(p, np.full((1, 6), 1 / 6), atol=1e-15)


def test_forward_rejects_bad_shapes(rng):
    model = init_model(4, CODEC_2x2, seed=0)
    with pytest.raises(ShapeMismatch, match=r"^expected \(n, 4\) inputs, got \(3, 5\)$"):
        forward(model, rng.normal(size=(3, 5)))
    with pytest.raises(ShapeMismatch, match=r"^expected \(n, 4\) inputs, got \(4,\)$"):
        forward(model, rng.normal(size=4))


def test_hidden_model_parameter_shapes():
    model = init_model(7, CODEC_2x2, hidden_dim=16, seed=0)
    assert list(model.param_shapes()) == ["W1", "b1", "W2", "b2"]
    assert model.params["W1"].shape == (7, 16)
    assert model.params["b1"].shape == (16,)
    assert model.params["W2"].shape == (16, 4)
    assert model.params["b2"].shape == (4,)


# --- gradients -------------------------------------------------------------------


def test_closed_form_gradient_at_zero_weights(rng):
    """At W=b=0 the softmax is uniform, so dW = X.T (P - Y) / n exactly."""
    model = zeroed(init_model(3, CODEC_2x2, seed=0))
    X = rng.normal(size=(10, 3))
    y = rng.integers(0, 4, size=10)
    Y = np.zeros((10, 4))
    Y[np.arange(10), y] = 1.0
    P = np.full((10, 4), 0.25)
    grads = gradients(model, X, y)
    np.testing.assert_allclose(grads["W"], X.T @ (P - Y) / 10, atol=1e-12)
    np.testing.assert_allclose(grads["b"], (P - Y).mean(axis=0), atol=1e-12)


def test_gradient_check_softmax_head(rng):
    model = widened(init_model(5, CODEC_3x2, seed=2), 0.5)
    X = rng.normal(size=(8, 5))
    y = rng.integers(0, 6, size=8)
    assert gradient_check(model, X, y) < 1e-4


def test_gradient_check_hidden_layer(rng):
    model = widened(init_model(5, CODEC_2x2, hidden_dim=8, seed=3), 0.5)
    X = rng.normal(size=(8, 5))
    y = rng.integers(0, 4, size=8)
    assert gradient_check(model, X, y) < 1e-4


def test_gradient_check_does_not_perturb_model(rng):
    model = init_model(4, CODEC_2x2, seed=4)
    before = {k: v.copy() for k, v in model.params.items()}
    gradient_check(model, rng.normal(size=(6, 4)), rng.integers(0, 4, size=6))
    for k in before:
        np.testing.assert_array_equal(model.params[k], before[k])


# --- training --------------------------------------------------------------------


def test_training_separates_blobs(rng):
    X, y = blob_dataset(rng, CODEC_3x2)
    result = train(X, y, CODEC_3x2, TrainConfig(epochs=200, seed=0))
    preds = forward(result.model, X).argmax(axis=1)
    assert (preds == y).mean() == 1.0
    assert result.final_loss < result.epoch_losses[0]
    assert len(result.epoch_losses) == 201


def test_training_hidden_layer_separates_blobs(rng):
    X, y = blob_dataset(rng, CODEC_2x2)
    cfg = TrainConfig(epochs=150, hidden_dim=16, seed=0)
    result = train(X, y, CODEC_2x2, cfg)
    preds = forward(result.model, X).argmax(axis=1)
    assert (preds == y).mean() == 1.0


def test_training_bit_reproducible(rng):
    X, y = blob_dataset(rng, CODEC_2x2)
    cfg = TrainConfig(epochs=30, seed=9)
    a = train(X, y, CODEC_2x2, cfg)
    b = train(X, y, CODEC_2x2, cfg)
    assert a.epoch_losses == b.epoch_losses
    for name in a.model.param_shapes():
        np.testing.assert_array_equal(a.model.params[name], b.model.params[name])


def test_missing_subclass_rejected(rng):
    X = rng.normal(size=(6, 3))
    y = np.array([0, 0, 1, 1, 2, 2])  # id 3 never appears
    with pytest.raises(DegenerateInput, match="^subclass B_2 has no training samples$"):
        train(X, y, CODEC_2x2, TrainConfig(epochs=1))


def test_train_rejects_mismatched_rows(rng):
    X = rng.normal(size=(6, 3))
    y = np.array([0, 1, 2, 3])
    with pytest.raises(ShapeMismatch, match="^feature matrix has 6 rows but 4 labels$"):
        train(X, y, CODEC_2x2, TrainConfig(epochs=1))


# --- bit identity with the per-parameter Adam loop ---------------------------------


@st.composite
def batch_layouts(draw):
    """(n, batch_size): a ragged last batch, one batch holding every row, or
    one row per batch."""
    kind = draw(st.sampled_from(["ragged", "whole", "single"]))
    if kind == "ragged":
        batch_size = draw(st.integers(2, 12))
        n = batch_size * draw(st.integers(2, 4)) + draw(st.integers(1, batch_size - 1))
    elif kind == "whole":
        n = draw(st.integers(4, 30))
        batch_size = n + draw(st.integers(0, 8))
    else:
        n, batch_size = draw(st.integers(4, 20)), 1
    return n, batch_size


@settings(deadline=None, max_examples=60)
@given(
    # 9 subclasses, as onnx_elbow_mlp trains: numpy sums a row of 9 or more
    # values in pairwise blocks of 8 accumulators, which 4 subclasses never reach
    codec=st.sampled_from([CODEC_2x2, CODEC_3x3]),
    layout=batch_layouts(),
    hidden_dim=st.sampled_from([0, 1, 5, 32]),
    dim=st.integers(1, 4),
    epochs=st.integers(1, 4),
    learning_rates=st.lists(
        st.sampled_from([0.3, 0.01, 0.001]), min_size=1, max_size=3, unique=True
    ),
    cell_seeds=st.lists(st.integers(0, 999), min_size=3, max_size=3, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_train_matches_per_parameter_loop_bit_for_bit(
    codec, layout, hidden_dim, dim, epochs, learning_rates, cell_seeds, seed
):
    n, batch_size = layout
    assume(n >= codec.n_sublabels)  # every subclass needs a training row
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=3.0, size=(n, dim))
    y = rng.permutation(np.arange(n) % codec.n_sublabels)
    cfgs = [
        TrainConfig(
            learning_rate=lr,
            epochs=epochs,
            batch_size=batch_size,
            hidden_dim=hidden_dim,
            seed=cell_seed,
        )
        for lr, cell_seed in zip(learning_rates, cell_seeds)
    ]
    grid = train_grid(X, y, codec, cfgs)
    assert len(grid) == len(cfgs)
    for got, cfg in zip(grid, cfgs):
        want = train_reference(X, y, codec, cfg)
        assert same_bytes(got.epoch_losses, want.epoch_losses), cfg
        assert list(got.model.params) == list(want.model.params)
        for name, param in want.model.params.items():
            assert same_bytes(got.model.params[name], param), (cfg, name)


def test_grid_cells_stay_isolated(rng):
    # the second cell's weights overflow in its first epoch; the first cell
    # trains as it would alone
    X, y = blob_dataset(rng, CODEC_2x2)
    cells = [TrainConfig(learning_rate=lr, epochs=5, seed=i) for i, lr in enumerate((0.01, 1e308))]
    with np.errstate(all="ignore"):
        grid = train_grid(X, y, CODEC_2x2, cells)
    solo = train(X, y, CODEC_2x2, cells[0])
    assert same_bytes(grid[0].epoch_losses, solo.epoch_losses)
    for name, param in solo.model.params.items():
        assert same_bytes(grid[0].model.params[name], param), name
    assert not np.isfinite(grid[1].epoch_losses[1])


def test_grid_cells_must_share_settings(rng):
    X, y = blob_dataset(rng, CODEC_2x2)
    with pytest.raises(ConfigError, match="differ only in learning_rate and seed"):
        train_grid(X, y, CODEC_2x2, [TrainConfig(epochs=1), TrainConfig(epochs=2, seed=1)])
    with pytest.raises(ConfigError, match="at least one cell"):
        train_grid(X, y, CODEC_2x2, [])


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(1, 12),
    hidden_dim=st.sampled_from([0, 3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradients_match_reference_bit_for_bit(n, hidden_dim, seed):
    rng = np.random.default_rng(seed)
    model = widened(init_model(3, CODEC_3x2, hidden_dim=hidden_dim, seed=seed % 1000), 0.7)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, CODEC_3x2.n_sublabels, size=n)
    got, want = gradients(model, X, y), gradients_reference(model, X, y)
    assert list(got) == list(model.param_shapes())
    for name in want:
        assert same_bytes(got[name], want[name]), name


# --- composition -----------------------------------------------------------------


def probability_model(codec, probs):
    """Zero-weight model whose bias makes softmax output exactly `probs`."""
    model = zeroed(init_model(1, codec, seed=0))
    bias = model.params["b"]
    bias[...] = np.log(np.asarray(probs))
    return model


def composed_class(model, mode):
    """The class the model predicts for one zero input, composed under mode."""
    probs = forward(model, np.zeros((1, model.input_dim)))
    return model.codec.classes[int(compose_predictions(model.codec, probs, mode)[0])]


def test_compose_modes_can_disagree():
    # AD_1 .3, AD_2 .1, CN_1 .05, CN_2 .05, MCI_1 .25, MCI_2 .25
    probs = [0.3, 0.1, 0.05, 0.05, 0.25, 0.25]
    model = probability_model(CODEC_3x2, probs)
    np.testing.assert_allclose(forward(model, np.zeros((1, 1))), [probs], atol=1e-12)
    assert composed_class(model, "argmax-strip") == "AD"
    assert composed_class(model, "prob-sum") == "MCI"
    summed = compose_probabilities(CODEC_3x2, np.asarray([probs]))
    np.testing.assert_allclose(summed, [[0.4, 0.1, 0.5]], atol=1e-12)


def test_compose_modes_agree_when_concentrated():
    probs = [0.9, 0.02, 0.02, 0.02, 0.02, 0.02]
    model = probability_model(CODEC_3x2, probs)
    assert composed_class(model, "argmax-strip") == "AD"
    assert composed_class(model, "prob-sum") == "AD"


def test_unknown_compose_mode_rejected():
    model = probability_model(CODEC_2x2, [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ConfigError):
        composed_class(model, "vote")


# --- serialization ---------------------------------------------------------------


def test_model_json_round_trip(tmp_path, rng):
    X, y = blob_dataset(rng, CODEC_2x2)
    result = train(X, y, CODEC_2x2, TrainConfig(epochs=10, seed=0))
    path = tmp_path / "model.json"
    model_to_json(result.model, path)
    loaded = model_from_json(path)
    assert loaded.codec == result.model.codec
    for name in result.model.param_shapes():
        np.testing.assert_array_equal(loaded.params[name], result.model.params[name])
    np.testing.assert_array_equal(
        forward(loaded, X).argmax(axis=1), forward(result.model, X).argmax(axis=1)
    )


def test_model_json_rejects_wrong_params(tmp_path, rng):
    model = init_model(3, CODEC_2x2, hidden_dim=4, seed=0)
    path = tmp_path / "model.json"
    model_to_json(model, path)
    import json

    blob = json.loads(path.read_text())
    del blob["params"]["W2"]
    path.write_text(json.dumps(blob))
    with pytest.raises(ShapeMismatch, match="model.json: expected params "):
        model_from_json(path)

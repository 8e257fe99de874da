"""Standard scaler and PCA."""

import numpy as np
import pytest

from mridecomp.errors import DegenerateInput, ShapeMismatch
from mridecomp.features import FeatureMatrix
from mridecomp.reduction import (
    PcaModel,
    apply_standardize,
    fit_standardize,
    pca_fit,
    pca_transform,
)

from oracles import pca_inverse


def matrix(values, labels=None, subjects=None):
    values = np.asarray(values, dtype=np.float64)
    n = values.shape[0]
    return FeatureMatrix(
        values=values,
        labels=tuple(labels or ["CN"] * n),
        subject_ids=tuple(subjects or [f"s{i}" for i in range(n)]),
    )


# --- scaler ------------------------------------------------------------------


def test_standardize_hand_values():
    # column [1, 2, 3]: mean 2, population std sqrt(2/3); z = +-sqrt(3/2)
    X = matrix([[1.0], [2.0], [3.0]])
    params = fit_standardize(X)
    assert params.means[0] == pytest.approx(2.0, abs=1e-15)
    assert params.stds[0] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-15)
    Z = apply_standardize(X, params)
    expected = 1.2247448713915889  # sqrt(3/2)
    np.testing.assert_allclose(Z.values.ravel(), [-expected, 0.0, expected], atol=1e-12)


def test_standardize_output_has_zero_mean_unit_std(rng):
    X = matrix(rng.normal(5.0, 3.0, size=(40, 6)))
    Z = apply_standardize(X, fit_standardize(X))
    np.testing.assert_allclose(Z.values.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(Z.values.std(axis=0), 1.0, atol=1e-12)


def test_standardize_constant_column_maps_to_zero(rng):
    values = rng.normal(size=(10, 3))
    values[:, 1] = 7.5
    X = matrix(values)
    Z = apply_standardize(X, fit_standardize(X))
    assert (Z.values[:, 1] == 0.0).all()
    assert Z.values[:, 0].std() > 0


def test_standardize_transform_only_on_new_rows(rng):
    X = matrix(rng.normal(size=(20, 2)))
    params = fit_standardize(X)
    Y = matrix(rng.normal(10.0, 1.0, size=(5, 2)))
    Z = apply_standardize(Y, params)
    np.testing.assert_allclose(Z.values, (Y.values - params.means) / params.stds)


def test_standardize_column_count_mismatch(rng):
    params = fit_standardize(matrix(rng.normal(size=(5, 3))))
    with pytest.raises(ShapeMismatch):
        apply_standardize(matrix(rng.normal(size=(5, 2))), params)


# --- PCA ---------------------------------------------------------------------


def test_pca_components_orthonormal(rng):
    X = matrix(rng.normal(size=(30, 8)))
    model = pca_fit(X, variance_threshold=1.0)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(model.n_components), atol=1e-8)


def test_pca_rank_one_data(rng):
    direction = np.array([3.0, 4.0, 0.0]) / 5.0
    X = matrix(np.outer(rng.normal(size=20), direction))
    model = pca_fit(X, variance_threshold=0.95)
    assert model.n_components == 1
    assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)
    # component is the generating direction up to sign; sign rule makes the
    # largest-magnitude entry positive
    np.testing.assert_allclose(np.abs(model.components[0]), np.abs(direction), atol=1e-9)
    assert model.components[0][np.argmax(np.abs(model.components[0]))] > 0


def test_pca_full_reconstruction(rng):
    X = matrix(rng.normal(size=(25, 6)))
    model = pca_fit(X, variance_threshold=1.0)
    R = pca_transform(X, model)
    back = pca_inverse(R.values, model)
    assert np.abs(back - X.values).max() < 1e-6


def test_pca_hand_built_ratios():
    # centered points: x-column sum of squares 8, y-column 2 -> ratios .8/.2
    X = matrix([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    model = pca_fit(X, variance_threshold=1.0)
    np.testing.assert_allclose(model.explained_variance_ratio, [0.8, 0.2], atol=1e-12)
    assert pca_fit(X, variance_threshold=0.75).n_components == 1
    assert pca_fit(X, variance_threshold=0.85).n_components == 2
    # threshold exactly at the cumulative value keeps d=1 (within tolerance)
    assert pca_fit(X, variance_threshold=0.8).n_components == 1


def test_pca_rank_cap_at_n_minus_one(rng):
    X = matrix(rng.normal(size=(3, 10)))
    model = pca_fit(X, variance_threshold=1.0)
    assert model.n_components <= 2


def test_pca_eigenvalues_match_total_sample_variance(rng):
    X = matrix(rng.normal(size=(40, 5)))
    model = pca_fit(X, variance_threshold=1.0)
    total_var = X.values.var(axis=0, ddof=1).sum()
    assert model.explained_variance.sum() == pytest.approx(total_var, rel=1e-10)


def test_pca_reconstruction_error_non_increasing(rng):
    X = matrix(rng.normal(size=(30, 7)))
    full = pca_fit(X, variance_threshold=1.0)
    R = pca_transform(X, full).values
    errors = []
    for d in range(1, full.n_components + 1):
        truncated = R.copy()
        truncated[:, d:] = 0.0
        back = pca_inverse(truncated, full)
        errors.append(float(((back - X.values) ** 2).sum()))
    assert all(e1 >= e2 - 1e-9 for e1, e2 in zip(errors, errors[1:]))


def test_pca_transform_reduces_dimension(rng):
    base = rng.normal(size=(50, 2))
    lift = rng.normal(size=(2, 12))
    X = matrix(base @ lift + 0.001 * rng.normal(size=(50, 12)))
    model = pca_fit(X, variance_threshold=0.95)
    assert model.n_components <= 3
    R = pca_transform(X, model)
    assert R.values.shape == (50, model.n_components)
    assert R.labels == X.labels


def test_pca_degenerate_inputs(rng):
    with pytest.raises(DegenerateInput):
        pca_fit(matrix(rng.normal(size=(1, 4))))
    with pytest.raises(DegenerateInput):
        pca_fit(matrix(np.full((5, 3), 2.0)))  # zero variance
    with pytest.raises(ValueError):
        pca_fit(matrix(rng.normal(size=(5, 3))), variance_threshold=0.0)


def test_pca_transform_shape_mismatch(rng):
    model = pca_fit(matrix(rng.normal(size=(10, 4))))
    with pytest.raises(ShapeMismatch):
        pca_transform(matrix(rng.normal(size=(3, 5))), model)


def test_pca_deterministic(rng):
    values = rng.normal(size=(20, 5))
    m1 = pca_fit(matrix(values), 0.9)
    m2 = pca_fit(matrix(values.copy()), 0.9)
    np.testing.assert_array_equal(m1.components, m2.components)
    np.testing.assert_array_equal(m1.explained_variance_ratio, m2.explained_variance_ratio)

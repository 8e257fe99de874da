"""k-means clustering and elbow selection."""

import numpy as np
import pytest

from mridecomp.cluster import elbow_select_k, kmeans, kmeans_restarts
from mridecomp.errors import EmptyInput, InvalidK, RangeTooShort

from oracles import brute_force_wcss


def wcss_of(X, assignments, centroids):
    return float(((X - centroids[assignments]) ** 2).sum())


def test_two_group_hand_example():
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    result = kmeans(X, 2, seed=0)
    cents = sorted(result.centroids.ravel().tolist())
    np.testing.assert_allclose(cents, [0.05, 10.05], atol=1e-12)
    assert result.wcss == pytest.approx(0.01, abs=1e-12)
    assert result.converged


def test_k_equals_one_gives_global_mean(rng):
    X = rng.normal(size=(12, 3))
    result = kmeans(X, 1, seed=3)
    np.testing.assert_allclose(result.centroids[0], X.mean(axis=0), atol=1e-12)
    assert result.wcss == pytest.approx(((X - X.mean(axis=0)) ** 2).sum())


def test_k_equals_n_gives_zero_wcss(rng):
    X = rng.normal(size=(6, 2))
    result = kmeans(X, 6, seed=1)
    assert result.wcss == pytest.approx(0.0, abs=1e-18)
    assert sorted(result.assignments.tolist()) == list(range(6))


def test_deterministic_given_seed(rng):
    X = rng.normal(size=(30, 4))
    a = kmeans(X, 3, seed=42)
    b = kmeans(X, 3, seed=42)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.wcss == b.wcss


def test_reported_wcss_matches_final_state(rng):
    X = rng.normal(size=(25, 3))
    result = kmeans(X, 4, seed=9)
    assert result.wcss == pytest.approx(
        wcss_of(X, result.assignments, result.centroids), abs=1e-12
    )


def test_every_cluster_non_empty_with_duplicates():
    X = np.array([[0.0], [0.0], [0.0], [10.0]])
    result = kmeans(X, 3, seed=0)
    assert set(result.assignments.tolist()) == {0, 1, 2}
    assert result.wcss == pytest.approx(
        wcss_of(X, result.assignments, result.centroids), abs=1e-12
    )


def test_invalid_inputs(rng):
    X = rng.normal(size=(5, 2))
    with pytest.raises(InvalidK):
        kmeans(X, 0)
    with pytest.raises(InvalidK):
        kmeans(X, 6)
    with pytest.raises(EmptyInput):
        kmeans(np.empty((0, 2)), 1)
    with pytest.raises(EmptyInput):
        kmeans(np.zeros(5), 1)
    with pytest.raises(InvalidK):
        kmeans_restarts(X, 2, n_init=0)


def test_restarts_never_worse_than_single_run(rng):
    X = rng.normal(size=(20, 2))
    single = kmeans(X, 3, seed=0)
    best = kmeans_restarts(X, 3, seed=0, n_init=10)
    assert best.wcss <= single.wcss + 1e-12


def test_matches_brute_force_on_small_instances():
    rng = np.random.default_rng(99)
    for trial in range(10):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, 4))
        k = int(rng.integers(2, min(4, n + 1)))
        X = rng.normal(size=(n, m))
        got = kmeans_restarts(X, k, seed=trial, n_init=10).wcss
        want = brute_force_wcss(X, k)
        assert got == pytest.approx(want, abs=1e-9)


# --- elbow -------------------------------------------------------------------


def blobs(rng, g, per=20, sep=10.0, sigma=1.0):
    """Gaussian blobs at the vertices of a regular simplex (scaled basis
    vectors), so all center pairs sit at the same separation; the elbow's
    curvature peak then lands at g. Collinear equally-spaced centers would
    legitimately peak at k=2 instead."""
    centers = (sep / np.sqrt(2.0)) * np.eye(g)
    parts = [c + sigma * rng.normal(size=(per, g)) for c in centers]
    return np.vstack(parts)


def test_elbow_two_tight_groups(rng):
    X = blobs(rng, 2, per=15, sep=50.0, sigma=0.5)
    result = elbow_select_k(X, 1, 5, seed=0)
    assert result.k == 2
    assert set(result.scores) == {2, 3, 4}
    assert set(result.wcss_curve) == {1, 2, 3, 4, 5}


def test_elbow_recovers_three_groups(rng):
    X = blobs(rng, 3, per=15, sep=40.0, sigma=0.5)
    assert elbow_select_k(X, 1, 6, seed=1).k == 3


def test_elbow_recovers_four_groups(rng):
    X = blobs(rng, 4, per=15, sep=30.0, sigma=0.5)
    assert elbow_select_k(X, 1, 6, seed=2).k == 4


def test_elbow_wcss_curve_non_increasing(rng):
    X = blobs(rng, 3, per=10, sep=10.0, sigma=1.0)
    curve = elbow_select_k(X, 1, 6, seed=2).wcss_curve
    values = [curve[k] for k in sorted(curve)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_elbow_range_validation(rng):
    X = rng.normal(size=(10, 2))
    with pytest.raises(RangeTooShort):
        elbow_select_k(X, 2, 3)
    with pytest.raises(InvalidK):
        elbow_select_k(X, 1, 11)  # k_max beyond n
    with pytest.raises(InvalidK):
        elbow_select_k(X, 0, 4)


def test_elbow_deterministic(rng):
    X = blobs(rng, 2, per=10, sep=8.0)
    a = elbow_select_k(X, 1, 5, seed=7)
    b = elbow_select_k(X, 1, 5, seed=7)
    assert a.k == b.k
    assert a.wcss_curve == b.wcss_curve

"""k-means clustering and elbow selection."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mridecomp import cluster
from mridecomp.cluster import elbow_select_k, kmeans_restarts
from mridecomp.errors import ConfigError, EmptyInput, InvalidK, ShapeMismatch

from oracles import brute_force_wcss, kmeans_reference, kmeans_restarts_reference, same_bytes


def wcss_of(X, assignments, centroids):
    return float(((X - centroids[assignments]) ** 2).sum())


def test_two_group_hand_example():
    X = np.array([[0.0], [0.1], [10.0], [10.1]])
    result = kmeans_restarts(X, 2, seed=0, n_init=1)
    cents = sorted(result.centroids.ravel().tolist())
    np.testing.assert_allclose(cents, [0.05, 10.05], atol=1e-12)
    assert result.wcss == pytest.approx(0.01, abs=1e-12)
    assert result.converged


def test_k_equals_one_gives_global_mean(rng):
    X = rng.normal(size=(12, 3))
    result = kmeans_restarts(X, 1, seed=3, n_init=1)
    np.testing.assert_allclose(result.centroids[0], X.mean(axis=0), atol=1e-12)
    assert result.wcss == pytest.approx(((X - X.mean(axis=0)) ** 2).sum())


def test_k_equals_n_gives_zero_wcss(rng):
    X = rng.normal(size=(6, 2))
    result = kmeans_restarts(X, 6, seed=1, n_init=1)
    assert result.wcss == pytest.approx(0.0, abs=1e-18)
    assert sorted(result.assignments.tolist()) == list(range(6))


def test_deterministic_given_seed(rng):
    X = rng.normal(size=(30, 4))
    a = kmeans_restarts(X, 3, seed=42, n_init=1)
    b = kmeans_restarts(X, 3, seed=42, n_init=1)
    np.testing.assert_array_equal(a.assignments, b.assignments)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.wcss == b.wcss


def test_reported_wcss_matches_final_state(rng):
    X = rng.normal(size=(25, 3))
    result = kmeans_restarts(X, 4, seed=9, n_init=1)
    assert result.wcss == pytest.approx(
        wcss_of(X, result.assignments, result.centroids), abs=1e-12
    )


def test_every_cluster_non_empty_with_duplicates():
    X = np.array([[0.0], [0.0], [0.0], [10.0]])
    result = kmeans_restarts(X, 3, seed=0, n_init=1)
    assert set(result.assignments.tolist()) == {0, 1, 2}
    assert result.wcss == pytest.approx(
        wcss_of(X, result.assignments, result.centroids), abs=1e-12
    )


def test_invalid_inputs(rng):
    X = rng.normal(size=(5, 2))
    with pytest.raises(InvalidK, match=r"^k must be in \[1, 5\], got 0$"):
        kmeans_restarts(X, 0, n_init=1)
    with pytest.raises(InvalidK, match=r"^k must be in \[1, 5\], got 6$"):
        kmeans_restarts(X, 6, n_init=1)
    with pytest.raises(EmptyInput, match="^cannot cluster an empty matrix$"):
        kmeans_restarts(np.empty((0, 2)), 1, n_init=1)
    with pytest.raises(ShapeMismatch, match="^expected a 2-D matrix, got ndim=1$"):
        kmeans_restarts(np.zeros(5), 1, n_init=1)
    with pytest.raises(InvalidK, match="^n_init must be >= 1, got 0$"):
        kmeans_restarts(X, 2, n_init=0)


def test_restarts_never_worse_than_single_run(rng):
    X = rng.normal(size=(20, 2))
    single = kmeans_restarts(X, 3, seed=0, n_init=1)
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


@st.composite
def clusterings(draw):
    """(X, k, seed): rows drawn from a few distinct ones, so duplicates are
    common; half the time rounded to integers with random signs, so +0.0 and
    -0.0 both occur; and k up to n, so empty clusters must be repaired."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 5))
    distinct = rng.normal(size=(draw(st.integers(1, n)), m))
    if draw(st.booleans()):
        distinct = np.round(distinct) * rng.choice([-1.0, 1.0], size=distinct.shape)
    X = distinct[rng.integers(len(distinct), size=n)]
    k = draw(st.one_of(st.integers(1, n), st.integers(max(1, n - 2), n)))
    return X, k, seed


def same_fit(got, want) -> bool:
    return (
        same_bytes(got.centroids, want.centroids)
        and same_bytes(got.assignments, want.assignments)
        and same_bytes(got.wcss, want.wcss)
        and (got.n_iter, got.converged) == (want.n_iter, want.converged)
    )


@settings(deadline=None, max_examples=150)
@given(
    case=clusterings(),
    n_init=st.integers(1, 6),
    group=st.integers(1, 3),
    max_iter=st.sampled_from([cluster.MAX_ITER, 1]),
)
# one feature, where numpy's axis-0 sum of a cluster is pairwise
@example(
    case=(np.random.default_rng(0).normal(size=(20, 1)), 1, 0), n_init=2, group=1, max_iter=300
)
# a column of -0.0, whose sum is +0.0
@example(
    case=(np.array([[-0.0, 1.0], [-0.0, 2.0], [-0.0, 4.0]]), 1, 0), n_init=1, group=1, max_iter=300
)
def test_kmeans_matches_masked_mean_reference_bit_for_bit(case, n_init, group, max_iter):
    """Every restart of kmeans_restarts, alone or among others, is kmeans_reference
    with that restart's seed, bit for bit, whether the restarts run in one
    group or in groups of at most `group`; the best is the first with the
    smallest wcss. With MAX_ITER = 1 restarts stop unconverged."""
    X, k, seed = case
    n, m = X.shape
    children = np.random.SeedSequence(seed).spawn(n_init)
    groups = []
    lockstep = cluster._lockstep

    def recorded(X, k, seeds):
        groups.append(lockstep(X, k, seeds))
        return groups[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "MAX_ITER", max_iter)
        want = [kmeans_reference(X, k, child) for child in children]
        want_best = kmeans_restarts_reference(X, k, seed=seed, n_init=n_init)
        assert same_fit(kmeans_restarts(X, k, seed=seed, n_init=1), want[0])
        mp.setattr(cluster, "_lockstep", recorded)
        best = kmeans_restarts(X, k, seed=seed, n_init=n_init)
        assert [len(fits) for fits in groups] == [n_init]
        mp.setattr(cluster, "_GROUP_BYTES", n * k * m * X.itemsize * group)
        grouped = kmeans_restarts(X, k, seed=seed, n_init=n_init)
    sizes = [len(fits) for fits in groups[1:]]
    assert sizes == [min(group, n_init - start) for start in range(0, n_init, group)]
    for fits in (groups[0], [fit for fits in groups[1:] for fit in fits]):
        assert all(same_fit(got, ref) for got, ref in zip(fits, want))
    assert same_fit(best, want_best)
    assert same_fit(grouped, best)


@settings(deadline=None, max_examples=300)
@given(
    n=st.integers(1, 60),
    zeros=st.floats(0.0, 0.9),
    scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_plus_plus_draw_matches_generator_choice(n, zeros, scale, seed):
    """k-means++ draws the index Generator.choice draws from the same stream,
    and leaves the stream where choice leaves it."""
    rng = np.random.default_rng(seed)
    weights = rng.random(n) ** rng.integers(1, 6) * scale
    weights[rng.random(n) < zeros] = 0.0
    total = float(np.add.reduce(weights))
    mine, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    for _ in range(3):
        if total > 0.0:
            want = int(theirs.choice(n, p=weights / total))
        else:
            want = int(theirs.integers(n))
        assert cluster._draw(mine, weights, total) == want
    assert mine.random() == theirs.random()


def test_plus_plus_draw_refuses_weights_that_overflow():
    weights = np.array([1.7e308, 1.7e308])
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(weights))
    with pytest.raises(ValueError):
        np.random.default_rng(0).choice(2, p=weights / total)
    with pytest.raises(ValueError, match="not finite"):
        cluster._draw(np.random.default_rng(0), weights, total)


def test_elbow_two_tight_groups(rng):
    X = blobs(rng, 2, per=15, sep=50.0, sigma=0.5)
    result = elbow_select_k(X, 1, 5, seed=0)
    assert result.k == 2
    assert set(result.scores) == {2, 3, 4}
    curve = {k: f.wcss for k, f in result.fits.items()}
    assert set(curve) == {1, 2, 3, 4, 5}


def test_elbow_recovers_three_groups(rng):
    X = blobs(rng, 3, per=15, sep=40.0, sigma=0.5)
    assert elbow_select_k(X, 1, 6, seed=1).k == 3


def test_elbow_recovers_four_groups(rng):
    X = blobs(rng, 4, per=15, sep=30.0, sigma=0.5)
    assert elbow_select_k(X, 1, 6, seed=2).k == 4


def test_elbow_wcss_curve_non_increasing(rng):
    X = blobs(rng, 3, per=10, sep=10.0, sigma=1.0)
    result = elbow_select_k(X, 1, 6, seed=2)
    curve = {k: f.wcss for k, f in result.fits.items()}
    values = [curve[k] for k in sorted(curve)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_elbow_range_validation(rng):
    X = rng.normal(size=(10, 2))
    with pytest.raises(ConfigError, match=r"^elbow needs at least 3 candidate k values, got \[2, 3\]$"):
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
    assert {k: f.wcss for k, f in a.fits.items()} == {k: f.wcss for k, f in b.fits.items()}

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import termforge.clustering
from termforge.clustering import (
    Clustering,
    Geometry,
    KmeansConfig,
    distinct_row_count,
    kmeans,
    pairwise_cosine_dissimilarity,
)
from termforge.experiment import PipelineConfig, SweepConfig, build_representations
from termforge.matrices import NP_VPC, NP_VPC_NMF, NP_VPC_TFIDF
from util import (make_rep, naive_dissimilarity, oracle_kmeans, spherical_objective,
                  traced_peak)

# ----------------------------------------------------------- Clustering


def test_clustering_validates_cluster_ids():
    with pytest.raises(ValueError, match=r"cluster ids \[0, 2\] are not 0..1"):
        Clustering(labels=("a", "b"), ids=(0, 2), algorithm="x")


def test_clustering_validates_label_match():
    with pytest.raises(ValueError, match="3 cluster ids for 2 labels"):
        Clustering(labels=("a", "b"), ids=(0, 1, 1), algorithm="x")
    with pytest.raises(ValueError, match="1 cluster ids for 2 labels"):
        Clustering(labels=("a", "b"), ids=(0,), algorithm="x")


def test_clustering_rejects_repeated_labels():
    # the assignment dict would keep one id per key, so a repeated label
    # would count twice in members() and ids but once in the assignment
    with pytest.raises(ValueError, match=r"repeated labels \['alpha'\]"):
        Clustering(labels=("alpha", "alpha", "beta"), ids=(0, 0, 1), algorithm="x")


def test_cluster_ids_and_members():
    c = Clustering(labels=("a", "b", "c"), ids=(1, 0, 1), algorithm="x")
    assert c.ids == (1, 0, 1)
    assert c.n_clusters == 2
    assert c.assignment == {"a": 1, "b": 0, "c": 1}
    assert c.members() == {0: ("b",), 1: ("a", "c")}


# ------------------------------------------------------------- geometry


def test_cosine_dissimilarity_basics():
    # the same direction, orthogonal and opposite
    d = pairwise_cosine_dissimilarity(Geometry(make_rep(
        [[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [-1.0, 0.0]])))
    assert d[0, 1] == 0.0
    assert d[0, 2] == 1.0
    assert d[0, 3] == 2.0


def test_cosine_dissimilarity_zero_vector_error():
    with pytest.raises(ValueError, match=r"all-zero rows at indices \[0\]"):
        Geometry(make_rep([[0.0, 0.0], [1.0, 0.0]]))


def test_pairwise_symmetric_zero_diagonal():
    rng = np.random.default_rng(0)
    m = rng.random((6, 3)) + 0.1
    d = pairwise_cosine_dissimilarity(Geometry(make_rep(m)))
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0) and np.all(d <= 2.0)
    assert d[1, 4] == pytest.approx(naive_dissimilarity(m[1], m[4]), abs=1e-12)


def test_pairwise_rejects_zero_rows():
    with pytest.raises(ValueError, match="all-zero rows at indices \\[1\\]"):
        Geometry(make_rep(np.array([[1.0, 0.0], [0.0, 0.0]])))


def test_non_finite_rows_rejected():
    m = np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, 1.0], [np.inf, 0.0]])
    with pytest.raises(ValueError, match=r"non-finite rows at indices \[1, 3\]"):
        Geometry(make_rep(m))


def test_distinct_row_count_collapses_same_direction():
    m = np.array([[3.0, 4.0], [6.0, 8.0], [0.0, 1.0]])
    assert distinct_row_count(Geometry(make_rep(m))) == 2
    assert distinct_row_count(Geometry(make_rep(np.eye(4)))) == 4
    assert distinct_row_count(Geometry(make_rep([[1.0, 0.0], [1.0, -0.0]]))) == 1


# -------------------------------------------------------------- k-means


def orthogonal_pairs_rep():
    # two exact duplicates along each axis; the only sensible 2-clustering
    m = np.array([[1.0, 0.0, 0.0],
                  [2.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0],
                  [0.0, 3.0, 0.0]])
    return make_rep(m, keys=("x1", "x2", "y1", "y2"))


def test_kmeans_separates_orthogonal_duplicate_pairs():
    result = kmeans(Geometry(orthogonal_pairs_rep()), KmeansConfig(k=2, seed=0, rel_tol=0.0))
    assert result.algorithm == "kmeans"
    assert result.n_clusters == 2
    assert result.assignment["x1"] == result.assignment["x2"]
    assert result.assignment["y1"] == result.assignment["y2"]
    assert result.assignment["x1"] != result.assignment["y1"]
    assert result.objective == pytest.approx(0.0, abs=1e-12)
    assert result.converged


def test_kmeans_objective_matches_recomputation():
    rng = np.random.default_rng(3)
    rep = make_rep(rng.random((12, 4)) + 0.05)
    result = kmeans(Geometry(rep), KmeansConfig(k=3, seed=5))
    assert result.objective == pytest.approx(
        spherical_objective(rep.matrix, list(result.ids), 3), abs=1e-9)


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    rep = make_rep(rng.random((15, 3)) + 0.05)
    a = kmeans(Geometry(rep), KmeansConfig(k=4, seed=9))
    b = kmeans(Geometry(rep), KmeansConfig(k=4, seed=9))
    assert a.assignment == b.assignment
    assert a.objective == b.objective
    assert a.objective_history == b.objective_history


def test_kmeans_seed_changes_init():
    rng = np.random.default_rng(5)
    rep = make_rep(rng.random((20, 3)) + 0.05)
    histories = {kmeans(Geometry(rep), KmeansConfig(k=3, seed=s)).objective_history[0]
                 for s in range(6)}
    assert len(histories) > 1


def test_kmeans_k_must_not_exceed_distinct_rows():
    rep = make_rep([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="k=3 exceeds the 2 distinct rows"):
        kmeans(Geometry(rep), KmeansConfig(k=3))


def test_kmeans_converges_at_an_exact_fit_on_the_mini_counts(mini_corpus, tmp_path):
    # k = distinct rows puts every point on its centroid; rounding must not
    # leave a negative objective that the relative stop test never accepts
    config = PipelineConfig(sweep=SweepConfig(representations=(NP_VPC,)))
    geometry = Geometry(build_representations(mini_corpus, config, tmp_path)[NP_VPC])
    result = kmeans(geometry, KmeansConfig(k=geometry.distinct))
    assert result.converged
    assert len(result.objective_history) < KmeansConfig.max_iter
    assert min(result.objective_history) >= 0.0


def test_kmeans_rejects_zero_rows():
    rep = make_rep(np.eye(3))
    bad = make_rep(np.array([[1.0, 0.0], [0.0, 0.0]]))
    kmeans(Geometry(rep), KmeansConfig(k=2))  # sanity: clean input works
    with pytest.raises(ValueError, match="all-zero rows"):
        Geometry(bad)


def test_kmeans_config_validation():
    with pytest.raises(ValueError, match="k must be >= 2"):
        KmeansConfig(k=1)
    with pytest.raises(ValueError):
        KmeansConfig(k=2, max_iter=0)
    for rel_tol in (-0.1, math.nan):
        with pytest.raises(ValueError, match="rel_tol"):
            KmeansConfig(k=2, rel_tol=rel_tol)


def test_kmeans_scale_invariant_for_exact_scalings():
    rng = np.random.default_rng(8)
    m = rng.random((10, 3)) + 0.1
    scaled = m.copy()
    scaled[4] *= 4.0  # power of two keeps normalization bitwise identical
    a = kmeans(Geometry(make_rep(m)), KmeansConfig(k=3, seed=2))
    b = kmeans(Geometry(make_rep(scaled)), KmeansConfig(k=3, seed=2))
    assert a.assignment == b.assignment
    assert a.objective == b.objective


def test_kmeans_always_ends_on_fresh_assignment():
    # after convergence every point must sit with its nearest centroid
    rng = np.random.default_rng(11)
    rep = make_rep(rng.random((25, 4)) + 0.05)
    result = kmeans(Geometry(rep), KmeansConfig(k=4, seed=1, rel_tol=0.0))
    normalized = rep.matrix / np.linalg.norm(rep.matrix, axis=1, keepdims=True)
    dissim = 1.0 - normalized @ result.centroids.T
    ids = np.array(result.ids)
    nearest = dissim.min(axis=1)
    chosen = dissim[np.arange(len(ids)), ids]
    assert np.all(chosen <= nearest + 1e-12)


points_strategy = st.integers(0, 10_000).flatmap(
    lambda seed: st.tuples(st.just(seed), st.integers(5, 12), st.integers(2, 4)))


@given(points_strategy)
def test_kmeans_invariants_on_random_instances(params):
    seed, n, k = params
    rng = np.random.default_rng(seed)
    m = rng.random((n, 3)) + 0.05
    geometry = Geometry(make_rep(m))
    assume(geometry.distinct >= k)
    result = kmeans(geometry, KmeansConfig(k=k, seed=seed))
    # every cluster non-empty, ids exactly 0..k-1
    assert set(result.ids) == set(range(k))
    # objective history never increases (up to float noise)
    history = result.objective_history
    assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
    assert result.objective == history[-1]


def test_kmeans_keeps_no_n_by_d_copy():
    # six balanced groups, each with its own 50 columns: one cluster's member
    # rows are a sixth of the matrix, and nothing else is n x d
    rng = np.random.default_rng(0)
    m = rng.random((400, 300)) * 0.1
    for i in range(400):
        m[i, 50 * (i % 6):50 * (i % 6) + 50] += 1.0
    geometry = Geometry(make_rep(m))
    assert geometry.distinct == 400
    results = []
    peak = traced_peak(lambda: results.append(kmeans(geometry, KmeansConfig(k=6, seed=0))))
    assert np.bincount(results[0].ids).tolist() == [66, 67, 67, 67, 67, 66]
    assert peak < 0.9 * m.nbytes


# -------------------------------------------------------------- oracle


def kmeans_oracle_cases():
    """Random count-like instances with exact duplicate rows and rows scaled
    by factors that are not powers of two, at every k the distinct count
    allows."""
    rng = np.random.default_rng(21)
    for case in range(30):
        n, d = int(rng.integers(6, 40)), int(rng.integers(2, 9))
        m = rng.integers(0, 4, size=(n, d)).astype(float)
        m[:, 0] += 1.0                         # no all-zero row
        dup = rng.integers(n, size=n // 3)
        m[rng.integers(n, size=dup.size)] = m[dup]
        m[rng.integers(n, size=3)] *= 3.7
        for k in range(2, min(8, Geometry(make_rep(m)).distinct) + 1):
            yield m, k, case


def assert_matches_oracle(rep, k, seed):
    result = kmeans(Geometry(rep), KmeansConfig(k=k, seed=seed))
    labels, centroids, history, converged = oracle_kmeans(rep.matrix, k, seed)
    assert list(result.ids) == labels
    assert np.array_equal(result.centroids, centroids)
    assert result.objective_history == history
    assert result.objective == history[-1]
    assert result.converged == converged


def test_kmeans_matches_the_rule_by_rule_oracle():
    for m, k, seed in kmeans_oracle_cases():
        assert_matches_oracle(make_rep(m), k, seed)


def test_kmeans_oracle_cases_reach_a_repair_after_an_update(monkeypatch):
    # the oracle test must cover the empty-cluster repair and the stop test
    # it skips, not only clean assignment steps
    real, calls, late_repairs = termforge.clustering._repair_empty, [0], [0]

    def counting(normalized, labels, centroids):
        calls[0] += 1
        repaired = real(normalized, labels, centroids)
        late_repairs[0] += repaired and calls[0] > 1   # not the one after init
        return repaired

    monkeypatch.setattr(termforge.clustering, "_repair_empty", counting)
    for m, k, seed in kmeans_oracle_cases():
        calls[0] = 0
        kmeans(Geometry(make_rep(m)), KmeansConfig(k=k, seed=seed))
    assert late_repairs[0] > 0


def test_a_repair_cycle_ends_the_run_at_once_unconverged():
    # in these cells a row and its 3.7 multiple, one direction up to
    # rounding, trade clusters at every repair, so the repairs repeat their
    # labels and centroids and no step can converge
    ended = {}
    for m, k, seed in kmeans_oracle_cases():
        result = kmeans(Geometry(make_rep(m)), KmeansConfig(k=k, seed=seed))
        if not result.converged:
            ended[m.shape, k] = len(result.objective_history)
    assert ended == {((9, 8), 7): 3, ((10, 7), 8): 4, ((6, 7), 5): 3, ((6, 7), 6): 3}


@pytest.mark.parametrize("provenance", [NP_VPC, NP_VPC_TFIDF, NP_VPC_NMF])
def test_kmeans_matches_the_oracle_on_the_mini_counts(mini_corpus, tmp_path, provenance):
    config = PipelineConfig(sweep=SweepConfig(representations=(provenance,)))
    rep = build_representations(mini_corpus, config, tmp_path)[provenance]
    for k in range(2, min(10, Geometry(rep).distinct) + 1):
        assert_matches_oracle(rep, k, seed=k)

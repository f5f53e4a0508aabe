import dataclasses
import gc
import logging
import math
import re
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from termforge import clustering
from termforge.cli import main
from termforge.clustering import (
    ApConfig,
    Geometry,
    affinity_propagation,
    load_clustering,
    save_clustering,
)
from termforge.experiment import PipelineError, run_pipeline
from test_pipeline import tiny_config
from util import (
    make_rep,
    oracle_affinity_propagation,
    oracle_ap_messages,
    oracle_ap_similarity,
)


def three_orthogonal_groups():
    """Nine points, three per axis direction, slightly perturbed scale."""
    base = []
    keys = []
    for axis, name in enumerate("abc"):
        for i in range(3):
            v = np.zeros(3)
            v[axis] = 1.0 + 0.1 * i
            base.append(v)
            keys.append(f"{name}{i}")
    return make_rep(np.array(base), keys=tuple(keys))


def test_zero_rows_are_rejected_before_any_n_by_n_work():
    rep = make_rep(np.zeros((0, 5)), keys=())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="needs at least one row; the representation has none"):
            affinity_propagation(Geometry(rep), ApConfig())


def test_cluster_ap_command_rejects_a_representation_without_rows(tmp_path, capsys):
    rep_path = tmp_path / "empty.txt"
    rep_path.write_text("0 5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["cluster", "ap", str(rep_path), "-o", str(tmp_path / "ap.csv")])
    assert code == 1
    assert ("error: affinity propagation needs at least one row; "
            "the representation has none") in capsys.readouterr().err


def test_single_point_is_its_own_exemplar():
    rep = make_rep([[1.0, 2.0]], keys=("only",))
    result = affinity_propagation(Geometry(rep), ApConfig())
    assert result.n_clusters == 1
    assert result.exemplars == {0: "only"}
    assert result.assignment == {"only": 0}
    assert result.objective == 0.0
    assert result.converged


def test_single_point_explicit_preference():
    rep = make_rep([[1.0]], keys=("only",))
    result = affinity_propagation(Geometry(rep), ApConfig(preference=-5.0))
    assert result.objective == -5.0


def test_three_orthogonal_groups_recovered():
    result = affinity_propagation(Geometry(three_orthogonal_groups()), ApConfig())
    assert result.algorithm == "affinity_propagation"
    assert result.n_clusters == 3
    groups = {tuple(sorted(m)) for m in result.members().values()}
    assert groups == {("a0", "a1", "a2"), ("b0", "b1", "b2"), ("c0", "c1", "c2")}
    assert result.converged


def test_exemplars_belong_to_their_clusters_and_order_by_key():
    result = affinity_propagation(Geometry(three_orthogonal_groups()), ApConfig())
    for cid, key in result.exemplars.items():
        assert result.assignment[key] == cid
    ordered = [result.exemplars[c] for c in range(result.n_clusters)]
    assert ordered == sorted(ordered)


def test_duplicates_land_in_the_same_cluster():
    m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    result = affinity_propagation(Geometry(make_rep(m, keys=("p", "q", "r", "s"))), ApConfig())
    assert result.assignment["p"] == result.assignment["q"]
    assert result.assignment["r"] == result.assignment["s"]
    assert result.n_clusters == 2


def test_high_preference_gives_all_singletons():
    rng = np.random.default_rng(1)
    m = rng.random((5, 3)) + 0.1
    normalized = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = normalized @ normalized.T
    top = float(np.max(sims[~np.eye(5, dtype=bool)]))
    result = affinity_propagation(Geometry(make_rep(m)), ApConfig(preference=top + 1.0))
    assert result.n_clusters == 5
    assert sorted(result.assignment.values()) == [0, 1, 2, 3, 4]


def test_deterministic_across_runs():
    rng = np.random.default_rng(2)
    rep = make_rep(rng.random((12, 4)) + 0.05)
    a = affinity_propagation(Geometry(rep), ApConfig())
    b = affinity_propagation(Geometry(rep), ApConfig())
    assert a.assignment == b.assignment
    assert a.exemplars == b.exemplars
    assert a.objective == b.objective


def test_objective_is_net_similarity():
    rep = three_orthogonal_groups()
    result = affinity_propagation(Geometry(rep), ApConfig())
    normalized = rep.matrix / np.linalg.norm(rep.matrix, axis=1, keepdims=True)
    sims = normalized @ normalized.T
    n = len(rep.row_labels)
    preference = float(np.median(sims[~np.eye(n, dtype=bool)]))
    index_of = {k: i for i, k in enumerate(rep.row_labels)}
    exemplar_rows = {c: index_of[k] for c, k in result.exemplars.items()}
    expected = preference * result.n_clusters
    for key in rep.row_labels:
        i = index_of[key]
        if key in result.exemplars.values():
            continue
        expected += sims[i, exemplar_rows[result.assignment[key]]]
    assert result.objective == pytest.approx(expected, abs=1e-9)


def test_non_convergence_is_reported():
    rng = np.random.default_rng(3)
    rep = make_rep(rng.random((8, 3)) + 0.05)
    result = affinity_propagation(Geometry(rep), ApConfig(max_iter=2, convergence_window=50))
    assert not result.converged


def test_scale_invariant_for_exact_scalings():
    rng = np.random.default_rng(4)
    m = rng.random((9, 3)) + 0.1
    scaled = m.copy()
    scaled[2] *= 8.0  # power of two: bitwise identical after normalization
    a = affinity_propagation(Geometry(make_rep(m)), ApConfig())
    b = affinity_propagation(Geometry(make_rep(scaled)), ApConfig())
    assert a.assignment == b.assignment


def test_config_validation():
    with pytest.raises(ValueError, match="damping"):
        ApConfig(damping=1.0)
    with pytest.raises(ValueError, match="damping"):
        ApConfig(damping=0.2)
    with pytest.raises(ValueError, match="preference"):
        ApConfig(preference="automatic")
    for preference in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="preference"):
            ApConfig(preference=preference)
    with pytest.raises(ValueError, match="max_iter"):
        ApConfig(max_iter=0)
    ApConfig(preference=-3.5)  # explicit numeric preference is fine


def _oracle_cases():
    rng = np.random.default_rng(21)
    base = rng.random((6, 4)) + 0.05
    duplicates = np.vstack([base, base[:3], base[:2]])
    yield "duplicate rows", duplicates, ApConfig()
    yield "n=2", np.array([[1.0, 0.2], [0.3, 1.0]]), ApConfig()
    yield "converges", three_orthogonal_groups().matrix, ApConfig()
    yield "max_iter", rng.random((40, 5)) + 0.05, ApConfig(max_iter=25)
    yield "numeric preference", rng.random((15, 3)) + 0.05, \
        ApConfig(preference=-0.5, damping=0.7, convergence_window=10)
    # the exemplars are the two axis points, and the third point is equally
    # similar to both: it joins the one whose key comes first
    tie = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 3.0]])
    yield "tie between exemplars", tie, ApConfig()


def test_messages_match_the_rule_by_rule_oracle(monkeypatch):
    real = clustering._ap_messages
    seen = []

    def spy(s, damping, max_iter, window):
        result = real(s, damping, max_iter, window)
        seen.append((s.copy(), damping, max_iter, window, result))
        return result

    monkeypatch.setattr(clustering, "_ap_messages", spy)
    outcomes = set()
    for name, matrix, config in _oracle_cases():
        seen.clear()
        affinity_propagation(Geometry(make_rep(matrix)), config)
        (s, damping, max_iter, window, (r, a, converged, _)), = seen
        normalized = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        sims = normalized @ normalized.T
        preference = (float(np.median(sims[~np.eye(len(matrix), dtype=bool)]))
                      if config.preference == "median" else config.preference)
        assert np.array_equal(s, oracle_ap_similarity(matrix, preference)), name
        r_ref, a_ref, converged_ref, _ = oracle_ap_messages(s, damping, max_iter, window)
        assert np.array_equal(r, r_ref), name
        assert np.array_equal(a, a_ref), name
        assert converged == converged_ref, name
        outcomes.add(converged)
    assert outcomes == {True, False}


def test_clusterings_match_the_end_to_end_oracle():
    for name, matrix, config in _oracle_cases():
        rep = make_rep(matrix)
        result = affinity_propagation(Geometry(rep), config)
        assignment, exemplars, objective, converged = oracle_affinity_propagation(
            matrix, rep.row_labels, config.preference, config.damping,
            config.max_iter, config.convergence_window)
        assert result.assignment == assignment, name
        assert result.exemplars == exemplars, name
        assert result.objective == objective, name   # bitwise
        assert result.converged == converged, name


def test_memory_guard_rejects_before_allocating(monkeypatch):
    monkeypatch.setattr(clustering, "_physical_memory_bytes", lambda: 4096)
    # the largest n whose three n x n float64 arrays, block scratch ((n + 1)
    # x n: a small matrix is one block) and column-sum vector fit in 4096
    # bytes: 8 * (4n^2 + 2n) is 4048 at n = 11 and 4800 at n = 12
    fits = 11
    matrix = np.random.default_rng(5).random((fits + 1, 3)) + 0.05
    affinity_propagation(Geometry(make_rep(matrix[:fits])), ApConfig())
    with pytest.raises(ValueError, match=rf"n={fits + 1} .*GiB"):
        affinity_propagation(Geometry(make_rep(matrix)), ApConfig())


def test_memory_guard_is_a_tagged_pipeline_error(monkeypatch, tmp_path, mini_corpus):
    monkeypatch.setattr(clustering, "_physical_memory_bytes", lambda: 1024)
    config = tiny_config(sweep=dataclasses.replace(tiny_config().sweep,
                                                   representations=("NP_VPC",)))
    with pytest.raises(PipelineError, match=r"\[ap:NP_VPC\] affinity propagation on n=") \
            as exc:
        run_pipeline(mini_corpus, None, config, tmp_path)
    assert exc.value.stage == "ap:NP_VPC"


# ------------------------------------------------------- row-block messages


def _block_input(max_iter, window):
    """41 rows: blocks of 6 rows leave a last block of 5."""
    m = np.random.default_rng(0).random((41, 6)) ** 3 + 0.01
    normalized = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = normalized @ normalized.T
    preference = float(np.median(sims[~np.eye(len(m), dtype=bool)]))
    return oracle_ap_similarity(m, preference), 0.5, max_iter, window


@pytest.mark.parametrize("damping", [0.5, 0.9])
@pytest.mark.parametrize("rows", [1, 6, 40, 41],
                         ids=["one row", "uneven", "last block one row", "whole matrix"])
@pytest.mark.parametrize("max_iter, window, converges",
                         [(1, 50, False), (2, 50, False), (50, 100, False), (400, 10, True)],
                         ids=["one iteration", "two iterations", "fifty iterations",
                              "converged"])
def test_block_boundaries_match_the_rule_by_rule_oracle(monkeypatch, rows, max_iter,
                                                        window, converges, damping):
    s, *_ = _block_input(max_iter, window)
    monkeypatch.setattr(clustering, "_AP_BLOCK_BYTES", 8 * s.shape[0] * rows)
    assert clustering._ap_block_rows(s.shape[0]) == rows
    r, a, converged, iterations = clustering._ap_messages(s, damping, max_iter, window)
    r_ref, a_ref, converged_ref, iterations_ref = oracle_ap_messages(s, damping,
                                                                     max_iter, window)
    # bytes, not ==, so that a -0.0 where the oracle has 0.0 counts
    assert r.tobytes() == r_ref.tobytes()
    assert a.tobytes() == a_ref.tobytes()
    assert converged == converged_ref == converges
    assert iterations == iterations_ref


@pytest.mark.parametrize("n, blocks", [(158, 1), (280, 1), (640, 4)],
                         ids=["skipgram", "sweep", "wide"])
def test_block_rule_on_the_benchmark_sizes(n, blocks):
    # splitting n = 280 into row blocks slowed `sweep` by a fifth, so the
    # smaller workloads run as one block; `wide` needs four
    assert math.ceil(n / clustering._ap_block_rows(n)) == blocks


@pytest.mark.parametrize("case", ["converges", "max_iter"])
def test_ap_logs_the_iterations_the_oracle_runs(caplog, case):
    (_, matrix, config), = [c for c in _oracle_cases() if c[0] == case]
    caplog.set_level(logging.INFO, logger="termforge.clustering")
    result = affinity_propagation(Geometry(make_rep(matrix)), config)
    normalized = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
    sims = normalized @ normalized.T
    preference = float(np.median(sims[~np.eye(len(matrix), dtype=bool)]))
    *_, converged, iterations = oracle_ap_messages(
        oracle_ap_similarity(matrix, preference), config.damping, config.max_iter,
        config.convergence_window)
    assert converged == result.converged == (case == "converges")
    n = len(matrix)
    assert caplog.messages == [
        f"affinity propagation: n={n}, {clustering._ap_block_rows(n)} rows per block, "
        f"{iterations} iterations, converged={converged}"]


def test_ap_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    # enough rows that a split across CPUs would pay, were there one
    m = np.random.default_rng(6).random((1000, 5)) + 0.05
    affinity_propagation(Geometry(make_rep(m)), ApConfig(max_iter=3))


def test_message_passing_state_is_freed_without_the_garbage_collector():
    # a reference cycle would keep the block scratch alive after the call,
    # next to the arrays of the next call: only R and A may outlive it
    s, damping, max_iter, window = _block_input(3, 50)
    n_by_n = s.nbytes
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        r, a, *_ = clustering._ap_messages(s, damping, max_iter, window)
        kept = tracemalloc.get_traced_memory()[0] - before
        del r, a
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert kept < 2 * n_by_n + 1024
    assert left < 1024


# ---------------------------------------------------------- serialization


def test_save_load_round_trip(tmp_path):
    result = affinity_propagation(Geometry(three_orthogonal_groups()), ApConfig())
    path = tmp_path / "clusters.csv"
    save_clustering(result, path, config={"preference": "median"})
    loaded = load_clustering(path)
    assert loaded.labels == result.labels
    assert loaded.assignment == result.assignment
    assert loaded.n_clusters == result.n_clusters
    assert loaded.algorithm == result.algorithm
    assert loaded.exemplars == result.exemplars
    assert loaded.objective == pytest.approx(result.objective)
    assert loaded.converged == result.converged


def test_load_without_meta_sidecar(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("np_key,cluster_id\na,0\nb,1\n")
    loaded = load_clustering(path)
    assert loaded.algorithm == "unknown"
    assert loaded.n_clusters == 2
    assert loaded.exemplars is None


def test_load_rejects_wrong_header(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("term,cluster\na,0\n")
    with pytest.raises(ValueError, match="unexpected header"):
        load_clustering(path)


def test_load_rejects_an_empty_file(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="unexpected header None"):
        load_clustering(path)


def test_load_names_the_file_of_an_invalid_clustering(tmp_path):
    path = tmp_path / "clusters.csv"
    path.write_text("np_key,cluster_id\na,0\nb,2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "
                                         r"cluster ids \[0, 2\] are not 0..1$"):
        load_clustering(path)


@pytest.mark.parametrize("rows, line, message", [
    ("alpha,0\nbeta\n", 3, "expected 2 fields \\(np_key, cluster_id\\), got 1"),
    ("alpha,0\nbeta,1,2\n", 3, "expected 2 fields \\(np_key, cluster_id\\), got 3"),
    ("alpha,0\nbeta,one\n", 3, "cluster_id 'one' is not an integer"),
    ("alpha,0\nalpha,0\nbeta,1\n", 3, "repeated np_key 'alpha'"),
], ids=["one field", "three fields", "non-integer id", "repeated key"])
def test_load_names_the_line_of_a_bad_row(tmp_path, rows, line, message):
    path = tmp_path / "clusters.csv"
    path.write_text("np_key,cluster_id\n" + rows)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: {message}$"):
        load_clustering(path)

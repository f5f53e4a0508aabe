import dataclasses
import gc
import os
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from termforge import clustering
from termforge.cli import main
from termforge.clustering import (
    ApConfig,
    affinity_propagation,
    load_clustering,
    save_clustering,
)
from termforge.experiment import PipelineError, run_pipeline
from test_pipeline import tiny_config
from util import make_rep, oracle_ap_messages, oracle_ap_similarity


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
        with pytest.raises(ValueError, match="needs at least one row; the representation has none"):
            affinity_propagation(rep, ApConfig())


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
    result = affinity_propagation(rep, ApConfig())
    assert result.n_clusters == 1
    assert result.exemplars == {0: "only"}
    assert result.assignment == {"only": 0}
    assert result.objective == 0.0
    assert result.converged


def test_single_point_explicit_preference():
    rep = make_rep([[1.0]], keys=("only",))
    result = affinity_propagation(rep, ApConfig(preference=-5.0))
    assert result.objective == -5.0


def test_three_orthogonal_groups_recovered():
    result = affinity_propagation(three_orthogonal_groups(), ApConfig())
    assert result.algorithm == "affinity_propagation"
    assert result.n_clusters == 3
    groups = {tuple(sorted(m)) for m in result.members().values()}
    assert groups == {("a0", "a1", "a2"), ("b0", "b1", "b2"), ("c0", "c1", "c2")}
    assert result.converged


def test_exemplars_belong_to_their_clusters_and_order_by_key():
    result = affinity_propagation(three_orthogonal_groups(), ApConfig())
    for cid, key in result.exemplars.items():
        assert result.assignment[key] == cid
    ordered = [result.exemplars[c] for c in range(result.n_clusters)]
    assert ordered == sorted(ordered)


def test_duplicates_land_in_the_same_cluster():
    m = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    result = affinity_propagation(make_rep(m, keys=("p", "q", "r", "s")), ApConfig())
    assert result.assignment["p"] == result.assignment["q"]
    assert result.assignment["r"] == result.assignment["s"]
    assert result.n_clusters == 2


def test_high_preference_gives_all_singletons():
    rng = np.random.default_rng(1)
    m = rng.random((5, 3)) + 0.1
    normalized = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = normalized @ normalized.T
    top = float(np.max(sims[~np.eye(5, dtype=bool)]))
    result = affinity_propagation(make_rep(m), ApConfig(preference=top + 1.0))
    assert result.n_clusters == 5
    assert sorted(result.assignment.values()) == [0, 1, 2, 3, 4]


def test_deterministic_across_runs():
    rng = np.random.default_rng(2)
    rep = make_rep(rng.random((12, 4)) + 0.05)
    a = affinity_propagation(rep, ApConfig())
    b = affinity_propagation(rep, ApConfig())
    assert a.assignment == b.assignment
    assert a.exemplars == b.exemplars
    assert a.objective == b.objective


def test_objective_is_net_similarity():
    rep = three_orthogonal_groups()
    result = affinity_propagation(rep, ApConfig())
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
    result = affinity_propagation(rep, ApConfig(max_iter=2, convergence_window=50))
    assert not result.converged


def test_scale_invariant_for_exact_scalings():
    rng = np.random.default_rng(4)
    m = rng.random((9, 3)) + 0.1
    scaled = m.copy()
    scaled[2] *= 8.0  # power of two: bitwise identical after normalization
    a = affinity_propagation(make_rep(m), ApConfig())
    b = affinity_propagation(make_rep(scaled), ApConfig())
    assert a.assignment == b.assignment


def test_config_validation():
    with pytest.raises(ValueError, match="damping"):
        ApConfig(damping=1.0)
    with pytest.raises(ValueError, match="damping"):
        ApConfig(damping=0.2)
    with pytest.raises(ValueError, match="preference"):
        ApConfig(preference="automatic")
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
        affinity_propagation(make_rep(matrix), config)
        (s, damping, max_iter, window, (r, a, converged)), = seen
        normalized = matrix / np.linalg.norm(matrix, axis=1, keepdims=True)
        sims = normalized @ normalized.T
        preference = (float(np.median(sims[~np.eye(len(matrix), dtype=bool)]))
                      if config.preference == "median" else config.preference)
        assert np.array_equal(s, oracle_ap_similarity(matrix, preference)), name
        r_ref, a_ref, converged_ref = oracle_ap_messages(s, damping, max_iter, window)
        assert np.array_equal(r, r_ref), name
        assert np.array_equal(a, a_ref), name
        assert converged == converged_ref, name
        outcomes.add(converged)
    assert outcomes == {True, False}


def test_memory_guard_rejects_before_allocating(monkeypatch):
    monkeypatch.setattr(clustering, "_physical_memory_bytes", lambda: 4096)
    rep = make_rep(np.random.default_rng(5).random((12, 3)) + 0.05)
    with pytest.raises(ValueError, match=r"n=12 .*GiB"):
        affinity_propagation(rep, ApConfig())
    # 5 arrays of 11 x 11 float64 are 4840 bytes; 10 x 10 fit in 4096
    affinity_propagation(make_rep(rep.matrix[:10]), ApConfig())
    with pytest.raises(ValueError, match="n=11"):
        affinity_propagation(make_rep(rep.matrix[:11]), ApConfig())


def test_memory_guard_is_a_tagged_pipeline_error(monkeypatch, tmp_path, mini_corpus):
    monkeypatch.setattr(clustering, "_physical_memory_bytes", lambda: 1024)
    config = tiny_config(sweep=dataclasses.replace(tiny_config().sweep,
                                                   representations=("NP_VPC",)))
    with pytest.raises(PipelineError, match=r"\[ap:NP_VPC\] affinity propagation on n=") \
            as exc:
        run_pipeline(mini_corpus, None, config, tmp_path)
    assert exc.value.stage == "ap:NP_VPC"


# ----------------------------------------------------- row-split messages


def _split_input(max_iter, window):
    """An odd n with at least _AP_ROWS_PER_PART rows in each of three parts."""
    n = 3 * clustering._AP_ROWS_PER_PART + 1
    m = np.random.default_rng(0).random((n, 6)) ** 3 + 0.01
    normalized = m / np.linalg.norm(m, axis=1, keepdims=True)
    sims = normalized @ normalized.T
    preference = float(np.median(sims[~np.eye(n, dtype=bool)]))
    return oracle_ap_similarity(m, preference), 0.5, max_iter, window


def _record_parts(monkeypatch):
    """Row ranges run_part was called with, and whether the calling thread
    ran each one."""
    real = clustering._MessagePassing.run_part
    parts = []

    def spy(self, lo, hi, *args):
        parts.append((lo, hi, threading.current_thread() is threading.main_thread()))
        real(self, lo, hi, *args)

    monkeypatch.setattr(clustering._MessagePassing, "run_part", spy)
    return parts


@pytest.mark.parametrize("parts", [1, 2, 3])
@pytest.mark.parametrize("max_iter, window, converges",
                         [(400, 10, True), (12, 50, False)], ids=["converged", "max_iter"])
@pytest.mark.parametrize("saves_time", [True, False], ids=["split", "alone_after_5"])
def test_row_parts_match_the_rule_by_rule_oracle(monkeypatch, parts, max_iter, window,
                                                 converges, saves_time):
    s, damping, _, _ = _split_input(max_iter, window)
    monkeypatch.setattr(clustering, "_cpu_count", lambda: parts)
    monkeypatch.setattr(clustering, "_AP_TIMING_WINDOW", 5)
    monkeypatch.setattr(clustering._MessagePassing, "split_saves_time",
                        lambda self: saves_time)
    ran = _record_parts(monkeypatch)
    r, a, converged = clustering._ap_messages(s, damping, max_iter, window)
    n = s.shape[0]
    assert sorted(ran[:parts]) == [(n * p // parts, n * (p + 1) // parts, p == 0)
                                   for p in range(parts)]
    # a split that saves no time hands the remaining iterations to the caller
    assert ran[parts:] == ([] if saves_time or parts == 1 else [(0, n, True)])
    r_ref, a_ref, converged_ref = oracle_ap_messages(s, damping, max_iter, window)
    assert np.array_equal(r, r_ref)
    assert np.array_equal(a, a_ref)
    assert converged == converged_ref == converges


def test_row_parts_under_frequent_thread_switches(monkeypatch):
    monkeypatch.setattr(clustering, "_cpu_count", lambda: 3)
    s, damping, max_iter, window = _split_input(12, 50)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        r, a, _ = clustering._ap_messages(s, damping, max_iter, window)
    finally:
        sys.setswitchinterval(interval)
    r_ref, a_ref, _ = oracle_ap_messages(s, damping, max_iter, window)
    assert np.array_equal(r, r_ref) and np.array_equal(a, a_ref)


def test_the_split_is_kept_while_its_wall_time_is_below_its_cpu_time():
    passing = clustering._MessagePassing(np.zeros((2, 2)), 0.5, 10)
    passing.clocks = (time.perf_counter() - 0.5, time.process_time() - 1.0)
    assert passing.split_saves_time()
    passing.clocks = (time.perf_counter() - 1.0, time.process_time() - 0.5)
    assert not passing.split_saves_time()


def test_parts_follow_the_cpus_of_the_process(monkeypatch):
    s, damping, _, window = _split_input(400, 10)
    ran = _record_parts(monkeypatch)
    clustering._ap_messages(s, damping, 3, window)
    n = s.shape[0]
    assert len(ran) == min(len(os.sched_getaffinity(0)), n // clustering._AP_ROWS_PER_PART)


def test_small_problems_run_inline_on_many_cpus(monkeypatch):
    monkeypatch.setattr(clustering, "_cpu_count", lambda: 64)
    ran = _record_parts(monkeypatch)
    n = 2 * clustering._AP_ROWS_PER_PART - 1
    clustering._ap_messages(oracle_ap_similarity(np.eye(n) + 0.1, 0.0), 0.9, 3, 50)
    assert ran == [(0, n, True)]


def test_one_cpu_starts_no_thread(monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(clustering, "_cpu_count", lambda: 1)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    s, damping, max_iter, window = _split_input(12, 50)
    r, a, _ = clustering._ap_messages(s, damping, max_iter, window)
    r_ref, a_ref, _ = oracle_ap_messages(s, damping, max_iter, window)
    assert np.array_equal(r, r_ref) and np.array_equal(a, a_ref)


def test_no_thread_outlives_a_call(monkeypatch):
    monkeypatch.setattr(clustering, "_cpu_count", lambda: 3)
    before = threading.active_count()
    clustering._ap_messages(*_split_input(400, 10))
    assert threading.active_count() == before
    clustering._ap_messages(*_split_input(12, 50))
    assert threading.active_count() == before


def test_message_passing_state_is_freed_without_the_garbage_collector(monkeypatch):
    # a reference cycle would keep the scratch buffer and s alive after the
    # call, next to the arrays of the next call
    monkeypatch.setattr(clustering, "_cpu_count", lambda: 2)
    made = []
    real = clustering._MessagePassing.__init__

    def spy(self, *args):
        real(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(clustering._MessagePassing, "__init__", spy)
    gc.disable()
    try:
        clustering._ap_messages(*_split_input(3, 50))
        assert made[0]() is None
    finally:
        gc.enable()


def test_a_worker_error_reaches_the_caller(monkeypatch):
    real = np.argmax

    def fail_off_the_main_thread(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(clustering, "_cpu_count", lambda: 3)
    monkeypatch.setattr(np, "argmax", fail_off_the_main_thread)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker failed"):
        clustering._ap_messages(*_split_input(12, 50))
    assert threading.active_count() == before


def test_an_error_in_the_serial_step_reaches_the_caller(monkeypatch):
    def fail(self):
        raise FloatingPointError("check failed")

    monkeypatch.setattr(clustering, "_cpu_count", lambda: 2)
    monkeypatch.setattr(clustering._MessagePassing, "sum_and_check", fail)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="check failed"):
        clustering._ap_messages(*_split_input(12, 50))
    assert threading.active_count() == before


# ---------------------------------------------------------- serialization


def test_save_load_round_trip(tmp_path):
    result = affinity_propagation(three_orthogonal_groups(), ApConfig())
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

"""One geometry per representation: the sweep and the pipeline normalize the
rows, count the distinct ones and form D once per representation.  The
results must equal those of a fresh geometry per call, and the geometry and
the indices must still check what outside callers give them."""
import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest

import termforge.experiment
from termforge.cli import main
from termforge.clustering import (_AP_LIVE_ARRAYS, ApConfig, Clustering, Geometry,
                                  KmeansConfig, _ap_scratch_bytes, affinity_propagation,
                                  distinct_row_count, kmeans,
                                  pairwise_cosine_dissimilarity, save_clustering)
from termforge.evaluation import (GoldStandard, dunn2, evaluate_clustering,
                                  silhouette_width)
from termforge.experiment import (PipelineConfig, RepetitionRecord, SweepConfig,
                                  build_representations, derive_seed, run_pipeline,
                                  run_sweep)
from termforge.matrices import NP_VPC, REPRESENTATIONS, Representation
from util import make_rep, naive_dissimilarity, traced_peak

SWEEP = SweepConfig(k_min=2, k_max=5, repetitions=2, master_seed=7,
                    sigma1=2.0, sigma2=0.5)
PIPELINE = PipelineConfig(sweep=SWEEP, nmf_rank=5, nmf_max_iter=100,
                          w2v_dim=16, w2v_epochs=2, w2v_min_count=2)


def reference_cells(rep, gold, config):
    """The sweep's records from public calls on the representation, a fresh
    geometry, and so one normalization, distinct count and D, per call."""
    k_hi = min(config.k_max, distinct_row_count(Geometry(rep)))
    cells = []
    for k in range(config.k_min, k_hi + 1):
        for r in range(config.repetitions):
            seed = derive_seed(config.master_seed, k, r)
            clustering = kmeans(Geometry(rep), KmeansConfig(k=k, seed=seed))
            report = evaluate_clustering(pairwise_cosine_dissimilarity(Geometry(rep)),
                                         clustering, gold)
            cells.append(RepetitionRecord(
                k=k, repetition=r, seed=seed,
                purity=report.purity, ari=report.ari,
                dunn2=report.dunn2, silhouette=report.silhouette))
    return tuple(cells)


def fresh_copy(rep):
    return Representation(tuple(rep.row_labels), rep.matrix.copy(), rep.provenance)


def duplicated_and_scaled_rep():
    rng = np.random.default_rng(3)
    base = rng.random((24, 6)) + 0.01
    # power-of-two scales keep the normalized rows bitwise equal
    rows = np.vstack([base, base[:5], base[5:10] * 8.0, base[10:12] * 2.0 ** -10])
    return make_rep(rows, keys=tuple(f"t{i}" for i in range(rows.shape[0])))


@pytest.fixture(scope="module")
def mini_reps(mini_corpus, tmp_path_factory):
    return build_representations(mini_corpus, PIPELINE, tmp_path_factory.mktemp("reps"))


def assert_sweep_and_ap_match_public_calls(rep, gold):
    geometry = Geometry(rep)
    result = run_sweep(geometry, gold, SWEEP)
    assert result.cells == reference_cells(fresh_copy(rep), gold, SWEEP)
    assert result == run_sweep(Geometry(fresh_copy(rep)), gold, SWEEP)
    # AP on the geometry the sweep used, as the pipeline runs it
    assert affinity_propagation(geometry, ApConfig()) == \
        affinity_propagation(Geometry(fresh_copy(rep)), ApConfig())


@pytest.mark.parametrize("name", REPRESENTATIONS)
def test_sweep_and_ap_on_the_mini_representations_match_public_calls(
        name, mini_reps, mini_gold):
    assert_sweep_and_ap_match_public_calls(mini_reps[name], mini_gold)


def test_sweep_and_ap_with_duplicate_and_scaled_rows_match_public_calls():
    rep = duplicated_and_scaled_rep()
    gold = GoldStandard(mapping={key: f"L{i % 4}" for i, key in enumerate(rep.row_labels)})
    assert distinct_row_count(Geometry(rep)) == 24
    assert_sweep_and_ap_match_public_calls(rep, gold)


def test_geometry_gives_what_the_matrix_gives_and_is_read_only():
    rep = duplicated_and_scaled_rep()
    geometry = Geometry(rep)
    assert distinct_row_count(geometry) == 24
    d = pairwise_cosine_dissimilarity(geometry)
    naive = [[naive_dissimilarity(a, b) for b in rep.matrix] for a in rep.matrix]
    assert np.allclose(d, naive, rtol=0.0, atol=1e-12)
    assert d.tobytes() == d.T.tobytes()
    assert np.all(d.diagonal() == 0.0)
    for array in (geometry.normalized, d):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.5


def test_ap_on_a_geometry_keeps_to_the_memory_guard_estimate():
    # the guard counts _AP_LIVE_ARRAYS n x n arrays and the block scratch; the
    # geometry's D, formed by the sweep, would be one more.  500 rows are more
    # than one block, so the scratch is about half an n x n array.
    rep = make_rep(np.random.default_rng(0).random((500, 4)) + 0.01)
    n_by_n = rep.n_rows ** 2 * 8
    tracemalloc.start()
    try:
        geometry = Geometry(rep)
        rows_only = tracemalloc.get_traced_memory()[0]
        pairwise_cosine_dissimilarity(geometry)
        tracemalloc.reset_peak()
        affinity_propagation(geometry, ApConfig(max_iter=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a quarter array of slack for ufunc buffers and per-row vectors
    assert peak - rows_only < ((_AP_LIVE_ARRAYS + 0.25) * n_by_n
                               + _ap_scratch_bytes(rep.n_rows))


def test_forming_d_keeps_two_n_by_n_arrays():
    # D itself and the buffered transpose of d += d.T; a tenth of an array
    # of slack for the fill_diagonal index and ufunc buffers
    geometry = Geometry(make_rep(np.random.default_rng(0).random((300, 40)) + 0.01))
    assert traced_peak(lambda: geometry.dissimilarity) < 2.3 * 300 * 300 * 8


def test_counting_distinct_rows_copies_no_whole_matrix():
    # the row-bytes set holds one n x d array's worth; a whole-matrix copy
    # would be a second
    geometry = Geometry(make_rep(np.random.default_rng(0).random((400, 300)) + 0.01))
    assert traced_peak(lambda: geometry.distinct) < 1.5 * 400 * 300 * 8


# ------------------------------------------------ unconverged k warning


def with_unconverged_kmeans(monkeypatch, fails):
    """Patch the sweep's kmeans: a cell reports converged=False when
    fails(k, call number at that k) holds."""
    real = termforge.experiment.kmeans
    calls: dict[int, int] = {}

    def patched(rep, config):
        calls[config.k] = calls.get(config.k, 0) + 1
        clustering = real(rep, config)
        if fails(config.k, calls[config.k]):
            return dataclasses.replace(clustering, converged=False)
        return clustering

    monkeypatch.setattr(termforge.experiment, "kmeans", patched)


def test_sweep_warns_when_every_cell_of_a_k_failed_to_converge(
        monkeypatch, mini_reps, mini_gold, tmp_path, mini_corpus):
    # every cell of k=3 fails, one of the two at k=4 does
    with_unconverged_kmeans(monkeypatch, lambda k, call: k == 3 or (k == 4 and call == 1))
    expected = "k=3: every K-Means cell (2 repetition(s)) hit max_iter before converging"
    result = run_sweep(Geometry(mini_reps[NP_VPC]), mini_gold, SWEEP)
    assert result.warnings == (expected,)

    config = dataclasses.replace(
        PIPELINE, sweep=dataclasses.replace(SWEEP, representations=(NP_VPC,)))
    run_pipeline(mini_corpus, mini_gold, config, tmp_path / "run")
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert f"{NP_VPC}: {expected}" in manifest["warnings"]
    assert not any("k=4" in warning for warning in manifest["warnings"])


# ------------------------------------------- outside callers still checked


@pytest.fixture(scope="module")
def after_a_pipeline_run(tmp_path_factory, mini_corpus, mini_gold):
    """A pipeline run, then a sweep over a geometry of the shape the tests
    below use, so that reuse keyed on shape alone would show."""
    out = tmp_path_factory.mktemp("geometry_pipe")
    run_pipeline(mini_corpus, mini_gold, PIPELINE, out)
    run_sweep(Geometry(duplicated_and_scaled_rep()), None, SWEEP)
    return out


def valid_d_and_clustering():
    rep = duplicated_and_scaled_rep()
    geometry = Geometry(rep)
    return pairwise_cosine_dissimilarity(geometry), kmeans(geometry, KmeansConfig(k=3))


def bad_dissimilarities(d):
    asymmetric = d.copy()
    asymmetric[0, 1] += 1e-7
    diagonal = d.copy()
    diagonal[2, 2] = 1e-7
    with_nan = d.copy()
    with_nan[1, 3] = with_nan[3, 1] = np.nan
    return {"symmetric": asymmetric, "diagonal must be zero": diagonal,
            "diagonal|symmetric": with_nan}


INDICES = pytest.mark.parametrize("index", [
    silhouette_width, dunn2,
    lambda d, clustering: evaluate_clustering(d, clustering, None)],
    ids=["silhouette_width", "dunn2", "evaluate_clustering"])


@INDICES
def test_indices_still_check_d_after_a_pipeline_run(after_a_pipeline_run, index):
    d, clustering = valid_d_and_clustering()
    index(d, clustering)
    for match, bad in bad_dissimilarities(d).items():
        with pytest.raises(ValueError, match=match):
            index(bad, clustering)


@INDICES
def test_indices_reject_a_geometry_of_other_rows(index):
    rep = duplicated_and_scaled_rep()
    clustering = kmeans(Geometry(rep), KmeansConfig(k=3))
    index(Geometry(rep), clustering)
    keys = rep.row_labels
    # other keys, the same keys in another order, and one key left out
    other_keys = tuple(f"u{i}" for i in range(len(keys)))
    with pytest.raises(ValueError, match=re.escape(
            "label sets differ: only in the clustering ['t0', 't1', 't10', 't11', 't12'], "
            "only in the representation ['u0', 'u1', 'u10', 'u11', 'u12']")):
        index(Geometry(make_rep(rep.matrix, keys=other_keys)), clustering)
    with pytest.raises(ValueError, match="same NP keys in another order: they first "
                                         "differ at position 0;"):
        index(Geometry(make_rep(rep.matrix, keys=keys[::-1])), clustering)
    with pytest.raises(ValueError, match=re.escape(
            "label sets differ: only in the clustering ['t3'], only in the "
            "representation []")):
        index(Geometry(make_rep(rep.matrix[:-1], keys=keys[:3] + keys[4:])), clustering)


def test_single_cluster_evaluation_rejects_a_geometry_of_other_rows():
    rep = make_rep([[1.0, 0.0], [0.0, 1.0]], keys=("x", "y"))
    one_cluster = Clustering(labels=("p", "q"), ids=(0, 0), algorithm="test")
    with pytest.raises(ValueError, match="label sets differ"):
        evaluate_clustering(Geometry(rep), one_cluster, None)


def test_kmeans_still_checks_its_input_after_a_pipeline_run(after_a_pipeline_run):
    rep = duplicated_and_scaled_rep()
    with pytest.raises(ValueError, match="k=25 exceeds the 24 distinct rows"):
        kmeans(Geometry(rep), KmeansConfig(k=25))
    three_directions = make_rep(np.resize(rep.matrix[:3], rep.matrix.shape))
    with pytest.raises(ValueError, match="k=4 exceeds the 3 distinct rows"):
        kmeans(Geometry(three_directions), KmeansConfig(k=4))
    matrix = rep.matrix.copy()
    matrix[4, 1] = np.inf
    with pytest.raises(ValueError, match=r"non-finite rows at indices \[4\]"):
        kmeans(Geometry(make_rep(matrix, keys=rep.row_labels)), KmeansConfig(k=2))


@pytest.mark.parametrize("bad_row, message", [
    # loading drops the all-zero row, as it does from a .mtx, so the
    # clustering holds a key that the representation lacks
    ("0.0 0.0", "label sets differ: only in the clustering ['beta']"),
    ("nan 1.0", "row 1 (beta) has non-finite values")])
def test_evaluate_command_still_rejects_a_bad_representation(
        after_a_pipeline_run, tmp_path, mini_gold_path, capsys, bad_row, message):
    rep = make_rep([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]], keys=("alpha", "beta", "gamma"))
    clustering = kmeans(Geometry(rep), KmeansConfig(k=2))
    save_clustering(clustering, tmp_path / "km.csv")
    rep_path = tmp_path / "rep.txt"
    rep_path.write_text(f"3 2\nalpha\t1.0 0.0\nbeta\t{bad_row}\ngamma\t0.0 1.0\n")
    code = main(["evaluate", str(tmp_path / "km.csv"), str(rep_path), str(mini_gold_path),
                 "-o", str(tmp_path / "row.csv")])
    assert code == 1
    assert message in capsys.readouterr().err

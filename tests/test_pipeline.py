import dataclasses
import json
import logging
import math
import weakref

import numpy as np
import pytest

from termforge import experiment
from termforge.clustering import (AP_NOT_CONVERGED, ApConfig, Geometry, KmeansConfig,
                                  affinity_propagation)
from termforge.corpus import load_corpus, parse_conllu
from termforge.evaluation import evaluate_clustering, format_value
from termforge.experiment import (
    REPORT_HEADER,
    PipelineConfig,
    PipelineError,
    SweepConfig,
    build_representations,
    derive_seed,
    run_pipeline,
)
from termforge.matrices import (
    NP_VPC,
    NP_VPC_NMF,
    NP_VPC_TFIDF,
    NP_W2V,
    REPRESENTATIONS,
    load_representation,
)
from util import conllu_sentence


def tiny_config(**kw):
    sweep = SweepConfig(k_min=2, k_max=5, repetitions=2, master_seed=7,
                        sigma1=2.0, sigma2=0.5)
    defaults = dict(sweep=sweep, nmf_rank=5, nmf_max_iter=100,
                    w2v_dim=16, w2v_epochs=2, w2v_min_count=2)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def parse_cell(text):
    if text == "NA":
        return None
    if text == "inf":
        return math.inf
    return float(text)


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory, mini_corpus, mini_gold):
    out = tmp_path_factory.mktemp("pipe")
    rows = run_pipeline(mini_corpus, mini_gold, tiny_config(), out)
    return out, rows


def test_report_has_km_then_ap_in_representation_order(pipeline_out):
    _, rows = pipeline_out
    assert len(rows) == 8
    assert [r.clusterer for r in rows] == ["KM"] * 4 + ["AP"] * 4
    assert [r.representation for r in rows[:4]] == list(REPRESENTATIONS)
    assert [r.representation for r in rows[4:]] == list(REPRESENTATIONS)


def test_report_ratio_is_clusters_over_gold_labels(pipeline_out):
    _, rows = pipeline_out
    for row in rows:
        assert row.ratio == row.n_clusters / 3
        assert 0.0 <= row.purity <= 1.0
        assert -1.0 <= row.ari <= 1.0


def test_report_csv_round_trips(pipeline_out):
    out, rows = pipeline_out
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == ",".join(REPORT_HEADER)
    assert len(lines) == 9
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        assert cells[0] == row.clusterer
        assert cells[1] == row.representation
        assert int(cells[2]) == row.n_clusters
        assert parse_cell(cells[3]) == row.ratio
        assert parse_cell(cells[4]) == row.purity
        assert parse_cell(cells[6]) == (row.dunn2 if row.dunn2 is not None else None)


def test_all_artifacts_written(pipeline_out):
    out, _ = pipeline_out
    names = {p.name for p in out.iterdir()}
    expected = {"couples.tsv", "np_vpc.mtx", "np_vpc.mtx.rows", "np_vpc.mtx.cols",
                "np_vpc_tfidf.mtx", "np_vpc_tfidf.mtx.rows", "np_vpc_tfidf.mtx.cols",
                "embeddings.txt", "report.csv", "manifest.json",
                f"rep_{NP_VPC_NMF}.txt", f"rep_{NP_W2V}.txt"}
    for rep in REPRESENTATIONS:
        expected |= {f"curves_{rep}.csv", f"repetitions_{rep}.csv",
                     f"ap_{rep}.csv", f"ap_{rep}.csv.meta.json"}
    assert names == expected


def test_manifest_shape(pipeline_out, mini_corpus, tmp_path):
    out, _ = pipeline_out
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest) == {"config", "corpus", "gold", "selected_k",
                             "representations", "artifacts", "warnings",
                             "versions"}
    assert manifest["corpus"] == {"n_documents": 2, "n_sentences": 52}
    assert manifest["gold"] == {"n_terms": 12, "n_labels": 3}
    assert set(manifest["selected_k"]) == set(REPRESENTATIONS)
    assert manifest["config"]["sweep"]["master_seed"] == 7
    assert "manifest.json" not in manifest["artifacts"]
    assert manifest["artifacts"] == sorted(manifest["artifacts"])
    assert set(manifest["versions"]) == {"termforge", "numpy"}
    reps = build_representations(mini_corpus, tiny_config(), tmp_path)
    assert manifest["representations"] == {
        name: {"rows": rep.n_rows, "cols": rep.matrix.shape[1]}
        for name, rep in reps.items()}
    # nothing run-dependent beyond the declared keys: no timestamps, no host,
    # no thread count anywhere
    text = (out / "manifest.json").read_text()
    assert "time" not in text and "THREADS" not in text


def test_selected_k_rows_match_curves(pipeline_out):
    out, rows = pipeline_out
    manifest = json.loads((out / "manifest.json").read_text())
    for row in rows[:4]:
        k_sel = manifest["selected_k"][row.representation]
        assert row.n_clusters == k_sel
        lines = (out / f"curves_{row.representation}.csv").read_text().splitlines()
        by_k = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
        cells = by_k[k_sel]
        assert parse_cell(cells[1]) == pytest.approx(row.purity)
        # k is the first k of the largest mean silhouette
        silhouettes = [parse_cell(cells[4]) for cells in by_k.values()]
        assert cells[4] == format_value(max(silhouettes))
        assert k_sel == min(k for k, cells in by_k.items()
                            if parse_cell(cells[4]) == max(silhouettes))


def test_repetition_files_recompute_curve_means(pipeline_out):
    out, _ = pipeline_out
    for rep in REPRESENTATIONS:
        reps_lines = (out / f"repetitions_{rep}.csv").read_text().splitlines()[1:]
        curve_lines = (out / f"curves_{rep}.csv").read_text().splitlines()[1:]
        per_k = {}
        for line in reps_lines:
            cells = line.split(",")
            per_k.setdefault(int(cells[0]), []).append(parse_cell(cells[3]))
        for line in curve_lines:
            cells = line.split(",")
            k = int(cells[0])
            mean_purity = sum(per_k[k]) / len(per_k[k])
            assert parse_cell(cells[1]) == pytest.approx(mean_purity)


def test_pipeline_without_gold(tmp_path, mini_corpus):
    out = tmp_path / "nogold"
    rows = run_pipeline(mini_corpus, None, tiny_config(), out)
    for row in rows:
        assert row.ratio is None and row.purity is None and row.ari is None
        assert row.silhouette is not None
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["gold"] is None
    assert "no gold standard: purity/ari/ratio columns are NA" in manifest["warnings"]
    first_row = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert first_row[3] == first_row[4] == first_row[5] == "NA"


def test_pipeline_file_level_determinism(tmp_path, mini_corpus, mini_gold):
    a, b = tmp_path / "a", tmp_path / "b"
    run_pipeline(mini_corpus, mini_gold, tiny_config(), a)
    run_pipeline(mini_corpus, mini_gold, tiny_config(), b)
    for file_a in sorted(a.iterdir()):
        assert file_a.read_bytes() == (b / file_a.name).read_bytes()


def test_pipeline_on_a_two_file_split_writes_the_single_file_bytes(
        tmp_path, mini_corpus_path, mini_gold):
    text = mini_corpus_path.read_text(encoding="utf-8")
    second = text.index("# newdoc", 1)
    split = tmp_path / "split"
    split.mkdir()
    (split / "a.conllu").write_text(text[:second], encoding="utf-8")
    (split / "b.conllu").write_text(text[second:], encoding="utf-8")
    one, two = tmp_path / "one", tmp_path / "two"
    run_pipeline(load_corpus(mini_corpus_path), mini_gold, tiny_config(), one)
    run_pipeline(load_corpus(split), mini_gold, tiny_config(), two)
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in two.iterdir())
    for name in names:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name


def test_extraction_stage_error_is_tagged(tmp_path):
    no_verbs = parse_conllu(conllu_sentence([(1, "sky", "sky", "NOUN", 0, "root")]) + "\n")
    with pytest.raises(PipelineError, match=r"\[extraction\] no couples extracted") as exc:
        build_representations(no_verbs, tiny_config(), tmp_path)
    assert exc.value.stage == "extraction"


def test_matrices_stage_error_is_tagged(mini_corpus, tmp_path):
    config = tiny_config(sweep=SweepConfig(k_min=2, k_max=5, repetitions=2,
                                           master_seed=7, sigma1=1e6))
    with pytest.raises(PipelineError, match=r"\[matrices\] sigma1 > 1000000.0"):
        build_representations(mini_corpus, config, tmp_path)


def test_build_representations_subset(mini_corpus, tmp_path):
    config = tiny_config(sweep=SweepConfig(k_min=2, k_max=5, repetitions=2,
                                           master_seed=7, sigma1=2.0, sigma2=0.5,
                                           representations=(NP_VPC, NP_VPC_TFIDF)))
    reps = build_representations(mini_corpus, config, tmp_path)
    assert set(reps) == {NP_VPC, NP_VPC_TFIDF}
    # the count representations are stored as their .mtx files only
    assert {p.name for p in tmp_path.iterdir()} == {
        "couples.tsv", "np_vpc.mtx", "np_vpc.mtx.rows", "np_vpc.mtx.cols",
        "np_vpc_tfidf.mtx", "np_vpc_tfidf.mtx.rows", "np_vpc_tfidf.mtx.cols"}
    assert np.array_equal(load_representation(tmp_path / "np_vpc.mtx").matrix,
                          reps[NP_VPC].matrix)


def test_representation_shapes_consistent(mini_corpus, tmp_path):
    reps = build_representations(mini_corpus, tiny_config(), tmp_path)
    assert reps[NP_VPC].matrix.shape[0] == len(reps[NP_VPC].row_labels)
    assert reps[NP_VPC_NMF].matrix.shape[1] == 5          # nmf_rank
    assert reps[NP_W2V].matrix.shape[1] == 16             # w2v_dim
    # count-based representations share the thresholded NP space
    assert reps[NP_VPC_NMF].row_labels == reps[NP_VPC].row_labels


def test_tfidf_is_the_count_geometry_when_sigma2_cuts_nothing(mini_corpus, mini_gold,
                                                              tmp_path):
    # tfidf_weight scales each NP row by one scalar, ln(M / df_i), and
    # every clusterer and index reads cosine geometry, which ignores it
    config = PipelineConfig(sweep=SweepConfig(representations=(NP_VPC, NP_VPC_TFIDF)))
    reps = build_representations(mini_corpus, config, tmp_path)
    assert reps[NP_VPC_TFIDF].matrix.shape == reps[NP_VPC].matrix.shape
    counts, tfidf = Geometry(reps[NP_VPC]), Geometry(reps[NP_VPC_TFIDF])
    assert tfidf.row_labels == counts.row_labels
    assert np.abs(tfidf.normalized - counts.normalized).max() <= 1e-15
    ap_rows = []
    for geometry in (counts, tfidf):
        clustering = affinity_propagation(geometry, config.ap)
        ap_rows.append((clustering.assignment, clustering.exemplars,
                        evaluate_clustering(geometry, clustering, mini_gold)))
    assert ap_rows[0] == ap_rows[1]


def quick_start_config():
    """README's quick-start flags as a config."""
    return PipelineConfig(
        sweep=SweepConfig(k_min=2, k_max=10, repetitions=3, master_seed=7,
                          sigma1=2.0, sigma2=0.5),
        nmf_rank=10, w2v_dim=32, w2v_epochs=3)


@pytest.fixture(scope="module")
def quick_start_runs(tmp_path_factory, mini_corpus, mini_gold):
    """The quick start's report rows, manifest and run directory, with and
    without the gold."""
    runs = {}
    for name, gold in (("gold", mini_gold), ("no_gold", None)):
        out = tmp_path_factory.mktemp(name)
        rows = run_pipeline(mini_corpus, gold, quick_start_config(), out)
        runs[name] = rows, json.loads((out / "manifest.json").read_text()), out
    return runs


def test_selected_k_does_not_depend_on_the_gold(quick_start_runs):
    with_gold, without_gold = (quick_start_runs[name][1]["selected_k"]
                               for name in ("gold", "no_gold"))
    assert with_gold == without_gold


def test_count_and_tfidf_km_rows_agree_when_their_geometry_does(quick_start_runs):
    # the sigma2 = 0.5 cut removes no NP row and no column on the mini
    # corpus, so the two are one cosine geometry, clustered once
    for rows, manifest, _ in quick_start_runs.values():
        assert (manifest["representations"][NP_VPC]
                == manifest["representations"][NP_VPC_TFIDF])
        by_key = {(row.clusterer, row.representation): row for row in rows}
        for clusterer in ("KM", "AP"):
            assert (dataclasses.replace(by_key[clusterer, NP_VPC_TFIDF],
                                        representation=NP_VPC)
                    == by_key[clusterer, NP_VPC])


def test_tfidf_twin_files_are_the_count_files(quick_start_runs):
    *_, out = quick_start_runs["gold"]
    for pattern in ("curves_{}.csv", "repetitions_{}.csv", "ap_{}.csv",
                    "ap_{}.csv.meta.json"):
        assert ((out / pattern.format(NP_VPC_TFIDF)).read_bytes()
                == (out / pattern.format(NP_VPC)).read_bytes()), pattern


def spy_on_clustering(monkeypatch):
    """The provenance of each geometry ``run_pipeline`` sweeps and runs AP on."""
    calls = {"run_sweep": [], "affinity_propagation": []}
    for attr, seen in calls.items():
        def spy(geometry, *args, _run=getattr(experiment, attr), _seen=seen, **kwargs):
            _seen.append(geometry.provenance)
            return _run(geometry, *args, **kwargs)
        monkeypatch.setattr(experiment, attr, spy)
    return calls


@pytest.mark.parametrize("sigma2, clustered", [
    # cuts nothing: NP_VPC_tfidf shares NP_VPC's geometry
    (0.5, [NP_VPC, NP_VPC_NMF, NP_W2V]),
    # keeps every row but cuts 2 of the 14 columns: a geometry of its own
    (3.0, list(REPRESENTATIONS))])
def test_each_distinct_geometry_is_swept_and_clustered_once(
        monkeypatch, mini_corpus, mini_gold, tmp_path, sigma2, clustered):
    calls = spy_on_clustering(monkeypatch)
    config = tiny_config(sweep=dataclasses.replace(tiny_config().sweep, sigma2=sigma2))
    run_pipeline(mini_corpus, mini_gold, config, tmp_path)
    assert calls == {"run_sweep": clustered, "affinity_propagation": clustered}


def test_tfidf_with_columns_cut_is_clustered_on_its_own_geometry(
        mini_corpus, mini_gold, tmp_path):
    config = tiny_config(sweep=dataclasses.replace(
        tiny_config().sweep, sigma2=3.0, representations=(NP_VPC, NP_VPC_TFIDF)))
    out = tmp_path / "run"
    run_pipeline(mini_corpus, mini_gold, config, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["representations"] == {NP_VPC: {"rows": 16, "cols": 14},
                                           NP_VPC_TFIDF: {"rows": 16, "cols": 12}}
    # the stage functions on NP_VPC_tfidf's own representation write its files
    own = tmp_path / "own"
    own.mkdir()
    geometry = Geometry(build_representations(mini_corpus, config, own)[NP_VPC_TFIDF])
    experiment.sweep(geometry, mini_gold, config.sweep, own / "curves.csv",
                     own / "repetitions.csv")
    experiment.cluster(geometry, config.ap, own / "ap.csv")
    for mine, pipeline in (("curves.csv", f"curves_{NP_VPC_TFIDF}.csv"),
                           ("repetitions.csv", f"repetitions_{NP_VPC_TFIDF}.csv"),
                           ("ap.csv", f"ap_{NP_VPC_TFIDF}.csv"),
                           ("ap.csv.meta.json", f"ap_{NP_VPC_TFIDF}.csv.meta.json")):
        assert (own / mine).read_bytes() == (out / pipeline).read_bytes(), mine
    assert ((out / f"curves_{NP_VPC_TFIDF}.csv").read_bytes()
            != (out / f"curves_{NP_VPC}.csv").read_bytes())


def test_default_run_reports_the_twin_clip_warning_under_its_own_name(
        caplog, mini_corpus, mini_gold, tmp_path):
    with caplog.at_level(logging.INFO, logger="termforge.experiment"):
        run_pipeline(mini_corpus, mini_gold, PipelineConfig(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    clips = [f"{name}: k_max 50 clipped to 21 (only 21 distinct rows)"
             for name in (NP_VPC, NP_VPC_TFIDF)]
    assert [w for w in manifest["warnings"] if "clipped to 21" in w] == clips
    logged = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert [m for m in logged if "clipped to 21" in m] == clips
    shared = [m for m in caplog.messages if "shares its sweep and AP" in m]
    assert shared == [f"{NP_VPC_TFIDF}: sigma2 cut nothing, so it has the cosine "
                      f"geometry of {NP_VPC} and shares its sweep and AP"]


def test_twin_reports_its_own_convergence_warnings(monkeypatch, caplog, mini_corpus,
                                                   mini_gold, tmp_path):
    # one K-Means iteration and an AP window longer than its iterations:
    # nothing converges, and each warning names its representation
    monkeypatch.setattr(experiment, "kmeans_cell", lambda master, k, r: KmeansConfig(
        k=k, seed=derive_seed(master, k, r), max_iter=1))
    config = tiny_config(sweep=dataclasses.replace(
                             tiny_config().sweep, k_max=3,
                             representations=(NP_VPC, NP_VPC_TFIDF)),
                         ap=ApConfig(max_iter=5, convergence_window=10))
    with caplog.at_level(logging.WARNING, logger="termforge.experiment"):
        run_pipeline(mini_corpus, mini_gold, config, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    expected = [warning
                for name in (NP_VPC, NP_VPC_TFIDF)
                for warning in (*(f"{name} k={k}: every K-Means cell (2 repetition(s)) "
                                  "hit max_iter before converging" for k in (2, 3)),
                                f"{name}: {AP_NOT_CONVERGED}")]
    assert manifest["warnings"] == expected
    assert caplog.messages == expected


class _Couples(list):
    """The extracted couples in a list that takes weak references."""


def test_couples_are_freed_before_nmf(monkeypatch, mini_corpus, tmp_path):
    extract, fit = experiment.extract_corpus, experiment.nmf
    refs, freed = [], []

    def extract_weakly(*args, **kwargs):
        couples = _Couples(extract(*args, **kwargs))
        refs.append(weakref.ref(couples))
        return couples

    def fit_checking(*args, **kwargs):
        freed.append(refs[0]() is None)
        return fit(*args, **kwargs)

    monkeypatch.setattr(experiment, "extract_corpus", extract_weakly)
    monkeypatch.setattr(experiment, "nmf", fit_checking)
    build_representations(mini_corpus, tiny_config(), tmp_path)
    assert freed == [True]


@pytest.mark.parametrize("sigma2, clustered", [
    (0.5, [NP_VPC, NP_VPC_NMF, NP_W2V]),   # NP_VPC_tfidf shares NP_VPC's AP
    (3.0, list(REPRESENTATIONS))])         # NP_VPC_tfidf has its own
def test_dense_representation_is_freed_before_its_affinity_propagation(
        tmp_path, monkeypatch, mini_corpus, mini_gold, sigma2, clustered):
    build, ap = experiment.build_representations, experiment.affinity_propagation
    refs, freed = {}, {}

    def build_weakly(*args, **kwargs):
        reps = build(*args, **kwargs)
        refs.update((name, weakref.ref(rep.matrix)) for name, rep in reps.items())
        return reps

    def ap_checking(geometry, *args, **kwargs):
        freed[geometry.provenance] = {name: ref() is None for name, ref in refs.items()}
        return ap(geometry, *args, **kwargs)

    monkeypatch.setattr(experiment, "build_representations", build_weakly)
    monkeypatch.setattr(experiment, "affinity_propagation", ap_checking)
    config = tiny_config(sweep=dataclasses.replace(tiny_config().sweep, sigma2=sigma2))
    run_pipeline(mini_corpus, mini_gold, config, tmp_path)
    assert list(freed) == clustered
    for name in clustered:
        assert freed[name][name], name
    # a twin's matrix is never clustered; it is freed before the first AP
    assert freed[NP_VPC][NP_VPC_TFIDF] == (NP_VPC_TFIDF not in clustered)


def test_pipeline_config_scheme_validation():
    with pytest.raises(ValueError, match="unknown label scheme 'stanford'"):
        PipelineConfig(scheme="stanford")

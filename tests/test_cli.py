import contextlib
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import termforge
from termforge import cli
from termforge.cli import main
from termforge.clustering import AP_NOT_CONVERGED, ApConfig, KmeansConfig, load_clustering
from termforge.corpus import load_corpus
from termforge.embeddings import SkipgramConfig, load_embeddings
from termforge.experiment import REPORT_HEADER, PipelineConfig, SweepConfig, derive_seed
from termforge.extraction import ExtractionConfig, extract_corpus, read_couples_tsv
from termforge.matrices import (
    NP_VPC,
    NP_VPC_TFIDF,
    Thresholds,
    load_matrix,
    load_representation,
)
from util import conllu_sentence

SIGMAS = ["--sigma1", "2", "--sigma2", "0.5"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_cli_process(argv):
    """The CLI in a fresh interpreter, whose stderr holds what a shell sees:
    the printed lines and the logged ones (in process, pytest's log capture
    keeps the logged lines out of stderr)."""
    env = dict(os.environ, PYTHONPATH=str(Path(termforge.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "termforge.cli", *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, mini_corpus_path):
    """One run of the whole stage chain; tests pick over the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    corpus = str(mini_corpus_path)
    steps = [
        ["extract", corpus, "-o", str(root / "couples.tsv")],
        ["featurize", str(root / "couples.tsv"), "-o", str(root / "mat")] + SIGMAS,
        ["encode", "nmf", str(root / "mat" / "np_vpc.mtx"),
         "-o", str(root / "rep_nmf.txt"), "--h-out", str(root / "h.txt"),
         "--rank", "5", "--max-iter", "100"],
        ["encode", "w2v", corpus, "-o", str(root / "emb.txt"),
         "--dim", "16", "--epochs", "2",
         "--compose", str(root / "mat" / "np_vpc.mtx.rows"),
         "--rep-out", str(root / "rep_w2v.txt")],
        ["cluster", "kmeans", str(root / "mat" / "np_vpc.mtx"),
         "-o", str(root / "km.csv"), "-k", "3", "--seed", "7"],
        ["cluster", "ap", str(root / "mat" / "np_vpc.mtx"),
         "-o", str(root / "ap.csv")],
    ]
    for argv in steps:
        code, _, err = run_cli(argv)
        assert code == 0, f"{argv} failed: {err}"
    return root


def test_stats_csv(mini_corpus_path):
    code, out, _ = run_cli(["stats", str(mini_corpus_path)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "corpus,n_documents,n_sentences,n_words,words_per_document"
    assert lines[1] == f"{mini_corpus_path},2,52,322,161.0"


def test_stats_quotes_a_path_with_a_comma(mini_corpus_path, tmp_path):
    corpus = tmp_path / "a,b" / "c.conllu"
    corpus.parent.mkdir()
    shutil.copyfile(mini_corpus_path, corpus)
    code, out, _ = run_cli(["stats", str(corpus)])
    assert code == 0
    lines = list(csv.reader(io.StringIO(out)))
    assert [len(line) for line in lines] == [5, 5]
    assert lines[1][0] == str(corpus)


def test_stats_multiple_corpora(mini_corpus_path, demo_path):
    code, out, _ = run_cli(["stats", str(mini_corpus_path), str(demo_path)])
    assert code == 0
    assert len(out.splitlines()) == 3


def test_extract_matches_library(workdir, mini_corpus_path):
    couples = read_couples_tsv(workdir / "couples.tsv")
    expected = extract_corpus(load_corpus(mini_corpus_path))
    assert couples == expected


def test_stages_write_the_pipeline_bytes(workdir, tmp_path, mini_corpus_path,
                                        mini_gold_path):
    # README's stages with the quick-start settings: workdir ran extract,
    # featurize and cluster ap; every --seed is the master seed, so each
    # stage draws the pipeline's stream.  The sweep is the pipeline's NP_VPC
    # sweep, though its provenance is the file stem: a cell's seed holds no name
    run, stages = tmp_path / "mini_run", tmp_path / "stages"
    stages.mkdir()
    counts = workdir / "mat" / "np_vpc.mtx"
    for argv in (
            ["pipeline", "--corpus", str(mini_corpus_path), "--gold", str(mini_gold_path),
             "--out", str(run), "--sigma1", "2", "--sigma2", "0.5", "--k-min", "2",
             "--k-max", "10", "--reps", "3", "--seed", "7",
             "--nmf-rank", "10", "--w2v-dim", "32", "--w2v-epochs", "3"],
            ["encode", "nmf", str(counts), "-o", str(stages / "w.txt"),
             "--rank", "10", "--seed", "7"],
            ["encode", "w2v", str(mini_corpus_path), "-o", str(stages / "vecs.txt"),
             "--dim", "32", "--epochs", "3", "--seed", "7",
             "--compose", str(workdir / "mat" / "np_vpc.mtx.rows"),
             "--rep-out", str(stages / "rep_NP_w2v.txt")],
            ["cluster", "kmeans", str(counts), "-o", str(stages / "km.csv"),
             "-k", "4", "--seed", "7"],
            ["sweep", str(counts),
             "-o", str(stages / "curves.csv"), "--gold", str(mini_gold_path),
             "--k-min", "2", "--k-max", "10", "--reps", "3", "--seed", "7",
             "--repetitions-out", str(stages / "repetitions.csv")]):
        code, _, err = run_cli(argv)
        assert code == 0, err
    same = {"couples.tsv": workdir / "couples.tsv",
            "rep_NP_VPC_NMF.txt": stages / "w.txt",
            "embeddings.txt": stages / "vecs.txt",
            "rep_NP_w2v.txt": stages / "rep_NP_w2v.txt",
            f"ap_{NP_VPC}.csv": workdir / "ap.csv",
            f"ap_{NP_VPC}.csv.meta.json": workdir / "ap.csv.meta.json",
            f"curves_{NP_VPC}.csv": stages / "curves.csv",
            f"repetitions_{NP_VPC}.csv": stages / "repetitions.csv"}
    for name in ("np_vpc.mtx", "np_vpc_tfidf.mtx"):
        for suffix in ("", ".rows", ".cols"):
            same[name + suffix] = workdir / "mat" / (name + suffix)
    for name, stage_output in same.items():
        assert stage_output.read_bytes() == (run / name).read_bytes(), name

    # cluster kmeans -k 4 is the sweep's cell (4, 0): its seed and indices
    code, _, err = run_cli(["evaluate", str(stages / "km.csv"), str(counts),
                            str(mini_gold_path), "-o", str(stages / "km_row.csv")])
    assert code == 0, err
    cell = next(line.split(",") for line in (run / f"repetitions_{NP_VPC}.csv")
                .read_text().splitlines() if line.startswith("4,0,"))
    assert (stages / "km_row.csv").read_text().splitlines()[1].split(",")[4:8] == cell[3:7]
    meta = json.loads((stages / "km.csv.meta.json").read_text())
    assert meta["config"]["seed"] == int(cell[2])

    # evaluate on cluster ap's file writes report.csv's header and AP row
    code, _, err = run_cli(["evaluate", str(workdir / "ap.csv"), str(counts),
                            str(mini_gold_path), "--representation", NP_VPC,
                            "-o", str(stages / "ap_row.csv")])
    assert code == 0, err
    header, *rows = (run / "report.csv").read_text().splitlines(keepends=True)
    ap_row = next(row for row in rows if row.startswith(f"AP,{NP_VPC},"))
    assert (stages / "ap_row.csv").read_text() == header + ap_row


def test_extract_without_couples_fails_and_writes_nothing(tmp_path):
    no_verbs = tmp_path / "sky.conllu"
    no_verbs.write_text(conllu_sentence([(1, "sky", "sky", "NOUN", 0, "root")]) + "\n")
    out = tmp_path / "couples.tsv"
    code, _, err = run_cli(["extract", str(no_verbs), "-o", str(out)])
    assert code == 1
    assert "error: no couples extracted from the corpus" in err
    assert not out.exists()


def test_featurize_without_couples_fails_and_writes_nothing(tmp_path):
    couples = tmp_path / "couples.tsv"
    couples.write_text("vpc\trole\tnp\tsentence_id\n")
    out = tmp_path / "mats"
    code, _, err = run_cli(["featurize", str(couples), "-o", str(out)])
    assert code == 1
    assert f"error: no couples extracted from {couples}" in err
    assert not out.exists()


def test_featurize_outputs(workdir):
    # each matrix is its .mtx and sidecars; no dense copy of the counts
    mat = workdir / "mat"
    names = ("subject", "object", "merged", "np_vpc", "np_vpc_tfidf")
    assert {p.name for p in mat.iterdir()} == {
        f"{name}.mtx{suffix}" for name in names for suffix in ("", ".rows", ".cols")}
    counts = load_matrix(mat / "np_vpc.mtx")
    assert counts.shape == (16, 14)
    # thresholded count sums all clear the sigma1=2 cutoff
    assert counts.row_sums().min() > 2.0
    rep = load_representation(mat / "np_vpc.mtx")
    assert rep.row_labels == counts.row_labels and rep.provenance == "np_vpc"
    assert np.array_equal(rep.matrix, counts.toarray())
    assert load_representation(mat / "np_vpc_tfidf.mtx").provenance == "np_vpc_tfidf"


def test_encode_nmf_output(workdir):
    rep = load_representation(workdir / "rep_nmf.txt")
    counts = load_matrix(workdir / "mat" / "np_vpc.mtx")
    assert rep.row_labels == counts.row_labels
    assert rep.matrix.shape == (16, 5)
    assert np.all(rep.matrix >= 0)
    h = load_representation(workdir / "h.txt")
    assert h.row_labels == ("0", "1", "2", "3", "4")
    assert h.matrix.shape == (5, 14)
    assert np.all(h.matrix >= 0)


def test_encode_nmf_logs_its_result_once(workdir, tmp_path, caplog):
    with caplog.at_level("INFO", logger="termforge"):
        code, _, _ = run_cli(["-v", "encode", "nmf", str(workdir / "mat" / "np_vpc.mtx"),
                              "-o", str(tmp_path / "w.txt"), "--rank", "5"])
    assert code == 0
    reports = [m for m in caplog.messages if "iterations" in m]
    assert len(reports) == 1 and reports[0].startswith("nmf: 16x14, rank 5: ")


def test_encode_nmf_without_iterations_fails_and_writes_nothing(workdir, tmp_path):
    out = tmp_path / "w.txt"
    code, _, err = run_cli(["encode", "nmf", str(workdir / "mat" / "np_vpc.mtx"),
                            "-o", str(out), "--rank", "3", "--max-iter", "0"])
    assert code == 1 and err == "error: nmf_max_iter must be >= 1, got 0\n"
    assert not out.exists()


def test_encode_w2v_output(workdir):
    table = load_embeddings(workdir / "emb.txt")
    assert table.dim == 16
    rep = load_representation(workdir / "rep_w2v.txt")
    assert 0 < rep.n_rows <= 16
    assert all(any(w in table.vocab for w in key.split())
               for key in rep.row_labels)


def test_encode_w2v_drops_a_byte_order_mark_from_the_compose_keys(
        workdir, tmp_path, mini_corpus_path):
    keys = (workdir / "mat" / "np_vpc.mtx.rows").read_bytes()
    outputs = []
    for name, prefix in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / f"{name}.rows").write_bytes(prefix + keys)
        code, _, err = run_cli(["encode", "w2v", str(mini_corpus_path),
                                "-o", str(tmp_path / f"emb_{name}.txt"),
                                "--dim", "8", "--epochs", "1",
                                "--compose", str(tmp_path / f"{name}.rows"),
                                "--rep-out", str(tmp_path / f"rep_{name}.txt")])
        assert code == 0, err
        outputs.append((tmp_path / f"rep_{name}.txt").read_bytes())
    assert outputs[0] == outputs[1]


def test_cluster_kmeans_output(workdir):
    clustering = load_clustering(workdir / "km.csv")
    assert clustering.algorithm == "kmeans"
    assert clustering.n_clusters == 3
    meta = json.loads((workdir / "km.csv.meta.json").read_text())
    # --seed names the master seed: the run is the sweep's cell (3, 0)
    assert meta["config"] == dataclasses.asdict(KmeansConfig(k=3, seed=derive_seed(7, 3, 0)))


def test_cluster_ap_output(workdir):
    clustering = load_clustering(workdir / "ap.csv")
    assert clustering.algorithm == "affinity_propagation"
    assert clustering.exemplars is not None
    meta = json.loads((workdir / "ap.csv.meta.json").read_text())
    assert meta["config"]["preference"] == "median"


def test_cluster_ap_numeric_preference(workdir, tmp_path):
    out = tmp_path / "ap_hi.csv"
    code, _, _ = run_cli(["cluster", "ap", str(workdir / "mat" / "np_vpc.mtx"),
                          "-o", str(out), "--preference", "2.0"])
    assert code == 0
    assert load_clustering(out).n_clusters == 16   # singletons at high preference


@pytest.mark.parametrize("preference", ["nan", "inf", "-inf"])
def test_cluster_ap_rejects_a_non_finite_preference(workdir, tmp_path, preference):
    # it ran to max_iter and wrote "preference": NaN, which is not JSON
    out = tmp_path / "ap.csv"
    code, _, err = run_cli(["cluster", "ap", str(workdir / "mat" / "np_vpc.mtx"),
                            "-o", str(out), f"--preference={preference}"])
    assert code == 1
    assert "error:" in err and "preference" in err
    assert not out.exists()


def test_evaluate_row(workdir, mini_gold_path, tmp_path):
    row = tmp_path / "row.csv"
    code, out, _ = run_cli(["evaluate", str(workdir / "km.csv"),
                            str(workdir / "mat" / "np_vpc.mtx"),
                            str(mini_gold_path), "--representation", NP_VPC,
                            "-o", str(row)])
    assert code == 0 and out == ""
    lines = row.read_text().splitlines()
    assert lines[0] == ",".join(REPORT_HEADER)
    cells = lines[1].split(",")
    assert cells[0] == "KM" and cells[1] == NP_VPC
    assert cells[2] == "3" and cells[3] == "1.0"
    assert 0.0 <= float(cells[4]) <= 1.0


def test_evaluate_quotes_a_representation_name_with_a_comma(workdir, mini_gold_path,
                                                            tmp_path):
    row = tmp_path / "row.csv"
    code, _, err = run_cli(["evaluate", str(workdir / "km.csv"),
                            str(workdir / "mat" / "np_vpc.mtx"),
                            str(mini_gold_path), "--representation", "NP,VPC",
                            "-o", str(row)])
    assert code == 0, err
    with open(row, newline="", encoding="utf-8") as fh:
        lines = list(csv.reader(fh))
    assert [len(line) for line in lines] == [8, 8]
    assert lines[1][1] == "NP,VPC"


def test_evaluate_rejects_label_mismatch(workdir, mini_gold_path, tmp_path):
    other = tmp_path / "other_rep.txt"
    other.write_text("2 2\nalpha\t1.0 0.0\nbeta\t0.0 1.0\n")
    code, _, err = run_cli(["evaluate", str(workdir / "km.csv"), str(other),
                            str(mini_gold_path), "-o", str(tmp_path / "row.csv")])
    assert code == 1
    assert "error:" in err and "label sets differ" in err


def test_evaluate_names_a_clustering_in_another_row_order(workdir, mini_gold_path, tmp_path):
    header, *rows = (workdir / "km.csv").read_text().splitlines()
    reordered = tmp_path / "km.csv"
    reordered.write_text("\n".join([header, *rows[::-1]]) + "\n")
    code, _, err = run_cli(["evaluate", str(reordered),
                            str(workdir / "mat" / "np_vpc.mtx"), str(mini_gold_path),
                            "-o", str(tmp_path / "row.csv")])
    assert code == 1
    assert ("error: clustering and representation hold the same NP keys in another "
            "order: they first differ at position 0;") in err, err


def test_sweep_command(workdir, mini_gold_path, tmp_path):
    curves = tmp_path / "curves.csv"
    raw = tmp_path / "raw.csv"
    code, _, err = run_cli(["sweep", str(workdir / "mat" / "np_vpc.mtx"),
                            "-o", str(curves), "--gold", str(mini_gold_path),
                            "--k-min", "2", "--k-max", "4", "--reps", "2",
                            "--repetitions-out", str(raw)])
    assert code == 0
    lines = curves.read_text().splitlines()
    assert lines[0] == "k,purity,ari,dunn2,silhouette"
    assert [l.split(",")[0] for l in lines[1:]] == ["2", "3", "4"]
    assert len(raw.read_text().splitlines()) == 1 + 3 * 2


def test_sweep_clip_warning_on_stderr(workdir, tmp_path):
    done = run_cli_process(["sweep", workdir / "mat" / "np_vpc.mtx",
                            "-o", tmp_path / "c.csv",
                            "--k-min", "2", "--k-max", "99", "--reps", "1"])
    assert done.returncode == 0, done.stderr
    assert "warning: np_vpc: k_max 99 clipped to 16" in done.stderr
    assert done.stderr.count("clipped") == 1, done.stderr


def test_cluster_ap_warning_names_the_representation(workdir, tmp_path):
    # a convergence window longer than the iterations: AP never settles
    done = run_cli_process(["cluster", "ap", workdir / "mat" / "np_vpc.mtx",
                            "-o", tmp_path / "ap.csv",
                            "--max-iter", "2", "--convergence-window", "50"])
    assert done.returncode == 0, done.stderr
    assert done.stderr == f"warning: np_vpc: {AP_NOT_CONVERGED}\n"


def test_pipeline_ap_warning_on_stderr_once(tmp_path, mini_corpus_path, mini_gold_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "ap": {"max_iter": 5, "convergence_window": 5},
        "sweep": {"k_min": 2, "k_max": 4, "repetitions": 1,
                  "representations": [NP_VPC], "sigma1": 2.0}}))
    out = tmp_path / "run"
    done = run_cli_process(["pipeline", "--corpus", mini_corpus_path, "--gold", mini_gold_path,
                            "--out", out, "--config", config])
    assert done.returncode == 0, done.stderr
    warning = f"{NP_VPC}: {AP_NOT_CONVERGED}"
    assert warning in json.loads((out / "manifest.json").read_text())["warnings"]
    assert done.stderr.count(AP_NOT_CONVERGED) == 1, done.stderr
    assert f"WARNING termforge.experiment: {warning}\n" in done.stderr


def test_encode_w2v_fails_when_every_np_key_is_dropped(tmp_path, mini_corpus_path):
    keys = tmp_path / "keys.txt"
    keys.write_text("zither\nquartz harp\n")
    rep_out = tmp_path / "rep_NP_w2v.txt"
    code, _, err = run_cli(["encode", "w2v", str(mini_corpus_path),
                            "-o", str(tmp_path / "vecs.txt"), "--dim", "8", "--epochs", "1",
                            "--compose", str(keys), "--rep-out", str(rep_out)])
    assert code == 1
    assert "error: NP_w2v: all 2 NP key(s) dropped" in err, err
    assert not rep_out.exists()


def test_pipeline_fails_at_representations_when_np_w2v_is_empty(
        tmp_path, mini_corpus_path, mini_gold_path):
    # at min-count 30 no word of an NP key is in the vocabulary
    out = tmp_path / "run"
    code, _, err = run_cli(["pipeline", "--corpus", str(mini_corpus_path),
                            "--gold", str(mini_gold_path), "--out", str(out),
                            "--representations", "NP_w2v", "--w2v-min-count", "30",
                            "--w2v-dim", "8", "--w2v-epochs", "1", "--k-max", "5",
                            "--reps", "1"])
    assert code == 1
    assert "error: [representations] NP_w2v: all 23 NP key(s) dropped" in err, err
    assert not (out / "rep_NP_w2v.txt").exists()


PIPELINE_FLAGS = ["--sigma1", "2", "--sigma2", "0.5", "--k-min", "2",
                  "--k-max", "5", "--reps", "2", "--seed", "7",
                  "--nmf-rank", "5", "--w2v-dim", "16", "--w2v-epochs", "2"]


def test_pipeline_command(tmp_path, mini_corpus_path, mini_gold_path):
    out = tmp_path / "run"
    code, _, err = run_cli(["pipeline", "--corpus", str(mini_corpus_path),
                            "--gold", str(mini_gold_path), "--out", str(out)]
                           + PIPELINE_FLAGS)
    assert code == 0, err
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 9
    assert (out / "manifest.json").exists()


def test_pipeline_refuses_a_non_empty_out(tmp_path, mini_corpus_path, mini_gold_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.csv").write_text("an earlier run's report\n")
    code, _, err = run_cli(["pipeline", "--corpus", str(mini_corpus_path), "--gold",
                            str(mini_gold_path), "--out", str(out)] + PIPELINE_FLAGS)
    assert code == 1 and err == f"error: output directory {out} is not empty\n", err
    assert [p.name for p in out.iterdir()] == ["report.csv"]
    assert (out / "report.csv").read_text() == "an earlier run's report\n"


def test_pipeline_refuses_a_non_empty_out_before_loading_anything(
        monkeypatch, tmp_path, mini_gold_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "report.csv").write_text("an earlier run's report\n")
    for name in ("load_corpus", "load_gold_standard"):
        monkeypatch.setattr(cli, name, lambda *args: pytest.fail("loaded an input"))
    code, _, err = run_cli(["pipeline", "--corpus", "c.conllu", "--gold",
                            str(mini_gold_path), "--out", str(out)])
    assert code == 1 and err == f"error: output directory {out} is not empty\n", err


def test_pipeline_config_from_a_manifest_writes_the_same_artifacts(
        tmp_path, mini_corpus_path, mini_gold_path):
    inputs = ["--corpus", str(mini_corpus_path), "--gold", str(mini_gold_path)]
    first, again = tmp_path / "run", tmp_path / "again"
    code, _, err = run_cli(["pipeline", *inputs, "--out", str(first)] + PIPELINE_FLAGS)
    assert code == 0, err
    code, _, err = run_cli(["pipeline", *inputs, "--out", str(again),
                            "--config", str(first / "manifest.json")])
    assert code == 0, err
    written = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in again.iterdir()) == written
    for name in written:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_pipeline_config_sets_fields_without_flags_and_flags_override_it(
        monkeypatch, tmp_path):
    config = PipelineConfig(
        sweep=SweepConfig(k_min=3, k_max=9, master_seed=4, sigma2=0.5,
                          representations=(NP_VPC,)),
        nmf_max_iter=50, nmf_tol=1e-3, w2v_negatives=3,
        ap=ApConfig(preference=-0.5, damping=0.7, max_iter=300, convergence_window=20))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"config": dataclasses.asdict(config)}))
    capture(monkeypatch, "cli.run_pipeline", "load_corpus")
    argv = ["pipeline", "--corpus", "c", "--out", "o", "--config", str(manifest)]
    (_, _, passed, _), _ = config_passed(argv)
    assert passed == config
    (_, _, passed, _), _ = config_passed(argv + ["--seed", "8", "--nmf-rank", "6"])
    assert passed == dataclasses.replace(
        config, nmf_rank=6, sweep=dataclasses.replace(config.sweep, master_seed=8))

    bare = tmp_path / "config.json"   # the config object alone reads the same
    bare.write_text(json.dumps({"ap": {"damping": 0.8}}))
    (_, _, passed, _), _ = config_passed(argv[:-1] + [str(bare)])
    assert passed == PipelineConfig(ap=ApConfig(damping=0.8))


@pytest.mark.parametrize("text,fragment", [
    ('{"config": {"nmf_ranks": 5}}', "unexpected keyword argument 'nmf_ranks'"),
    # a manifest written while k had a selection rule to name
    ('{"config": {"sweep": {"selection": "FirstPeak", "peak_floor": 0.9}}}',
     "unexpected keyword argument 'selection'"),
    ('[1, 2]', "bad pipeline config"),
    ('{"config": ', "Expecting value"),
    ('{"nmf_max_iter": 0}', "nmf_max_iter must be >= 1, got 0"),
    # a run with no representation wrote couples, matrices and an empty report
    ('{"sweep": {"representations": []}}',
     "representations must name at least one representation"),
    # each name ran once but was written twice into the manifest
    ('{"sweep": {"representations": ["NP_VPC", "NP_VPC"]}}',
     "repeated representations in ['NP_VPC', 'NP_VPC']"),
    # a string was read as its characters
    ('{"sweep": {"representations": "NP_VPC"}}',
     "sweep.representations must be a list of names, got 'NP_VPC'"),
])
def test_pipeline_rejects_a_bad_config_file(tmp_path, mini_corpus_path, text, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "o"
    code, _, err = run_cli(["pipeline", "--corpus", str(mini_corpus_path), "--out", str(out),
                            "--config", str(bad)])
    assert code == 1 and err.startswith(f"error: {bad}: ") and fragment in err, err
    assert not out.exists()


def test_pipeline_missing_gold_fails_before_loading_the_corpus(monkeypatch, tmp_path):
    # as in evaluate and sweep --gold; a run without gold omits --gold
    out = tmp_path / "run"
    missing = tmp_path / "nope.tsv"
    monkeypatch.setattr(cli, "load_corpus", lambda *args: pytest.fail("loaded the corpus"))
    code, _, err = run_cli(["pipeline", "--corpus", "c.conllu",
                            "--gold", str(missing), "--out", str(out)]
                           + PIPELINE_FLAGS)
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n", err
    assert not out.exists()


def test_pipeline_representation_subset(tmp_path, mini_corpus_path, mini_gold_path):
    out = tmp_path / "run"
    code, _, _ = run_cli(["pipeline", "--corpus", str(mini_corpus_path),
                          "--gold", str(mini_gold_path), "--out", str(out),
                          "--representations", NP_VPC, NP_VPC_TFIDF]
                         + PIPELINE_FLAGS)
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 5   # KM and AP rows for two representations


def test_doubled_corpus_gives_the_count_representations_the_same_results(
        tmp_path, mini_corpus_path, mini_gold_path):
    # every count doubles and every direction stays, so the count path,
    # which reads only the cosine geometry, writes the same clusterings
    text = mini_corpus_path.read_text()
    copy = "".join(line.replace(" = ", " = copy-", 1)
                   if line.startswith(("# newdoc id = ", "# sent_id = ")) else line
                   for line in text.splitlines(keepends=True))
    doubled = tmp_path / "doubled.conllu"
    doubled.write_text(text + copy)
    runs = {}
    for corpus in (mini_corpus_path, doubled):
        runs[corpus] = out = tmp_path / corpus.stem
        code, _, err = run_cli(["pipeline", "--corpus", str(corpus), "--gold",
                                str(mini_gold_path), "--out", str(out),
                                "--representations", NP_VPC, NP_VPC_TFIDF,
                                "--sigma1", "0", "--sigma2", "0", "--k-min", "2",
                                "--k-max", "10", "--reps", "3", "--seed", "7"])
        assert code == 0, err
    counts = [load_matrix(runs[corpus] / "np_vpc.mtx") for corpus in (mini_corpus_path, doubled)]
    assert counts[1].row_labels == counts[0].row_labels
    assert np.array_equal(counts[1].toarray(), 2 * counts[0].toarray())
    names = ["report.csv", f"repetitions_{NP_VPC}.csv"] + [
        f"{kind}_{name}.csv" for kind in ("ap", "curves") for name in (NP_VPC, NP_VPC_TFIDF)]
    for name in names:
        assert ((runs[doubled] / name).read_bytes()
                == (runs[mini_corpus_path] / name).read_bytes()), name


def test_errors_exit_one_with_message(tmp_path, workdir):
    code, _, err = run_cli(["stats", str(tmp_path / "missing.conllu")])
    assert code == 1 and err.startswith("error:")

    code, _, err = run_cli(["cluster", "kmeans",
                            str(workdir / "mat" / "np_vpc.mtx"),
                            "-o", str(tmp_path / "x.csv"), "-k", "99"])
    assert code == 1 and "exceeds the 16 distinct rows" in err

    code, _, err = run_cli(["featurize", str(workdir / "couples.tsv"),
                            "-o", str(tmp_path / "m"), "--sigma1", "1000"])
    assert code == 1 and "eliminated every row" in err

    bad = tmp_path / "bad_rep.txt"
    bad.write_text("3\nalpha\t1.0\n")
    code, _, err = run_cli(["cluster", "ap", str(bad), "-o", str(tmp_path / "y.csv")])
    assert code == 1 and f"error: {bad}: bad header '3'" in err


@pytest.mark.parametrize("stage", [
    ["cluster", "kmeans", "{rep}", "-o", "{out}", "-k", "2"],
    ["cluster", "ap", "{rep}", "-o", "{out}"],
    ["evaluate", "{clustering}", "{rep}", "{gold}", "-o", "{out}"],
    ["sweep", "{rep}", "-o", "{out}", "--k-max", "3"],
], ids=["kmeans", "ap", "evaluate", "sweep"])
def test_stages_reject_a_repeated_representation_key(tmp_path, workdir, mini_gold_path,
                                                      stage):
    rep = tmp_path / "rep.txt"
    rep.write_text("4 2\na\t1.0 0.0\nb\t0.0 1.0\na\t1.0 1.0\nc\t1.0 0.2\n")
    out = tmp_path / "out.csv"
    argv = [arg.format(rep=rep, out=out, clustering=workdir / "km.csv",
                       gold=mini_gold_path) for arg in stage]
    code, stdout, err = run_cli(argv)
    assert code == 1 and stdout == "", err
    assert err == f"error: {rep}: row 2 repeats the key 'a' of row 0\n"
    assert not out.exists()


def write_counts_mtx(directory: Path, value: str) -> Path:
    """A 3x2 count .mtx with sidecars whose entry (3, 1) is ``value``."""
    mtx = directory / "counts.mtx"
    mtx.write_text("%%MatrixMarket matrix coordinate real general\n%\n3 2 4\n"
                   f"1 1 1\n2 2 2\n3 1 {value}\n3 2 1\n")
    (directory / "counts.mtx.rows").write_text("jazz band\nlab\nwide net\n")
    (directory / "counts.mtx.cols").write_text("play\nrun\n")
    return mtx


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cluster_names_the_mtx_file_and_key_of_a_non_finite_entry(tmp_path, value):
    mtx = write_counts_mtx(tmp_path, value)
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run_cli(["cluster", "kmeans", str(mtx),
                                 "-o", str(tmp_path / "km.csv"), "-k", "2"])
    assert code == 1 and stdout == ""
    assert err == f"error: {mtx}: row 2 (wide net) has non-finite values\n"
    assert sorted(tmp_path.iterdir()) == before


def test_cluster_names_a_missing_mtx_sidecar(tmp_path):
    mtx = write_counts_mtx(tmp_path, "3")
    (tmp_path / "counts.mtx.rows").unlink()
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run_cli(["cluster", "kmeans", str(mtx),
                                 "-o", str(tmp_path / "km.csv"), "-k", "2"])
    assert code == 1 and stdout == ""
    assert err.startswith("error: ") and f"{mtx}.rows" in err, err
    assert sorted(tmp_path.iterdir()) == before


def test_cluster_drops_an_all_zero_row_of_a_dense_file_as_of_an_mtx(tmp_path):
    # the same 4x2 matrix, row b all zero, in both formats under one stem
    rows = {"a": "1.0 0.0", "b": "0.0 0.0", "c": "0.0 2.0", "d": "1.0 1.0"}
    (tmp_path / "rep.txt").write_text(
        "4 2\n" + "".join(f"{key}\t{values}\n" for key, values in rows.items()))
    (tmp_path / "rep.mtx").write_text("%%MatrixMarket matrix coordinate real general\n"
                                      "4 2 4\n1 1 1\n3 2 2\n4 1 1\n4 2 1\n")
    (tmp_path / "rep.mtx.rows").write_text("a\nb\nc\nd\n")
    (tmp_path / "rep.mtx.cols").write_text("x\ny\n")
    runs = {}
    for source in ("rep.txt", "rep.mtx"):
        out = tmp_path / source.replace(".", "_")
        out.mkdir()
        runs[source] = out, run_cli_process(["cluster", "kmeans", tmp_path / source,
                                             "-o", out / "km.csv", "-k", "2"])
    (txt_out, txt), (mtx_out, mtx) = runs.values()
    assert txt.returncode == mtx.returncode == 0, txt.stderr + mtx.stderr
    assert txt.stderr == mtx.stderr == (
        "WARNING termforge.matrices: rep: dropping 1 all-zero rows before clustering: b\n")
    for name in ("km.csv", "km.csv.meta.json"):
        assert (txt_out / name).read_bytes() == (mtx_out / name).read_bytes(), name


@pytest.mark.parametrize("command, flags, message", [
    ("pipeline", ["--sigma1", "-1"], "thresholds must be non-negative"),
    ("pipeline", ["--sigma1", "nan"], "thresholds must be non-negative"),
    ("pipeline", ["--nmf-rank", "0"], "nmf_rank must be >= 1, got 0"),
    ("pipeline", ["--w2v-dim", "0"], "dim, window, negatives and epochs must all be >= 1"),
    ("pipeline", ["--representations", NP_VPC, NP_VPC], "repeated representations"),
    ("featurize", ["--sigma2", "nan"], "thresholds must be non-negative"),
], ids=["negative sigma1", "nan sigma1", "zero nmf rank", "zero w2v dim",
        "repeated representation", "nan sigma2"])
def test_bad_config_values_fail_before_any_output(tmp_path, workdir, mini_corpus_path,
                                                  mini_gold_path, command, flags, message):
    out = tmp_path / "out"
    if command == "pipeline":
        argv = ["pipeline", "--corpus", str(mini_corpus_path), "--gold",
                str(mini_gold_path), "--out", str(out)] + PIPELINE_FLAGS + flags
    else:
        argv = ["featurize", str(workdir / "couples.tsv"), "-o", str(out)] + flags
    code, _, err = run_cli(argv)
    assert code == 1 and err.startswith("error: ") and message in err, err
    assert not out.exists()


def test_featurize_rejects_an_empty_couple_key(tmp_path):
    couples = tmp_path / "couples.tsv"
    couples.write_text("run\tsubject\tcat\ts1\nrun\tsubject\t\ts1\n")
    code, _, err = run_cli(["featurize", str(couples), "-o", str(tmp_path / "m")])
    assert code == 1 and "couples TSV line 2: empty np" in err
    assert not (tmp_path / "m").exists()


def test_pipeline_single_k_sweep(tmp_path, mini_corpus_path, mini_gold_path):
    # k_min = k_max, and k_max clipped down to k_min by the 16 distinct rows
    for k_min, k_max in (("3", "3"), ("16", "40")):
        out = tmp_path / f"run{k_min}"
        code, _, err = run_cli(["pipeline", "--corpus", str(mini_corpus_path),
                                "--gold", str(mini_gold_path), "--out", str(out),
                                "--sigma1", "2", "--sigma2", "0.5",
                                "--k-min", k_min, "--k-max", k_max, "--reps", "1",
                                "--representations", NP_VPC])
        assert code == 0, err
        km_row = (out / "report.csv").read_text().splitlines()[1].split(",")
        assert km_row[:3] == ["KM", NP_VPC, k_min]


# ------------------------------------------------- flags -> config objects

class Captured(Exception):
    """Raised by a stand-in library call, carrying its arguments."""


def capture(monkeypatch, call, *stubs):
    """Replace the library call ``call`` (``module.name`` within termforge)
    by one that raises ``Captured`` with its arguments, and the names
    ``stubs`` in the cli module by functions that return None."""
    def fake(*args, **kwargs):
        raise Captured(args, kwargs)
    monkeypatch.setattr(f"termforge.{call}", fake)
    for name in stubs:
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: None)


def config_passed(argv):
    """(positional args, keyword args) of the captured library call."""
    with pytest.raises(Captured) as info:
        main(argv)
    return info.value.args


def test_cli_defaults_are_the_config_defaults(monkeypatch, tmp_path):
    capture(monkeypatch, "experiment.extract_corpus", "load_corpus")
    (_, config), _ = config_passed(["extract", "c.conllu", "-o", "x"])
    assert config == ExtractionConfig.spacy()

    capture(monkeypatch, "cli.build_matrices", "read_couples_tsv")
    (_, config), _ = config_passed(["featurize", "c.tsv", "-o", str(tmp_path)])
    assert config == Thresholds()

    # without --seed, each stage takes its seed from the default master seed
    default = PipelineConfig()
    master = default.sweep.master_seed
    capture(monkeypatch, "experiment.nmf", "load_matrix")
    assert config_passed(["encode", "nmf", "m.mtx", "-o", "w"]) == ((None,), {
        "rank": default.nmf_rank, "max_iter": default.nmf_max_iter,
        "tol": default.nmf_tol, "seed": derive_seed(master, "nmf")})

    capture(monkeypatch, "experiment.train_skipgram", "load_corpus")
    (_, config), _ = config_passed(["encode", "w2v", "c.conllu", "-o", "e"])
    assert config == default.skipgram_config() == SkipgramConfig(seed=derive_seed(master, "w2v"))

    capture(monkeypatch, "experiment.kmeans", "load_representation", "Geometry")
    (_, config), _ = config_passed(["cluster", "kmeans", "r", "-o", "x", "-k", "3"])
    assert config == KmeansConfig(k=3, seed=derive_seed(master, 3, 0))

    capture(monkeypatch, "experiment.affinity_propagation", "load_representation", "Geometry")
    (_, config), _ = config_passed(["cluster", "ap", "r", "-o", "x"])
    assert config == ApConfig()

    capture(monkeypatch, "experiment.run_sweep", "load_representation", "Geometry")
    (_, _, config), _ = config_passed(["sweep", "r", "-o", "x"])
    assert config == SweepConfig()

    capture(monkeypatch, "cli.run_pipeline", "load_corpus")
    (_, _, config, _), _ = config_passed(["pipeline", "--corpus", "c", "--out", "o"])
    assert config == default


def test_readme_quick_start_flags_match_the_library_example(monkeypatch):
    capture(monkeypatch, "cli.run_pipeline", "load_corpus", "load_gold_standard")
    (_, _, config, _), _ = config_passed([
        "pipeline", "--corpus", "data/mini/corpus.conllu",
        "--gold", "data/mini/gold.tsv", "--out", "mini_run",
        "--sigma1", "2", "--sigma2", "0.5", "--k-min", "2", "--k-max", "10",
        "--reps", "3", "--seed", "7",
        "--nmf-rank", "10", "--w2v-dim", "32", "--w2v-epochs", "3"])
    assert config == PipelineConfig(
        sweep=SweepConfig(k_min=2, k_max=10, repetitions=3, master_seed=7,
                          sigma1=2.0, sigma2=0.5),
        nmf_rank=10, w2v_dim=32, w2v_epochs=3)


def test_cli_flags_convert_to_config_types(monkeypatch):
    capture(monkeypatch, "cli.run_pipeline", "load_corpus")
    (_, _, config, _), _ = config_passed([
        "pipeline", "--corpus", "c", "--out", "o",
        "--representations", NP_VPC_TFIDF, NP_VPC, "--seed", "11",
        "--scheme", "ud", "--root-only"])
    assert config.sweep.representations == (NP_VPC_TFIDF, NP_VPC)
    assert config.sweep.master_seed == 11
    assert (config.scheme, config.root_only) == ("ud", True)

    capture(monkeypatch, "experiment.run_sweep", "load_representation", "Geometry")
    (_, _, config), _ = config_passed(["sweep", "r", "-o", "x", "--seed", "5",
                                       "--reps", "4"])
    assert (config.master_seed, config.repetitions) == (5, 4)

    capture(monkeypatch, "experiment.affinity_propagation", "load_representation", "Geometry")
    (_, config), _ = config_passed(["cluster", "ap", "r", "-o", "x",
                                    "--preference", "0.5"])
    assert config.preference == 0.5 and isinstance(config.preference, float)

    capture(monkeypatch, "experiment.nmf", "load_matrix")
    _, kwargs = config_passed(["encode", "nmf", "m.mtx", "-o", "w",
                               "--rank", "4", "--seed", "2"])
    assert (kwargs["rank"], kwargs["seed"]) == (4, derive_seed(2, "nmf"))


@pytest.mark.parametrize("argv", [
    ["pipeline", "--corpus", "c", "--out", "o", "--scheme", "best"],
    ["cluster", "ap", "r", "-o", "x", "--preference", "high"],
])
def test_cli_rejects_bad_flag_values(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "invalid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pipeline", "--corpus", "c", "--out", "o", "--select", "global"],
    ["pipeline", "--corpus", "c", "--out", "o", "--peak-floor", "0.9"],
    ["sweep", "m.mtx", "-o", "c.csv", "--representation", NP_VPC],
    ["encode", "w2v", "c.conllu", "-o", "e", "--learning-rate", "0.05"],
    ["cluster", "kmeans", "r", "-o", "x", "-k", "3", "--max-iter", "50"],
    ["cluster", "kmeans", "r", "-o", "x", "-k", "3", "--rel-tol", "0.1"],
])
def test_cli_rejects_the_selection_flags_k_no_longer_reads(argv, capsys):
    # k is the silhouette maximum and a cell's seed holds no name, and each
    # stage takes only settings the pipeline has, so an old script's flag
    # fails loudly instead of being ignored
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err

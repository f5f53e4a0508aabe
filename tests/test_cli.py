import contextlib
import io
import json

import numpy as np
import pytest

from termforge import cli
from termforge.cli import main
from termforge.clustering import ApConfig, KmeansConfig, load_clustering
from termforge.corpus import load_corpus
from termforge.embeddings import SkipgramConfig, load_embeddings
from termforge.experiment import PipelineConfig, Selection, SweepConfig
from termforge.extraction import ExtractionConfig, extract_corpus, read_couples_tsv
from termforge.matrices import (
    MatrixKind,
    NP_VPC,
    NP_VPC_TFIDF,
    Thresholds,
    load_matrix,
    load_representation,
)

SIGMAS = ["--sigma1", "2", "--sigma2", "0.5"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
        ["cluster", "kmeans", str(root / "mat" / f"rep_{NP_VPC}.txt"),
         "-o", str(root / "km.csv"), "-k", "3", "--seed", "7"],
        ["cluster", "ap", str(root / "mat" / f"rep_{NP_VPC}.txt"),
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


def test_stats_multiple_corpora(mini_corpus_path, demo_path):
    code, out, _ = run_cli(["stats", str(mini_corpus_path), str(demo_path)])
    assert code == 0
    assert len(out.splitlines()) == 3


def test_extract_matches_library(workdir, mini_corpus_path):
    couples = read_couples_tsv(workdir / "couples.tsv")
    expected = extract_corpus(load_corpus(mini_corpus_path))
    assert couples == expected


def test_extract_header_flag(tmp_path, mini_corpus_path):
    out = tmp_path / "c.tsv"
    code, _, _ = run_cli(["extract", str(mini_corpus_path), "-o", str(out), "--header"])
    assert code == 0
    assert out.read_text().splitlines()[0] == "vpc\trole\tnp\tsentence_id"


def test_featurize_outputs(workdir):
    mat = workdir / "mat"
    for name in ("subject", "object", "merged", "np_vpc", "np_vpc_tfidf"):
        assert (mat / f"{name}.mtx").exists()
        assert (mat / f"{name}.mtx.rows").exists()
        assert (mat / f"{name}.mtx.cols").exists()
    counts = load_matrix(mat / "np_vpc.mtx", MatrixKind.MERGED_COUNTS)
    assert counts.shape == (16, 14)
    # thresholded count sums all clear the sigma1=2 cutoff
    assert counts.row_sums().min() > 2.0
    rep = load_representation(mat / f"rep_{NP_VPC}.txt")
    assert rep.row_labels == counts.row_labels
    assert (mat / f"rep_{NP_VPC_TFIDF}.txt").exists()


def test_encode_nmf_output(workdir):
    rep = load_representation(workdir / "rep_nmf.txt")
    counts = load_matrix(workdir / "mat" / "np_vpc.mtx", MatrixKind.MERGED_COUNTS)
    assert rep.row_labels == counts.row_labels
    assert rep.matrix.shape == (16, 5)
    assert np.all(rep.matrix >= 0)
    h = load_representation(workdir / "h.txt")
    assert h.row_labels == ("0", "1", "2", "3", "4")
    assert h.matrix.shape == (5, 14)
    assert np.all(h.matrix >= 0)


def test_encode_w2v_output(workdir):
    table = load_embeddings(workdir / "emb.txt")
    assert table.dim == 16
    rep = load_representation(workdir / "rep_w2v.txt")
    assert 0 < rep.n_rows <= 16
    assert all(any(w in table.vocab for w in key.split())
               for key in rep.row_labels)


def test_cluster_kmeans_output(workdir):
    clustering = load_clustering(workdir / "km.csv")
    assert clustering.algorithm == "kmeans"
    assert clustering.n_clusters == 3
    meta = json.loads((workdir / "km.csv.meta.json").read_text())
    assert meta["config"]["k"] == 3 and meta["config"]["seed"] == 7


def test_cluster_ap_output(workdir):
    clustering = load_clustering(workdir / "ap.csv")
    assert clustering.algorithm == "affinity_propagation"
    assert clustering.exemplars is not None
    meta = json.loads((workdir / "ap.csv.meta.json").read_text())
    assert meta["config"]["preference"] == "median"


def test_cluster_ap_numeric_preference(workdir, tmp_path):
    out = tmp_path / "ap_hi.csv"
    code, _, _ = run_cli(["cluster", "ap", str(workdir / "mat" / f"rep_{NP_VPC}.txt"),
                          "-o", str(out), "--preference", "2.0"])
    assert code == 0
    assert load_clustering(out).n_clusters == 16   # singletons at high preference


@pytest.mark.parametrize("preference", ["nan", "inf", "-inf"])
def test_cluster_ap_rejects_a_non_finite_preference(workdir, tmp_path, preference):
    # it ran to max_iter and wrote "preference": NaN, which is not JSON
    out = tmp_path / "ap.csv"
    code, _, err = run_cli(["cluster", "ap", str(workdir / "mat" / f"rep_{NP_VPC}.txt"),
                            "-o", str(out), f"--preference={preference}"])
    assert code == 1
    assert "error:" in err and "preference" in err
    assert not out.exists()


def test_evaluate_row(workdir, mini_gold_path):
    code, out, _ = run_cli(["evaluate", str(workdir / "km.csv"),
                            str(workdir / "mat" / f"rep_{NP_VPC}.txt"),
                            str(mini_gold_path), "--representation", NP_VPC])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ("representation,algorithm,n_clusters,ratio,purity,"
                        "ari,dunn2,silhouette,coverage")
    cells = lines[1].split(",")
    assert cells[0] == NP_VPC and cells[1] == "kmeans"
    assert cells[2] == "3" and cells[3] == "1.0"
    assert 0.0 <= float(cells[4]) <= 1.0
    assert float(cells[8]) == 0.75   # 12 gold terms among the 16 clustered


def test_evaluate_rejects_label_mismatch(workdir, mini_gold_path, tmp_path):
    other = tmp_path / "other_rep.txt"
    other.write_text("2 2\nalpha\t1.0 0.0\nbeta\t0.0 1.0\n")
    code, _, err = run_cli(["evaluate", str(workdir / "km.csv"), str(other),
                            str(mini_gold_path)])
    assert code == 1
    assert "error:" in err and "label sets differ" in err


def test_sweep_command(workdir, mini_gold_path, tmp_path):
    curves = tmp_path / "curves.csv"
    raw = tmp_path / "raw.csv"
    code, _, err = run_cli(["sweep", str(workdir / "mat" / f"rep_{NP_VPC}.txt"),
                            "-o", str(curves), "--gold", str(mini_gold_path),
                            "--representation", NP_VPC,
                            "--k-min", "2", "--k-max", "4", "--reps", "2",
                            "--repetitions-out", str(raw)])
    assert code == 0
    lines = curves.read_text().splitlines()
    assert lines[0] == "k,purity,ari,dunn2,silhouette"
    assert [l.split(",")[0] for l in lines[1:]] == ["2", "3", "4"]
    assert len(raw.read_text().splitlines()) == 1 + 3 * 2


def test_sweep_clip_warning_on_stderr(workdir, tmp_path):
    code, _, err = run_cli(["sweep", str(workdir / "mat" / f"rep_{NP_VPC}.txt"),
                            "-o", str(tmp_path / "c.csv"),
                            "--representation", NP_VPC,
                            "--k-min", "2", "--k-max", "99", "--reps", "1"])
    assert code == 0
    assert "warning: NP_VPC: k_max 99 clipped to 16" in err


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


def test_pipeline_missing_gold_continues_without_external_indices(
        tmp_path, mini_corpus_path):
    out = tmp_path / "run"
    missing = tmp_path / "nope.tsv"
    code, _, err = run_cli(["pipeline", "--corpus", str(mini_corpus_path),
                            "--gold", str(missing), "--out", str(out)]
                           + PIPELINE_FLAGS)
    assert code == 0
    assert (f"error: [evaluation] gold standard not found: {missing}; "
            "external indices will be NA") in err
    first_row = (out / "report.csv").read_text().splitlines()[1].split(",")
    assert first_row[3] == first_row[4] == first_row[5] == "NA"


def test_pipeline_representation_subset(tmp_path, mini_corpus_path, mini_gold_path):
    out = tmp_path / "run"
    code, _, _ = run_cli(["pipeline", "--corpus", str(mini_corpus_path),
                          "--gold", str(mini_gold_path), "--out", str(out),
                          "--representations", NP_VPC, NP_VPC_TFIDF]
                         + PIPELINE_FLAGS)
    assert code == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert len(lines) == 5   # KM and AP rows for two representations


def test_errors_exit_one_with_message(tmp_path, workdir):
    code, _, err = run_cli(["stats", str(tmp_path / "missing.conllu")])
    assert code == 1 and err.startswith("error:")

    code, _, err = run_cli(["cluster", "kmeans",
                            str(workdir / "mat" / f"rep_{NP_VPC}.txt"),
                            "-o", str(tmp_path / "x.csv"), "-k", "99"])
    assert code == 1 and "exceeds the 16 distinct rows" in err

    code, _, err = run_cli(["featurize", str(workdir / "couples.tsv"),
                            "-o", str(tmp_path / "m"), "--sigma1", "1000"])
    assert code == 1 and "eliminated every row" in err

    bad = tmp_path / "bad_rep.txt"
    bad.write_text("3\nalpha\t1.0\n")
    code, _, err = run_cli(["cluster", "ap", str(bad), "-o", str(tmp_path / "y.csv")])
    assert code == 1 and f"error: {bad}: bad header '3'" in err


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


def capture(monkeypatch, *names):
    """Replace the library calls ``names`` in the cli module: the first
    raises ``Captured`` with its arguments, the others return None."""
    def fake(*args, **kwargs):
        raise Captured(args, kwargs)
    monkeypatch.setattr(cli, names[0], fake)
    for name in names[1:]:
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: None)


def config_passed(argv):
    """(positional args, keyword args) of the captured library call."""
    with pytest.raises(Captured) as info:
        main(argv)
    return info.value.args


def test_cli_defaults_are_the_config_defaults(monkeypatch, tmp_path):
    capture(monkeypatch, "extract_corpus", "load_corpus")
    (_, config), _ = config_passed(["extract", "c.conllu", "-o", "x"])
    assert config == ExtractionConfig.spacy()

    capture(monkeypatch, "build_matrices", "read_couples_tsv")
    (_, config), _ = config_passed(["featurize", "c.tsv", "-o", str(tmp_path)])
    assert config == Thresholds()

    capture(monkeypatch, "nmf", "load_matrix")
    assert config_passed(["encode", "nmf", "m.mtx", "-o", "w"]) == ((None,), {})

    capture(monkeypatch, "train_skipgram", "load_corpus")
    (_, config), _ = config_passed(["encode", "w2v", "c.conllu", "-o", "e"])
    assert config == SkipgramConfig()

    capture(monkeypatch, "kmeans", "load_representation")
    (_, config), _ = config_passed(["cluster", "kmeans", "r", "-o", "x", "-k", "3"])
    assert config == KmeansConfig(k=3)

    capture(monkeypatch, "affinity_propagation", "load_representation")
    (_, config), _ = config_passed(["cluster", "ap", "r", "-o", "x"])
    assert config == ApConfig()

    capture(monkeypatch, "run_sweep", "load_representation")
    (_, _, config), _ = config_passed(["sweep", "r", "-o", "x"])
    assert config == SweepConfig()

    capture(monkeypatch, "run_pipeline", "load_corpus")
    (_, _, config, _), _ = config_passed(["pipeline", "--corpus", "c", "--out", "o"])
    assert config == PipelineConfig()


def test_readme_quick_start_flags_match_the_library_example(monkeypatch):
    capture(monkeypatch, "run_pipeline", "load_corpus", "load_gold_standard")
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
    capture(monkeypatch, "run_pipeline", "load_corpus")
    (_, _, config, _), _ = config_passed([
        "pipeline", "--corpus", "c", "--out", "o", "--select", "global",
        "--representations", NP_VPC_TFIDF, NP_VPC, "--seed", "11",
        "--scheme", "ud", "--root-only"])
    assert config.sweep.selection is Selection.GLOBAL
    assert config.sweep.representations == (NP_VPC_TFIDF, NP_VPC)
    assert config.sweep.master_seed == 11
    assert (config.scheme, config.root_only) == ("ud", True)

    capture(monkeypatch, "run_sweep", "load_representation")
    (_, _, config), _ = config_passed(["sweep", "r", "-o", "x", "--seed", "5",
                                       "--reps", "4"])
    assert (config.master_seed, config.repetitions) == (5, 4)

    capture(monkeypatch, "affinity_propagation", "load_representation")
    (_, config), _ = config_passed(["cluster", "ap", "r", "-o", "x",
                                    "--preference", "0.5"])
    assert config.preference == 0.5 and isinstance(config.preference, float)

    capture(monkeypatch, "nmf", "load_matrix")
    _, kwargs = config_passed(["encode", "nmf", "m.mtx", "-o", "w",
                               "--rank", "4", "--seed", "2"])
    assert kwargs == {"rank": 4, "seed": 2}


@pytest.mark.parametrize("argv", [
    ["pipeline", "--corpus", "c", "--out", "o", "--select", "best"],
    ["cluster", "ap", "r", "-o", "x", "--preference", "high"],
])
def test_cli_rejects_bad_flag_values(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "invalid" in capsys.readouterr().err

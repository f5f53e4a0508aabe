"""Command-line entry points; each subcommand exposes one pipeline stage.

    termforge stats     <corpus> [...]
    termforge extract   <corpus> -o couples.tsv
    termforge featurize <couples.tsv> -o <dir> [--sigma1 N --sigma2 N]
    termforge encode    nmf|w2v ...
    termforge cluster   kmeans|ap <rep> ...
    termforge evaluate  <clustering.csv> <rep> <gold.tsv>
    termforge sweep     <rep> --gold <tsv> -o curves.csv
    termforge pipeline  --corpus <path> --gold <tsv> --out <dir> ...

A <rep> is a representation file or a count .mtx such as mats/np_vpc.mtx.
Each stage command runs the pipeline's own stage, and ``--seed`` always
names the master seed: NMF draws from derive_seed(seed, "nmf"), skip-gram
from derive_seed(seed, "w2v"), and ``cluster kmeans -k K`` is the sweep's
cell (K, 0), derive_seed(seed, K, 0); so they write the pipeline's bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .clustering import AP_NOT_CONVERGED, MEDIAN_PREFERENCE, Geometry, load_clustering
from .corpus import corpus_stats, load_corpus
from .evaluation import evaluate_clustering, format_value, load_gold_standard
from .experiment import (PipelineConfig, build_matrices, cluster, config_from_dict,
                         encode_nmf, encode_w2v, extract, kmeans_cell, run_pipeline,
                         sweep)
from .extraction import SCHEMES, read_couples_tsv
from .matrices import (REPRESENTATIONS, Thresholds, load_matrix, load_representation,
                       save_matrix)

log = logging.getLogger(__name__)

REP_HELP = "a representation file, or a count .mtx with its sidecars"


class _Parser(argparse.ArgumentParser):
    """An omitted flag stays out of the namespace, so the config dataclass
    it feeds supplies the default; subparsers inherit this."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)


def _config(args, base: PipelineConfig = PipelineConfig()) -> PipelineConfig:
    """``base`` with the given flags, each named like a field of
    ``PipelineConfig``, of its ``sweep`` or of its ``ap``; lists become tuples."""
    def replace(obj, **fixed):
        names = {f.name for f in dataclasses.fields(obj)}
        given = {name: tuple(value) if isinstance(value, list) else value
                 for name, value in vars(args).items() if name in names}
        return dataclasses.replace(obj, **given, **fixed)

    return replace(base, sweep=replace(base.sweep), ap=replace(base.ap))


def real_or_median(text: str) -> float | str:
    """``--preference`` values; argparse names this type in its errors."""
    return text if text == MEDIAN_PREFERENCE else float(text)


def _cmd_stats(args) -> None:
    print("corpus,n_documents,n_sentences,n_words,words_per_document")
    for path in args.corpus:
        stats = corpus_stats(load_corpus(path))
        print(",".join([str(path), str(stats.n_documents), str(stats.n_sentences),
                        str(stats.n_words), format_value(stats.words_per_document)]))


def _cmd_extract(args) -> None:
    couples = extract(load_corpus(args.corpus), _config(args), args.out)
    log.info("wrote %d couples to %s", len(couples), args.out)


def _cmd_featurize(args) -> None:
    config = _config(args).sweep
    matrices = build_matrices(read_couples_tsv(args.couples),
                              Thresholds(config.sigma1, config.sigma2))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, matrix in zip(("subject", "object", "merged", "np_vpc", "np_vpc_tfidf"), matrices):
        save_matrix(matrix, out / f"{name}.mtx")
    log.info("matrices under %s: np_vpc %s, tfidf %s", out,
             matrices.counts.shape, matrices.tfidf.shape)


def _cmd_encode_nmf(args) -> None:
    encode_nmf(load_matrix(args.matrix), _config(args), args.out, args.h_out)


def _cmd_encode_w2v(args) -> None:
    keys = ([line for line in Path(args.compose).read_text(encoding="utf-8").splitlines()
             if line.strip()] if args.compose else None)
    encode_w2v(load_corpus(args.corpus), _config(args), args.out, keys, args.rep_out)


def _cmd_cluster(args) -> None:
    config = _config(args)
    settings = (kmeans_cell(config.sweep.master_seed, args.k, 0)   # the sweep's cell (k, 0)
                if args.algorithm == "kmeans" else config.ap)
    clustering = cluster(Geometry(load_representation(args.rep)), settings, args.out)
    if args.algorithm == "ap" and not clustering.converged:
        print(f"warning: {AP_NOT_CONVERGED}", file=sys.stderr)
    log.info("%s: %d clusters over %d NPs", clustering.algorithm,
             clustering.n_clusters, len(clustering.labels))


def _cmd_evaluate(args) -> None:
    clustering = load_clustering(args.clustering)
    rep = load_representation(args.rep)
    gold = load_gold_standard(args.gold)
    report = evaluate_clustering(Geometry(rep), clustering, gold)
    name = args.representation or rep.provenance
    print("representation,algorithm,n_clusters,ratio,purity,ari,dunn2,silhouette,coverage")
    values = (clustering.n_clusters / gold.n_labels, report.purity, report.adjusted_rand,
              report.dunn2, report.silhouette, report.coverage)
    print(",".join([name, clustering.algorithm, str(clustering.n_clusters),
                    *map(format_value, values)]))


def _cmd_sweep(args) -> None:
    geometry = Geometry(load_representation(args.rep))
    gold = load_gold_standard(args.gold) if args.gold else None
    result = sweep(geometry, gold, _config(args).sweep, args.out, args.repetitions_out)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)


def _cmd_pipeline(args) -> None:
    base = PipelineConfig()
    if "config" in args:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
            manifest = isinstance(raw, dict) and "config" in raw
            base = config_from_dict(raw["config"] if manifest else raw)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    config = _config(args, base)
    corpus = load_corpus(args.corpus)
    gold = None
    if args.gold:
        try:
            gold = load_gold_standard(args.gold)
        except FileNotFoundError:
            print(f"warning: [evaluation] gold standard not found: {args.gold}; "
                  "external indices will be NA", file=sys.stderr)
    rows = run_pipeline(corpus, gold, config, args.out)
    log.info("report with %d rows written to %s", len(rows), Path(args.out) / "report.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="termforge",
        description="Cluster domain terms by syntactic co-occurrence context.")
    parser.add_argument("-v", "--verbose", action="store_true", default=False,
                        help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="corpus size statistics as CSV")
    p.add_argument("corpus", nargs="+", help="CoNLL-U file or directory")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("extract", help="extract (VPC, role, NP) couples")
    p.add_argument("corpus")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--scheme", choices=sorted(SCHEMES))
    p.add_argument("--root-only", action="store_true",
                   help="only extract from root verbs")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("featurize", help="build and threshold co-occurrence matrices")
    p.add_argument("couples")
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--sigma1", type=float, help="frequency-sum cutoff (strict >)")
    p.add_argument("--sigma2", type=float, help="tf-idf-sum cutoff (strict >)")
    p.set_defaults(func=_cmd_featurize)

    enc = sub.add_parser("encode", help="dense encodings (NMF or word vectors)")
    enc_sub = enc.add_subparsers(dest="encoder", required=True)

    p = enc_sub.add_parser("nmf", help="factorize a counts matrix")
    p.add_argument("matrix", help="MatrixMarket file with .rows/.cols sidecars")
    p.add_argument("-o", "--out", required=True, help="labeled W output")
    p.add_argument("--h-out", default=None, help="optional H output")
    p.add_argument("--rank", dest="nmf_rank", type=int)
    p.add_argument("--max-iter", dest="nmf_max_iter", type=int)
    p.add_argument("--tol", dest="nmf_tol", type=float)
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    p.set_defaults(func=_cmd_encode_nmf)

    p = enc_sub.add_parser("w2v", help="train skip-gram vectors")
    p.add_argument("corpus")
    p.add_argument("-o", "--out", required=True, help="embedding table output")
    for flag in ("dim", "window", "negatives", "epochs", "min-count"):
        p.add_argument(f"--{flag}", dest="w2v_" + flag.replace("-", "_"), type=int)
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    p.add_argument("--compose", default=None, help="file of NP keys to compose vectors for")
    p.add_argument("--rep-out", default="rep_NP_w2v.txt",
                   help="composed representation output path")
    p.set_defaults(func=_cmd_encode_w2v)

    clu = sub.add_parser("cluster", help="cluster a representation file")
    clu_sub = clu.add_subparsers(dest="algorithm", required=True)

    p = clu_sub.add_parser("kmeans", help="spherical K-Means")
    p.add_argument("rep", help=REP_HELP)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    p.set_defaults(func=_cmd_cluster)

    p = clu_sub.add_parser("ap", help="affinity propagation")
    p.add_argument("rep", help=REP_HELP)
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--preference", type=real_or_median,
                   help=f"real value or '{MEDIAN_PREFERENCE}'")
    p.add_argument("--damping", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--convergence-window", type=int)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("evaluate", help="validity indices for one clustering")
    p.add_argument("clustering")
    p.add_argument("rep", help=REP_HELP)
    p.add_argument("gold")
    p.add_argument("--representation", default=None, help="name for the output row")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="K-Means k sweep over one representation")
    p.add_argument("rep", help=REP_HELP)
    p.add_argument("-o", "--out", required=True, help="curves CSV output")
    p.add_argument("--gold", default=None)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--reps", dest="repetitions", type=int, metavar="REPS")
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    p.add_argument("--repetitions-out", default=None, help="raw per-repetition CSV")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("pipeline", help="full corpus-to-report workflow")
    p.add_argument("--corpus", required=True)
    p.add_argument("--gold", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="manifest.json of an earlier run, or its "
                   "config object; the flags given override it")
    p.add_argument("--sigma1", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--reps", dest="repetitions", type=int, metavar="REPS")
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    p.add_argument("--root-only", action="store_true")
    p.add_argument("--scheme", choices=sorted(SCHEMES))
    p.add_argument("--representations", nargs="+", choices=REPRESENTATIONS)
    p.add_argument("--nmf-rank", type=int)
    for flag in ("dim", "window", "epochs", "min-count"):
        p.add_argument(f"--w2v-{flag}", type=int)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line entry points; each subcommand exposes one pipeline stage.

    termforge stats     <corpus> [...]
    termforge extract   <corpus> -o couples.tsv
    termforge featurize <couples.tsv> -o <dir> [--sigma1 N --sigma2 N]
    termforge encode    nmf|w2v ...
    termforge cluster   kmeans|ap <rep-file> ...
    termforge evaluate  <clustering.csv> <rep-file> <gold.tsv>
    termforge sweep     <rep-file> --gold <tsv> -o curves.csv
    termforge pipeline  --corpus <path> --gold <tsv> --out <dir> ...
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from .clustering import (AP_NOT_CONVERGED, ApConfig, Geometry, KmeansConfig,
                         MEDIAN_PREFERENCE, affinity_propagation, kmeans,
                         load_clustering, save_clustering)
from .corpus import corpus_stats, load_corpus
from .embeddings import SkipgramConfig, np_vectors, save_embeddings, train_skipgram
from .evaluation import evaluate_clustering, format_value, load_gold_standard
from .experiment import (PipelineConfig, Selection, SweepConfig, build_matrices,
                         run_pipeline, run_sweep, write_curves_csv,
                         write_repetitions_csv)
from .extraction import SCHEMES, read_couples_tsv, write_couples_tsv, extract_corpus
from .matrices import (MatrixKind, Representation, Thresholds, NP_VPC, NP_VPC_NMF,
                       NP_VPC_TFIDF, REPRESENTATIONS, load_matrix, load_representation,
                       make_representation, representation_from_matrix,
                       save_matrix, save_representation)
from .nmf import nmf

log = logging.getLogger(__name__)

SELECT_NAMES = {"first-peak": Selection.FIRST_PEAK, "global": Selection.GLOBAL}


class _Parser(argparse.ArgumentParser):
    """An omitted flag stays out of the namespace, so the config dataclass
    (or ``nmf()``) it feeds supplies the default; subparsers inherit this."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)


def _given(args, names) -> dict:
    """The flags among ``names`` that were given; lists become tuples."""
    return {name: tuple(value) if isinstance(value, list) else value
            for name, value in vars(args).items() if name in names}


def _config(cls, args, **fixed):
    """``cls`` built from the given flags named like its fields."""
    return cls(**_given(args, {f.name for f in dataclasses.fields(cls)}), **fixed)


def real_or_median(text: str) -> float | str:
    """``--preference`` values; argparse names this type in its errors."""
    return text if text == MEDIAN_PREFERENCE else float(text)


def _cmd_stats(args) -> int:
    print("corpus,n_documents,n_sentences,n_words,words_per_document")
    for path in args.corpus:
        stats = corpus_stats(load_corpus(path))
        print(",".join([str(path), str(stats.n_documents), str(stats.n_sentences),
                        str(stats.n_words), format_value(stats.words_per_document)]))
    return 0


def _cmd_extract(args) -> int:
    corpus = load_corpus(args.corpus)
    config = _config(PipelineConfig, args)
    couples = extract_corpus(corpus, SCHEMES[config.scheme](root_only=config.root_only))
    write_couples_tsv(couples, args.out, header=args.header)
    log.info("wrote %d couples to %s", len(couples), args.out)
    return 0


def _cmd_featurize(args) -> int:
    couples = read_couples_tsv(args.couples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    matrices = build_matrices(couples, _config(Thresholds, args))
    names = ("subject", "object", "merged", "np_vpc", "np_vpc_tfidf")
    for name, matrix in zip(names, matrices):
        save_matrix(matrix, out / f"{name}.mtx")
    for name, matrix in ((NP_VPC, matrices.counts), (NP_VPC_TFIDF, matrices.tfidf)):
        save_representation(representation_from_matrix(matrix, name),
                            out / f"rep_{name}.txt")
    log.info("matrices under %s: np_vpc %s, tfidf %s", out,
             matrices.counts.shape, matrices.tfidf.shape)
    return 0


def _cmd_encode_nmf(args) -> int:
    counts = load_matrix(args.matrix, MatrixKind.MERGED_COUNTS)
    pair = nmf(counts, **_given(args, ("rank", "max_iter", "tol", "seed")))
    rep = make_representation(counts.row_labels, pair.W, NP_VPC_NMF)
    save_representation(rep, args.out)
    if args.h_out:
        save_representation(Representation(
            tuple(str(i) for i in range(pair.H.shape[0])), pair.H, "H"), args.h_out)
    log.info("NMF: %d iterations, final error %s", pair.iterations_run,
             format_value(pair.final_error))
    return 0


def _cmd_encode_w2v(args) -> int:
    corpus = load_corpus(args.corpus)
    table = train_skipgram(corpus, _config(SkipgramConfig, args))
    save_embeddings(table, args.out)
    if args.compose:
        keys = [line for line in Path(args.compose).read_text(encoding="utf-8").splitlines()
                if line.strip()]
        rep = np_vectors(table, keys)
        save_representation(rep, args.rep_out)
    log.info("trained %d vectors of dim %d", len(table.vocab), table.dim)
    return 0


def _cmd_cluster(args) -> int:
    rep = load_representation(args.rep)
    if args.algorithm == "kmeans":
        config = _config(KmeansConfig, args)
        clustering = kmeans(rep, config)
    else:
        config = _config(ApConfig, args)
        clustering = affinity_propagation(rep, config)
        if not clustering.converged:
            print(f"warning: {AP_NOT_CONVERGED}", file=sys.stderr)
    save_clustering(clustering, args.out, config=dataclasses.asdict(config))
    log.info("%s: %d clusters over %d NPs", clustering.algorithm,
             clustering.n_clusters, len(clustering.labels))
    return 0


def _cmd_evaluate(args) -> int:
    clustering = load_clustering(args.clustering)
    rep = load_representation(args.rep)
    if tuple(clustering.labels) != tuple(rep.row_labels):
        raise ValueError("clustering and representation label sets differ; "
                         "evaluate needs the representation the clustering was built from")
    gold = load_gold_standard(args.gold)
    report = evaluate_clustering(Geometry(rep), clustering, gold)
    name = args.representation or rep.provenance
    print("representation,algorithm,n_clusters,ratio,purity,ari,dunn2,silhouette,coverage")
    print(",".join([
        name, clustering.algorithm, str(report.n_clusters),
        format_value(report.n_clusters / gold.n_labels),
        format_value(report.purity), format_value(report.adjusted_rand),
        format_value(report.dunn2), format_value(report.silhouette),
        format_value(report.coverage)]))
    return 0


def _cmd_sweep(args) -> int:
    rep = load_representation(args.rep, provenance=args.representation)
    gold = load_gold_standard(args.gold) if args.gold else None
    result = run_sweep(rep, gold, _config(SweepConfig, args))
    write_curves_csv(result, Path(args.out))
    if args.repetitions_out:
        write_repetitions_csv(result, Path(args.repetitions_out))
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def _cmd_pipeline(args) -> int:
    corpus = load_corpus(args.corpus)
    gold = None
    if args.gold:
        try:
            gold = load_gold_standard(args.gold)
        except FileNotFoundError:
            print(f"error: [evaluation] gold standard not found: {args.gold}; "
                  "external indices will be NA", file=sys.stderr)
    if "selection" in args:
        args.selection = SELECT_NAMES[args.selection]
    config = _config(PipelineConfig, args, sweep=_config(SweepConfig, args))
    report = run_pipeline(corpus, gold, config, args.out)
    log.info("report with %d rows written to %s", len(report.rows),
             Path(args.out) / "report.csv")
    return 0


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
    p.add_argument("--header", action="store_true", default=False, help="write a header line")
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
    p.add_argument("--rank", type=int)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_encode_nmf)

    p = enc_sub.add_parser("w2v", help="train skip-gram vectors")
    p.add_argument("corpus")
    p.add_argument("-o", "--out", required=True, help="embedding table output")
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--min-count", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--compose", default=None, help="file of NP keys to compose vectors for")
    p.add_argument("--rep-out", default="rep_NP_w2v.txt",
                   help="composed representation output path")
    p.set_defaults(func=_cmd_encode_w2v)

    clu = sub.add_parser("cluster", help="cluster a representation file")
    clu_sub = clu.add_subparsers(dest="algorithm", required=True)

    p = clu_sub.add_parser("kmeans", help="spherical K-Means")
    p.add_argument("rep")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--rel-tol", type=float)
    p.set_defaults(func=_cmd_cluster)

    p = clu_sub.add_parser("ap", help="affinity propagation")
    p.add_argument("rep")
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--preference", type=real_or_median,
                   help=f"real value or '{MEDIAN_PREFERENCE}'")
    p.add_argument("--damping", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--convergence-window", type=int)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("evaluate", help="validity indices for one clustering")
    p.add_argument("clustering")
    p.add_argument("rep")
    p.add_argument("gold")
    p.add_argument("--representation", default=None, help="name for the output row")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="K-Means k sweep over one representation")
    p.add_argument("rep")
    p.add_argument("-o", "--out", required=True, help="curves CSV output")
    p.add_argument("--gold", default=None)
    p.add_argument("--representation", default=None, help="representation name for seeds")
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
    p.add_argument("--sigma1", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--reps", dest="repetitions", type=int, metavar="REPS")
    p.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    p.add_argument("--select", dest="selection", choices=sorted(SELECT_NAMES))
    p.add_argument("--peak-floor", type=float)
    p.add_argument("--root-only", action="store_true")
    p.add_argument("--scheme", choices=sorted(SCHEMES))
    p.add_argument("--representations", nargs="+", choices=REPRESENTATIONS)
    p.add_argument("--nmf-rank", type=int)
    p.add_argument("--w2v-dim", type=int)
    p.add_argument("--w2v-window", type=int)
    p.add_argument("--w2v-epochs", type=int)
    p.add_argument("--w2v-min-count", type=int)
    p.set_defaults(func=_cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end experiment driver: representations, k sweep, AP, reports.

The full run builds the four NP representations (raw counts, Tf-Idf, NMF
features, composed word vectors), sweeps K-Means over k with repeated seeds
and keeps the k of the largest mean silhouette, runs Affinity Propagation
once per distinct geometry, and writes a report table plus per-k curve data
and raw per-repetition logs for every representation.

Determinism contract: every K-Means cell draws its seed from
``derive_seed(master_seed, k, repetition)``, so no result depends on which
cells ran before it, and two representations with one geometry get the same
cells (common random numbers); cells run and are aggregated in grid order,
and every float is serialized with ``repr``.  Identical inputs and master
seed therefore produce byte-identical output files.  When the sigma2 cut
keeps every row and column, ``NP_VPC_tfidf`` is not swept or clustered: its
files are ``NP_VPC``'s, computed on the count rows, and equal the stage
commands' output on ``np_vpc.mtx``; on ``np_vpc_tfidf.mtx`` those commands
agree with them only to rounding.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .clustering import (AP_NOT_CONVERGED, ApConfig, Clustering, Geometry,
                         KmeansConfig, affinity_propagation, distinct_row_count,
                         kmeans, pairwise_cosine_dissimilarity, save_clustering)
from .corpus import Corpus
from .embeddings import (SkipgramConfig, np_vectors, require_composed, save_embeddings,
                         train_skipgram)
from .evaluation import GoldStandard, IndexReport, evaluate_clustering, format_value
from .extraction import (Couple, Role, SCHEMES, extract_corpus,
                         write_couples_tsv)
from .matrices import (NP_VPC, NP_VPC_NMF, NP_VPC_TFIDF, NP_W2V,
                       REPRESENTATIONS, CooccurrenceMatrix, Representation,
                       Thresholds, apply_frequency_threshold, apply_value_threshold,
                       build_role_matrix, make_representation, merge_matrices,
                       representation_from_matrix, save_matrix,
                       save_representation, tfidf_weight)
from .nmf import nmf

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SweepConfig:
    k_min: int = 2
    k_max: int = 50
    repetitions: int = 10
    master_seed: int = 0
    sigma1: float = 0.0
    sigma2: float = 0.0
    representations: tuple[str, ...] = REPRESENTATIONS

    def __post_init__(self) -> None:
        if not 2 <= self.k_min <= self.k_max:
            raise ValueError(f"need 2 <= k_min <= k_max, got {self.k_min}..{self.k_max}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.representations:
            raise ValueError("representations must name at least one representation")
        unknown = set(self.representations) - set(REPRESENTATIONS)
        if unknown:
            raise ValueError(f"unknown representations: {sorted(unknown)}")
        if len(set(self.representations)) != len(self.representations):
            raise ValueError(f"repeated representations in {list(self.representations)}")
        Thresholds(self.sigma1, self.sigma2)   # checks them


@dataclass(frozen=True)
class RepetitionRecord:
    k: int
    repetition: int
    seed: int
    purity: float | None
    ari: float | None
    dunn2: float | None        # may be +inf
    silhouette: float | None


@dataclass(frozen=True)
class SweepRow:
    k: int
    purity: float | None       # means over defined repetition values
    ari: float | None
    dunn2: float | None        # None when every repetition was undefined/inf
    silhouette: float | None


@dataclass(frozen=True)
class SweepResult:
    representation: str
    rows: tuple[SweepRow, ...]
    cells: tuple[RepetitionRecord, ...]
    warnings: tuple[str, ...]


@dataclass(frozen=True)
class ReportRow:
    clusterer: str             # "KM" or "AP"
    representation: str
    n_clusters: int
    ratio: float | None        # n_clusters / |gold labels|
    purity: float | None
    ari: float | None
    dunn2: float | None
    silhouette: float | None


def derive_seed(master_seed: int, *parts) -> int:
    """Stable sub-seed from the master seed and any hashable context parts;
    identical across platforms and runs."""
    payload = ":".join([str(master_seed), *(str(p) for p in parts)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def kmeans_cell(master_seed: int, k: int, repetition: int) -> KmeansConfig:
    """The sweep's K-Means cell (k, repetition); a seed holds no name."""
    return KmeansConfig(k=k, seed=derive_seed(master_seed, k, repetition))


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def run_sweep(geometry: Geometry, gold: GoldStandard | None,
              config: SweepConfig) -> SweepResult:
    """K-Means over k = k_min..min(k_max, distinct rows), `repetitions`
    seeded runs per k; means per k exclude undefined values (counted).
    Every cell reuses the one geometry.  Warnings are returned in the
    result, not logged: the caller reports each once."""
    warnings: list[str] = []
    distinct = distinct_row_count(geometry)
    k_hi = min(config.k_max, distinct)
    if k_hi < config.k_max:
        warnings.append(
            f"{geometry.provenance}: k_max {config.k_max} clipped to {k_hi} "
            f"(only {distinct} distinct rows)")
    if k_hi < config.k_min:
        raise ValueError(
            f"{geometry.provenance}: cannot sweep k >= {config.k_min} with only "
            f"{distinct} distinct rows")
    if gold is not None and not any(lbl in gold.mapping for lbl in geometry.row_labels):
        raise ValueError(
            f"{geometry.provenance}: no clustered term appears in the gold standard")

    # D is formed here, once; every cell's evaluation reads it from the geometry
    pairwise_cosine_dissimilarity(geometry)
    records: list[RepetitionRecord] = []
    rows: list[SweepRow] = []
    for k in range(config.k_min, k_hi + 1):
        batch: list[RepetitionRecord] = []
        unconverged = 0
        for r in range(config.repetitions):
            cell = kmeans_cell(config.master_seed, k, r)
            clustering = kmeans(geometry, cell)
            unconverged += not clustering.converged
            report = evaluate_clustering(geometry, clustering, gold)
            batch.append(RepetitionRecord(
                k=k, repetition=r, seed=cell.seed,
                purity=report.purity, ari=report.adjusted_rand,
                dunn2=report.dunn2, silhouette=report.silhouette))
        if unconverged == len(batch):
            warnings.append(f"{geometry.provenance} k={k}: every K-Means cell "
                            f"({len(batch)} repetition(s)) hit max_iter before converging")
        records.extend(batch)
        purities = [rec.purity for rec in batch if rec.purity is not None]
        aris = [rec.ari for rec in batch if rec.ari is not None]
        dunns = [rec.dunn2 for rec in batch
                 if rec.dunn2 is not None and math.isfinite(rec.dunn2)]
        sils = [rec.silhouette for rec in batch if rec.silhouette is not None]
        excluded = len(batch) - len(dunns)
        if excluded:
            log.info("%s k=%d: %d undefined dunn2 value(s) excluded from the mean",
                     geometry.provenance, k, excluded)
        rows.append(SweepRow(k=k, purity=_mean(purities), ari=_mean(aris),
                             dunn2=_mean(dunns), silhouette=_mean(sils)))
    return SweepResult(representation=geometry.provenance, rows=tuple(rows),
                       cells=tuple(records), warnings=tuple(warnings))


def select_k(result: SweepResult) -> int:
    """The k with the largest mean silhouette (Rousseeuw 1987); the gold
    standard takes no part.  Ties go to the smallest k, and rows whose
    silhouette is undefined are skipped."""
    defined = [row for row in result.rows if row.silhouette is not None]
    if not defined:
        raise ValueError(f"{result.representation}: no k has a defined silhouette")
    return max(defined, key=lambda row: row.silhouette).k


class PipelineError(RuntimeError):
    """Failure in a named pipeline stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, str(exc)) from exc


@dataclass(frozen=True)
class PipelineConfig:
    sweep: SweepConfig = SweepConfig()
    scheme: str = "spacy"
    root_only: bool = False
    nmf_rank: int = 100
    nmf_max_iter: int = 500
    nmf_tol: float = 1e-5
    w2v_dim: int = SkipgramConfig.dim
    w2v_window: int = SkipgramConfig.window
    w2v_negatives: int = SkipgramConfig.negatives
    w2v_epochs: int = SkipgramConfig.epochs
    w2v_min_count: int = SkipgramConfig.min_count
    ap: ApConfig = ApConfig()

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown label scheme {self.scheme!r}; "
                             f"expected one of {sorted(SCHEMES)}")
        if self.nmf_rank < 1:
            raise ValueError(f"nmf_rank must be >= 1, got {self.nmf_rank}")
        if self.nmf_max_iter < 1:
            raise ValueError(f"nmf_max_iter must be >= 1, got {self.nmf_max_iter}")
        if not self.nmf_tol >= 0:   # "not >=" so that NaN fails too
            raise ValueError(f"nmf_tol must be >= 0, got {self.nmf_tol}")
        self.skipgram_config()   # checks the w2v fields

    def skipgram_config(self) -> SkipgramConfig:
        """The w2v fields' skip-gram settings, seeded from the master seed."""
        return SkipgramConfig(
            dim=self.w2v_dim, window=self.w2v_window, negatives=self.w2v_negatives,
            epochs=self.w2v_epochs, min_count=self.w2v_min_count,
            seed=derive_seed(self.sweep.master_seed, "w2v"))


class Matrices(NamedTuple):
    subject: CooccurrenceMatrix
    object: CooccurrenceMatrix
    merged: CooccurrenceMatrix
    counts: CooccurrenceMatrix   # merged, cut at sigma1
    tfidf: CooccurrenceMatrix    # counts tf-idf weighted, cut at sigma2


def build_matrices(couples: Sequence[Couple], thresholds: Thresholds) -> Matrices:
    """The matrix stage: role counts, their merge, the sigma1 count cut and
    the sigma2 cut of its tf-idf weighting."""
    subj = build_role_matrix(couples, Role.SUBJECT)
    obj = build_role_matrix(couples, Role.OBJECT)
    merged = merge_matrices(subj, obj)
    counts = apply_frequency_threshold(merged, thresholds)
    return Matrices(subj, obj, merged, counts,
                    apply_value_threshold(tfidf_weight(counts), thresholds))


def extract(corpus: Corpus, config: PipelineConfig, path: str | Path) -> tuple[Couple, ...]:
    """The extraction stage; the couples are written to ``path``."""
    couples = extract_corpus(corpus, SCHEMES[config.scheme](root_only=config.root_only))
    write_couples_tsv(couples, path)
    return couples


def encode_nmf(counts: CooccurrenceMatrix, config: PipelineConfig, path: str | Path,
               h_path: str | Path | None = None) -> Representation:
    """The NMF stage, seeded with ``derive_seed(master_seed, "nmf")``: W, as
    ``NP_VPC_NMF``, goes to ``path`` and H (rows 0..rank-1) to ``h_path``."""
    pair = nmf(counts, rank=config.nmf_rank, max_iter=config.nmf_max_iter,
               tol=config.nmf_tol, seed=derive_seed(config.sweep.master_seed, "nmf"))
    rep = make_representation(counts.row_labels, pair.W, NP_VPC_NMF)
    save_representation(rep, path)
    if h_path is not None:
        save_representation(Representation(tuple(map(str, range(len(pair.H)))), pair.H, "H"),
                            h_path)
    return rep


def encode_w2v(corpus: Corpus, config: PipelineConfig, path: str | Path,
               keys: Sequence[str] | None = None,
               rep_path: str | Path | None = None) -> Representation | None:
    """The skip-gram stage (``config.skipgram_config()``): the table goes to
    ``path`` and the NP ``keys``' vectors, as ``NP_w2v``, to ``rep_path``."""
    table = train_skipgram(corpus, config.skipgram_config())
    save_embeddings(table, path)
    if keys is None:
        return None
    rep = require_composed(np_vectors(table, list(keys)))
    save_representation(rep, rep_path)
    return rep


def build_representations(corpus: Corpus, config: PipelineConfig,
                          out_dir: Path) -> dict[str, Representation]:
    """Extraction, matrices and the requested encodings, each artifact
    written under ``out_dir`` (the count representations as their ``.mtx``).
    NMF, skip-gram and the dense encodings run without the couples and the
    role matrices, which are freed once the counts and tf-idf matrices exist."""
    with _stage("extraction"):
        couples = extract(corpus, config, out_dir / "couples.tsv")

    with _stage("matrices"):
        matrices = build_matrices(
            couples, Thresholds(config.sweep.sigma1, config.sweep.sigma2))
        counts, weighted = matrices.counts, matrices.tfidf
        save_matrix(counts, out_dir / "np_vpc.mtx")
        save_matrix(weighted, out_dir / "np_vpc_tfidf.mtx")
    del couples, matrices

    wanted = config.sweep.representations
    reps: dict[str, Representation] = {}
    with _stage("representations"):
        if NP_VPC in wanted:
            reps[NP_VPC] = representation_from_matrix(counts, NP_VPC)
        if NP_VPC_TFIDF in wanted:
            reps[NP_VPC_TFIDF] = representation_from_matrix(weighted, NP_VPC_TFIDF)
        if NP_VPC_NMF in wanted:
            reps[NP_VPC_NMF] = encode_nmf(counts, config, out_dir / f"rep_{NP_VPC_NMF}.txt")
        if NP_W2V in wanted:
            reps[NP_W2V] = encode_w2v(corpus, config, out_dir / "embeddings.txt",
                                      counts.row_labels, out_dir / f"rep_{NP_W2V}.txt")
    return reps


def cluster(geometry: Geometry, config: KmeansConfig | ApConfig, path: str | Path) -> Clustering:
    """K-Means or AP, by the config's type; the caller reports non-convergence."""
    run = kmeans if isinstance(config, KmeansConfig) else affinity_propagation
    clustering = run(geometry, config)
    save_clustering(clustering, path, config=dataclasses.asdict(config))
    return clustering


REPORT_HEADER = ("clusterer", "representation", "n_clusters", "ratio",
                 "purity", "ari", "dunn2", "silhouette")
CURVES_HEADER = ("k", "purity", "ari", "dunn2", "silhouette")
REPETITIONS_HEADER = ("k", "repetition", "seed", "purity", "ari", "dunn2",
                      "silhouette")


def _write_table(path: Path, header: tuple[str, ...], records) -> None:
    """CSV with ``header``; each column is the record attribute of that name."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for record in records:
            fh.write(",".join(format_value(getattr(record, column))
                              for column in header) + "\n")


def write_report_csv(rows: Sequence[ReportRow], path: Path) -> None:
    _write_table(path, REPORT_HEADER, rows)


def write_curves_csv(result: SweepResult, path: Path) -> None:
    _write_table(path, CURVES_HEADER, result.rows)


def write_repetitions_csv(result: SweepResult, path: Path) -> None:
    _write_table(path, REPETITIONS_HEADER, result.cells)


def sweep(geometry: Geometry, gold: GoldStandard | None, config: SweepConfig,
          curves_path: str | Path, repetitions_path: str | Path | None = None) -> SweepResult:
    """The sweep stage and its CSVs; the caller reports the result's warnings."""
    result = run_sweep(geometry, gold, config)
    write_curves_csv(result, curves_path)
    if repetitions_path is not None:
        write_repetitions_csv(result, repetitions_path)
    return result


def config_from_dict(raw: dict) -> PipelineConfig:
    """The config a manifest's ``config`` object describes; a key left out
    takes its dataclass default."""
    try:
        fields = dict(raw.get("sweep", {}))
        if "representations" in fields:
            names = fields["representations"]
            if not isinstance(names, (list, tuple)):
                raise ValueError(f"sweep.representations must be a list of names, "
                                 f"got {names!r}")
            fields["representations"] = tuple(names)
        return PipelineConfig(**{**raw, "sweep": SweepConfig(**fields),
                                 "ap": ApConfig(**raw.get("ap", {}))})
    except (AttributeError, TypeError) as exc:  # not an object, or an unknown key
        raise ValueError(f"bad pipeline config: {exc}") from None


def _sweep_and_ap(name: str, reps: dict[str, Representation], gold: GoldStandard | None,
                  config: PipelineConfig) -> tuple[SweepResult, Clustering, IndexReport]:
    """The sweep, the AP clustering and its index report on the geometry of
    ``reps[name]``, which is popped: the dense matrix is freed once the
    geometry holds the normalized rows."""
    with _stage(f"sweep:{name}"):
        geometry = Geometry(reps.pop(name))    # shared by the sweep and AP
        result = run_sweep(geometry, gold, config.sweep)
    with _stage(f"ap:{name}"):
        clustering = affinity_propagation(geometry, config.ap)
        # AP freed D; it is formed again from the normalized rows
        return result, clustering, evaluate_clustering(geometry, clustering, gold)


def _renamed(result: SweepResult, name: str) -> SweepResult:
    """``result`` as the sweep of ``name``, a representation of the same
    geometry; ``run_sweep``'s warnings begin with the swept name."""
    swept = result.representation
    return dataclasses.replace(result, representation=name, warnings=tuple(
        name + warning[len(swept):] for warning in result.warnings))


def run_pipeline(corpus: Corpus, gold: GoldStandard | None,
                 config: PipelineConfig, out_dir: str | Path) -> tuple[ReportRow, ...]:
    """Full workflow: representations, K-Means sweep + k selection, one AP
    run per distinct geometry, Table-style report plus curve/repetition CSVs
    and a manifest.  Without a gold standard the external columns are NA.
    Each dense representation is freed once its geometry holds the
    normalized rows, so one copy of it is live during its sweep and AP.

    When the sigma2 cut keeps every row and column of the counts, each
    tf-idf row is its count row times ln(M / df_i) > 0, so ``NP_VPC_tfidf``
    has ``NP_VPC``'s cosine geometry: it is not clustered again, and its
    files and report rows are ``NP_VPC``'s under its own name."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    warnings: list[str] = []
    if gold is None:
        warnings.append("no gold standard: purity/ari/ratio columns are NA")

    reps = build_representations(corpus, config, out)
    for name in REPRESENTATIONS:
        if name in reps and reps[name].dropped_labels:
            warnings.append(
                f"{name}: dropped {len(reps[name].dropped_labels)} NP(s) "
                f"without usable features: {', '.join(reps[name].dropped_labels[:5])}")

    n_gold_labels = gold.n_labels if gold is not None else None
    km_rows: list[ReportRow] = []
    ap_rows: list[ReportRow] = []
    selected: dict[str, int] = {}
    ordered = [name for name in REPRESENTATIONS if name in reps]
    shapes = {name: reps[name].matrix.shape for name in ordered}
    shares: dict[str, str] = {}   # name -> the earlier name whose geometry it has
    # a cut keeps a subset of the rows and columns, so equal shapes mean
    # that sigma2 kept them all (neither count matrix has an all-zero row)
    if NP_VPC in reps and NP_VPC_TFIDF in reps and shapes[NP_VPC_TFIDF] == shapes[NP_VPC]:
        shares[NP_VPC_TFIDF] = NP_VPC
        del reps[NP_VPC_TFIDF]
        log.info("%s: sigma2 cut nothing, so it has the cosine geometry of %s and "
                 "shares its sweep and AP", NP_VPC_TFIDF, NP_VPC)
    results: dict[str, tuple[SweepResult, Clustering, IndexReport]] = {}
    for name in ordered:
        if name not in shares:
            results[name] = _sweep_and_ap(name, reps, gold, config)
        result, clustering, index_report = results[shares.get(name, name)]
        result = _renamed(result, name)
        with _stage(f"sweep:{name}"):
            write_curves_csv(result, out / f"curves_{name}.csv")
            write_repetitions_csv(result, out / f"repetitions_{name}.csv")
            for warning in result.warnings:
                log.warning(warning)
            warnings.extend(result.warnings)
            k_sel = select_k(result)
            selected[name] = k_sel
            row = next(row for row in result.rows if row.k == k_sel)
            # a k whose every repetition was +inf reports dunn2 as inf
            dunn = math.inf if row.dunn2 is None else row.dunn2
            km_rows.append(ReportRow(
                clusterer="KM", representation=name, n_clusters=k_sel,
                ratio=(k_sel / n_gold_labels if n_gold_labels else None),
                purity=row.purity, ari=row.ari, dunn2=dunn, silhouette=row.silhouette))
        with _stage(f"ap:{name}"):
            save_clustering(clustering, out / f"ap_{name}.csv",
                            config=dataclasses.asdict(config.ap))
            if not clustering.converged:
                warnings.append(f"{name}: {AP_NOT_CONVERGED}")
                log.warning(warnings[-1])
            ap_rows.append(ReportRow(
                clusterer="AP", representation=name,
                n_clusters=clustering.n_clusters,
                ratio=(clustering.n_clusters / n_gold_labels if n_gold_labels else None),
                purity=index_report.purity, ari=index_report.adjusted_rand,
                dunn2=index_report.dunn2, silhouette=index_report.silhouette))

    rows = tuple(km_rows + ap_rows)
    write_report_csv(rows, out / "report.csv")

    manifest = {
        "config": dataclasses.asdict(config),
        "corpus": {"n_documents": corpus.n_documents,
                   "n_sentences": sum(1 for _ in corpus.sentences())},
        "gold": ({"n_terms": len(gold.mapping), "n_labels": gold.n_labels}
                 if gold is not None else None),
        "selected_k": selected,
        "representations": {name: {"rows": rows, "cols": cols}
                            for name, (rows, cols) in shapes.items()},
        "artifacts": sorted(p.name for p in out.iterdir() if p.is_file()
                            and p.name != "manifest.json"),
        "warnings": warnings,
        "versions": {"termforge": __version__, "numpy": np.__version__},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return rows

"""End-to-end experiment driver: representations, k sweep, AP, reports.

The full run builds the four NP representations (raw counts, Tf-Idf, NMF
features, composed word vectors), sweeps K-Means over k with repeated seeds,
runs Affinity Propagation once per representation, and writes a report table
plus per-k curve data and raw per-repetition logs.

Determinism contract: every K-Means cell draws its seed from
``derive_seed(master_seed, representation, k, repetition)``, so no result
depends on which cells ran before it; cells run and are aggregated in grid
order, and every float is serialized with ``repr``.  Identical inputs and
master seed therefore produce byte-identical output files.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .clustering import (AP_NOT_CONVERGED, ApConfig, Geometry, KmeansConfig,
                         affinity_propagation, distinct_row_count, kmeans,
                         pairwise_cosine_dissimilarity, save_clustering)
from .corpus import Corpus
from .embeddings import SkipgramConfig, np_vectors, save_embeddings, train_skipgram
from .evaluation import GoldStandard, evaluate_clustering, format_value
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


class Selection(str, Enum):
    FIRST_PEAK = "FirstPeak"
    GLOBAL = "Global"


@dataclass(frozen=True)
class SweepConfig:
    k_min: int = 2
    k_max: int = 50
    repetitions: int = 10
    master_seed: int = 0
    selection: Selection = Selection.FIRST_PEAK
    peak_floor: float = 0.9
    sigma1: float = 0.0
    sigma2: float = 0.0
    representations: tuple[str, ...] = REPRESENTATIONS

    def __post_init__(self) -> None:
        if not 2 <= self.k_min <= self.k_max:
            raise ValueError(f"need 2 <= k_min <= k_max, got {self.k_min}..{self.k_max}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not 0.0 < self.peak_floor <= 1.0:
            raise ValueError("peak_floor must be in (0, 1]")
        unknown = set(self.representations) - set(REPRESENTATIONS)
        if unknown:
            raise ValueError(f"unknown representations: {sorted(unknown)}")


@dataclass(frozen=True)
class RepetitionRecord:
    k: int
    repetition: int
    seed: int
    n_clusters: int
    purity: float | None
    ari: float | None
    dunn2: float | None        # may be +inf
    silhouette: float | None


@dataclass(frozen=True)
class SweepRow:
    k: int
    repetitions: int
    purity: float | None       # means over defined repetition values
    ari: float | None
    dunn2: float | None        # None when every repetition was undefined/inf
    silhouette: float | None
    dunn2_defined: int
    silhouette_defined: int


@dataclass(frozen=True)
class SweepResult:
    representation: str
    rows: tuple[SweepRow, ...]
    cells: tuple[RepetitionRecord, ...]
    warnings: tuple[str, ...]

    def row_for(self, k: int) -> SweepRow:
        for row in self.rows:
            if row.k == k:
                return row
        raise KeyError(f"no sweep row for k={k}")


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


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]


def derive_seed(master_seed: int, *parts) -> int:
    """Stable sub-seed from the master seed and any hashable context parts;
    identical across platforms and runs."""
    payload = ":".join([str(master_seed), *(str(p) for p in parts)]).encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


def run_sweep(rep: Representation | Geometry, gold: GoldStandard | None,
              config: SweepConfig) -> SweepResult:
    """K-Means over k = k_min..min(k_max, distinct rows), `repetitions`
    seeded runs per k; means per k exclude undefined values (counted).
    Every cell reuses one geometry of ``rep`` (it may be one already)."""
    warnings: list[str] = []
    geometry = Geometry.of(rep)
    distinct = distinct_row_count(geometry)
    k_hi = min(config.k_max, distinct)
    if k_hi < config.k_max:
        warnings.append(
            f"{rep.provenance}: k_max {config.k_max} clipped to {k_hi} "
            f"(only {distinct} distinct rows)")
        log.warning(warnings[-1])
    if k_hi < config.k_min:
        raise ValueError(
            f"{rep.provenance}: cannot sweep k >= {config.k_min} with only "
            f"{distinct} distinct rows")
    if gold is not None and not any(lbl in gold.mapping for lbl in rep.row_labels):
        raise ValueError(
            f"{rep.provenance}: no clustered term appears in the gold standard")

    # D is formed here, once; every cell's evaluation reads it from the geometry
    pairwise_cosine_dissimilarity(geometry)
    records: list[RepetitionRecord] = []
    rows: list[SweepRow] = []
    for k in range(config.k_min, k_hi + 1):
        batch: list[RepetitionRecord] = []
        unconverged = 0
        for r in range(config.repetitions):
            seed = derive_seed(config.master_seed, rep.provenance, k, r)
            clustering = kmeans(geometry, KmeansConfig(k=k, seed=seed))
            unconverged += not clustering.converged
            report = evaluate_clustering(geometry, clustering, gold)
            batch.append(RepetitionRecord(
                k=k, repetition=r, seed=seed, n_clusters=k,
                purity=report.purity, ari=report.adjusted_rand,
                dunn2=report.dunn2, silhouette=report.silhouette))
        if unconverged == len(batch):
            warnings.append(f"{rep.provenance} k={k}: every K-Means cell "
                            f"({len(batch)} repetition(s)) hit max_iter before converging")
            log.warning(warnings[-1])
        records.extend(batch)
        purities = [rec.purity for rec in batch if rec.purity is not None]
        aris = [rec.ari for rec in batch if rec.ari is not None]
        dunns = [rec.dunn2 for rec in batch
                 if rec.dunn2 is not None and math.isfinite(rec.dunn2)]
        sils = [rec.silhouette for rec in batch if rec.silhouette is not None]
        excluded = len(batch) - len(dunns)
        if excluded:
            log.info("%s k=%d: %d undefined dunn2 value(s) excluded from the mean",
                     rep.provenance, k, excluded)
        rows.append(SweepRow(k=k, repetitions=len(batch),
                             purity=_mean(purities), ari=_mean(aris),
                             dunn2=_mean(dunns), silhouette=_mean(sils),
                             dunn2_defined=len(dunns),
                             silhouette_defined=len(sils)))
    return SweepResult(representation=rep.provenance, rows=tuple(rows),
                       cells=tuple(records), warnings=tuple(warnings))


def _normalize_curve(values: list[float | None]) -> list[float] | None:
    """Min-max to [0,1]; constant curves map to all-0.5; missing values are
    imputed at 0.5; a curve with no defined value at all is unusable."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None
    lo, hi = min(defined), max(defined)
    if hi == lo:
        return [0.5] * len(values)
    return [0.5 if v is None else (v - lo) / (hi - lo) for v in values]


def combined_curve(result: SweepResult) -> list[float]:
    """Equal-weight sum of the min-max-normalized index curves."""
    curves = [
        _normalize_curve([row.purity for row in result.rows]),
        _normalize_curve([row.ari for row in result.rows]),
        _normalize_curve([row.dunn2 for row in result.rows]),
        _normalize_curve([row.silhouette for row in result.rows]),
    ]
    usable = [c for c in curves if c is not None]
    if not usable:
        raise ValueError(f"{result.representation}: every index value is undefined")
    return [sum(curve[t] for curve in usable) for t in range(len(result.rows))]


def _plateau_runs(values: list[float]) -> list[tuple[float, int, int]]:
    runs: list[tuple[float, int, int]] = []
    start = 0
    for t in range(1, len(values) + 1):
        if t == len(values) or values[t] != values[start]:
            runs.append((values[start], start, t - 1))
            start = t
    return runs


def select_k(result: SweepResult, strategy: Selection = Selection.FIRST_PEAK,
             peak_floor: float = 0.9) -> int:
    """Pick k from the combined curve.  Global: argmax (smallest k on ties).
    FirstPeak: the smallest strict local maximum (a plateau counts through
    its first k; endpoints never qualify) whose value reaches
    peak_floor x global maximum, with Global as fallback.  A one-row sweep
    selects its only k."""
    if not result.rows:
        raise ValueError("select_k needs at least 1 sweep row")
    if len(result.rows) == 1:
        return result.rows[0].k
    combined = combined_curve(result)
    ks = [row.k for row in result.rows]
    global_max = max(combined)
    global_k = ks[combined.index(global_max)]
    if strategy is Selection.GLOBAL:
        return global_k

    runs = _plateau_runs(combined)
    for idx in range(1, len(runs) - 1):
        value, start, _ = runs[idx]
        if value > runs[idx - 1][0] and value > runs[idx + 1][0] \
                and value >= peak_floor * global_max:
            return ks[start]
    return global_k


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


def build_representations(corpus: Corpus, config: PipelineConfig,
                          out_dir: Path | None = None) -> dict[str, Representation]:
    """Extraction, matrices and all requested encodings in one pass;
    optionally persists every intermediate artifact."""
    extraction_config = SCHEMES[config.scheme](root_only=config.root_only)
    with _stage("extraction"):
        couples = extract_corpus(corpus, extraction_config)
        if not couples:
            raise ValueError("no couples extracted from the corpus")
        if out_dir is not None:
            write_couples_tsv(couples, out_dir / "couples.tsv", header=True)

    with _stage("matrices"):
        matrices = build_matrices(
            couples, Thresholds(config.sweep.sigma1, config.sweep.sigma2))
        counts, weighted = matrices.counts, matrices.tfidf
        if out_dir is not None:
            save_matrix(counts, out_dir / "np_vpc.mtx")
            save_matrix(weighted, out_dir / "np_vpc_tfidf.mtx")

    wanted = config.sweep.representations
    reps: dict[str, Representation] = {}
    with _stage("representations"):
        if NP_VPC in wanted:
            reps[NP_VPC] = representation_from_matrix(counts, NP_VPC)
        if NP_VPC_TFIDF in wanted:
            reps[NP_VPC_TFIDF] = representation_from_matrix(weighted, NP_VPC_TFIDF)
        if NP_VPC_NMF in wanted:
            pair = nmf(counts, rank=config.nmf_rank, max_iter=config.nmf_max_iter,
                       tol=config.nmf_tol,
                       seed=derive_seed(config.sweep.master_seed, "nmf"))
            reps[NP_VPC_NMF] = make_representation(counts.row_labels, pair.W, NP_VPC_NMF)
        if NP_W2V in wanted:
            table = train_skipgram(corpus, SkipgramConfig(
                dim=config.w2v_dim, window=config.w2v_window,
                negatives=config.w2v_negatives, epochs=config.w2v_epochs,
                min_count=config.w2v_min_count,
                seed=derive_seed(config.sweep.master_seed, "w2v")))
            if out_dir is not None:
                save_embeddings(table, out_dir / "embeddings.txt")
            reps[NP_W2V] = np_vectors(table, list(counts.row_labels))
        if out_dir is not None:
            for name, rep in reps.items():
                save_representation(rep, out_dir / f"rep_{name}.txt")
    return reps


REPORT_HEADER = ("clusterer", "representation", "n_clusters", "ratio",
                 "purity", "ari", "dunn2", "silhouette")
CURVES_HEADER = ("k", "purity", "ari", "dunn2", "silhouette")
REPETITIONS_HEADER = ("k", "repetition", "seed", "n_clusters",
                      "purity", "ari", "dunn2", "silhouette")


def _write_table(path: Path, header: tuple[str, ...], records) -> None:
    """CSV with ``header``; each column is the record attribute of that name."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for record in records:
            fh.write(",".join(format_value(getattr(record, column))
                              for column in header) + "\n")


def write_report_csv(report: Report, path: Path) -> None:
    _write_table(path, REPORT_HEADER, report.rows)


def write_curves_csv(result: SweepResult, path: Path) -> None:
    _write_table(path, CURVES_HEADER, result.rows)


def write_repetitions_csv(result: SweepResult, path: Path) -> None:
    _write_table(path, REPETITIONS_HEADER, result.cells)


def _config_dict(config: PipelineConfig) -> dict:
    raw = dataclasses.asdict(config)
    raw["sweep"]["selection"] = config.sweep.selection.value
    raw["sweep"]["representations"] = list(config.sweep.representations)
    return raw


def run_pipeline(corpus: Corpus, gold: GoldStandard | None,
                 config: PipelineConfig, out_dir: str | Path) -> Report:
    """Full workflow: representations, K-Means sweep + k selection, one AP
    run per representation, Table-style report plus curve/repetition CSVs
    and a manifest.  Without a gold standard the external columns are NA."""
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
    for name in ordered:
        with _stage(f"sweep:{name}"):
            geometry = Geometry(reps[name])    # shared by the sweep and AP
            result = run_sweep(geometry, gold, config.sweep)
            warnings.extend(result.warnings)
            write_curves_csv(result, out / f"curves_{name}.csv")
            write_repetitions_csv(result, out / f"repetitions_{name}.csv")
            k_sel = select_k(result, config.sweep.selection, config.sweep.peak_floor)
            selected[name] = k_sel
            row = result.row_for(k_sel)
            # a k whose every repetition was +inf reports dunn2 as inf
            dunn = row.dunn2 if row.dunn2_defined else math.inf
            km_rows.append(ReportRow(
                clusterer="KM", representation=name, n_clusters=k_sel,
                ratio=(k_sel / n_gold_labels if n_gold_labels else None),
                purity=row.purity, ari=row.ari, dunn2=dunn, silhouette=row.silhouette))
        with _stage(f"ap:{name}"):
            clustering = affinity_propagation(geometry, config.ap)
            if not clustering.converged:
                warnings.append(f"{name}: {AP_NOT_CONVERGED}")
            save_clustering(clustering, out / f"ap_{name}.csv",
                            config=dataclasses.asdict(config.ap))
            # AP freed D; it is formed again from the normalized rows
            index_report = evaluate_clustering(geometry, clustering, gold)
            ap_rows.append(ReportRow(
                clusterer="AP", representation=name,
                n_clusters=clustering.n_clusters,
                ratio=(clustering.n_clusters / n_gold_labels if n_gold_labels else None),
                purity=index_report.purity, ari=index_report.adjusted_rand,
                dunn2=index_report.dunn2, silhouette=index_report.silhouette))

    report = Report(rows=tuple(km_rows + ap_rows))
    write_report_csv(report, out / "report.csv")

    manifest = {
        "config": _config_dict(config),
        "corpus": {"n_documents": corpus.n_documents,
                   "n_sentences": sum(1 for _ in corpus.sentences())},
        "gold": ({"n_terms": len(gold.mapping), "n_labels": gold.n_labels}
                 if gold is not None else None),
        "selected_k": selected,
        "representations": {name: {"rows": reps[name].n_rows,
                                   "cols": int(reps[name].matrix.shape[1])}
                            for name in ordered},
        "artifacts": sorted(p.name for p in out.iterdir() if p.is_file()
                            and p.name != "manifest.json"),
        "warnings": warnings,
        "versions": {"termforge": __version__, "numpy": np.__version__},
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return report

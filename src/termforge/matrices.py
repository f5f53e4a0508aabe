"""Sparse NP-by-VPC co-occurrence matrices and their reductions.

Subject and object couples each give a count matrix; merging takes the union
of row and column label spaces and sums overlapping cells, which yields the
nine-block structure (pure-subject, pure-object and common parts).  Two
bi-directional reductions operate on such matrices: a frequency cutoff
(keep rows/columns whose sum exceeds sigma1) and a Tf-Idf value cutoff
(weight first, then keep rows/columns whose weighted sum exceeds sigma2).
Both are single-pass: sums are computed on the input matrix only.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np
import scipy.io
import scipy.sparse as sp

from .extraction import CoupleSet, Role

log = logging.getLogger(__name__)


class MatrixKind(Enum):
    SUBJECT_COUNTS = "SubjectCounts"
    OBJECT_COUNTS = "ObjectCounts"
    MERGED_COUNTS = "MergedCounts"
    TFIDF = "TfIdf"

    @property
    def is_counts(self) -> bool:
        return self is not MatrixKind.TFIDF


class ThresholdError(ValueError):
    """A cutoff eliminated every row of the matrix."""


@dataclass(frozen=True)
class Thresholds:
    sigma1: float = 0.0   # frequency-sum cutoff, strict ">"
    sigma2: float = 0.0   # tf-idf-sum cutoff, strict ">"

    def __post_init__(self) -> None:
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("thresholds must be non-negative")


@dataclass(frozen=True)
class CooccurrenceMatrix:
    row_labels: tuple[str, ...]   # NP keys
    col_labels: tuple[str, ...]   # VPC keys
    values: sp.csr_matrix         # non-negative, no stored zeros
    kind: MatrixKind

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def toarray(self) -> np.ndarray:
        return np.asarray(self.values.todense(), dtype=float)

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.values.sum(axis=1)).ravel()

    def col_sums(self) -> np.ndarray:
        return np.asarray(self.values.sum(axis=0)).ravel()


def _make_csr(values: sp.spmatrix, shape: tuple[int, int]) -> sp.csr_matrix:
    m = sp.csr_matrix(values, shape=shape)
    m.eliminate_zeros()
    m.sort_indices()
    return m


def build_role_matrix(couples: CoupleSet, role: Role) -> CooccurrenceMatrix:
    """Count matrix for one role; rows and columns sorted lexicographically."""
    selected = [c for c in couples.couples if c.role is role]
    rows = sorted({c.np for c in selected})
    cols = sorted({c.vpc.key for c in selected})
    row_index = {k: i for i, k in enumerate(rows)}
    col_index = {k: j for j, k in enumerate(cols)}
    data = np.ones(len(selected), dtype=float)
    i = np.array([row_index[c.np] for c in selected], dtype=int)
    j = np.array([col_index[c.vpc.key] for c in selected], dtype=int)
    values = sp.coo_matrix((data, (i, j)), shape=(len(rows), len(cols)))
    kind = MatrixKind.SUBJECT_COUNTS if role is Role.SUBJECT else MatrixKind.OBJECT_COUNTS
    return CooccurrenceMatrix(tuple(rows), tuple(cols), _make_csr(values, (len(rows), len(cols))), kind)


def merge_matrices(subj: CooccurrenceMatrix, obj: CooccurrenceMatrix) -> CooccurrenceMatrix:
    """Union of label spaces; cells present in both inputs are summed."""
    if subj.kind is not MatrixKind.SUBJECT_COUNTS or obj.kind is not MatrixKind.OBJECT_COUNTS:
        raise ValueError(f"merge expects (SubjectCounts, ObjectCounts), got ({subj.kind}, {obj.kind})")
    rows = sorted(set(subj.row_labels) | set(obj.row_labels))
    cols = sorted(set(subj.col_labels) | set(obj.col_labels))
    row_index = {k: i for i, k in enumerate(rows)}
    col_index = {k: j for j, k in enumerate(cols)}
    shape = (len(rows), len(cols))
    total = sp.csr_matrix(shape, dtype=float)
    for part in (subj, obj):
        if 0 in part.values.shape or part.values.nnz == 0:
            continue
        coo = part.values.tocoo()
        i = np.array([row_index[part.row_labels[r]] for r in coo.row], dtype=int)
        j = np.array([col_index[part.col_labels[c]] for c in coo.col], dtype=int)
        total = total + sp.coo_matrix((coo.data, (i, j)), shape=shape).tocsr()
    return CooccurrenceMatrix(tuple(rows), tuple(cols), _make_csr(total, shape), MatrixKind.MERGED_COUNTS)


def _bidirectional_cut(m: CooccurrenceMatrix, cutoff: float, symbol: str) -> CooccurrenceMatrix:
    row_keep = np.flatnonzero(m.row_sums() > cutoff)
    col_keep = np.flatnonzero(m.col_sums() > cutoff)
    sub = m.values[row_keep][:, col_keep] if row_keep.size and col_keep.size else sp.csr_matrix((row_keep.size, col_keep.size))
    sub = sp.csr_matrix(sub)
    sub.eliminate_zeros()
    # drop rows/columns left entirely zero by the joint cut
    nz_rows = np.flatnonzero(sub.getnnz(axis=1))
    nz_cols = np.flatnonzero(sub.getnnz(axis=0))
    sub = sub[nz_rows][:, nz_cols] if nz_rows.size and nz_cols.size else sp.csr_matrix((0, 0))
    rows = tuple(m.row_labels[i] for i in row_keep[nz_rows]) if nz_rows.size else ()
    cols = tuple(m.col_labels[j] for j in col_keep[nz_cols]) if nz_cols.size else ()
    if not rows:
        raise ThresholdError(
            f"{symbol} > {cutoff} eliminated every row; lower {symbol}"
        )
    return CooccurrenceMatrix(rows, cols, _make_csr(sub, (len(rows), len(cols))), m.kind)


def apply_frequency_threshold(m: CooccurrenceMatrix, t: Thresholds) -> CooccurrenceMatrix:
    """Keep rows and columns whose count sum exceeds sigma1 (strict)."""
    if not m.kind.is_counts:
        raise ValueError(f"frequency threshold expects a counts matrix, got {m.kind}")
    return _bidirectional_cut(m, t.sigma1, "sigma1")


def tfidf_weight(m: CooccurrenceMatrix) -> CooccurrenceMatrix:
    """Weight counts with NPs as terms and VPCs as documents:
    w(i,j) = f(i,j) * ln(M / df_i), M the column count, df_i the number of
    distinct VPCs NP i co-occurs with."""
    if not m.kind.is_counts:
        raise ValueError(f"tfidf expects a counts matrix, got {m.kind}")
    n_cols = len(m.col_labels)
    df = m.values.getnnz(axis=1)
    weighted = m.values.tocoo(copy=True)
    if weighted.nnz:
        idf = np.log(n_cols / df[weighted.row])
        weighted.data = weighted.data * idf
    return CooccurrenceMatrix(m.row_labels, m.col_labels,
                              _make_csr(weighted, m.shape), MatrixKind.TFIDF)


def apply_value_threshold(m: CooccurrenceMatrix, t: Thresholds) -> CooccurrenceMatrix:
    """Keep rows and columns whose Tf-Idf sum exceeds sigma2 (strict)."""
    if m.kind is not MatrixKind.TFIDF:
        raise ValueError(f"value threshold expects a TfIdf matrix, got {m.kind}")
    return _bidirectional_cut(m, t.sigma2, "sigma2")


# Representation provenances
NP_VPC = "NP_VPC"
NP_VPC_TFIDF = "NP_VPC_tfidf"
NP_VPC_NMF = "NP_VPC_NMF"
NP_W2V = "NP_w2v"

REPRESENTATIONS = (NP_VPC, NP_VPC_TFIDF, NP_VPC_NMF, NP_W2V)


@dataclass(frozen=True)
class Representation:
    """Dense NP-by-feature matrix ready for clustering; all-zero rows have
    been dropped (they carry no direction for cosine geometry)."""

    row_labels: tuple[str, ...]
    matrix: np.ndarray
    provenance: str
    dropped_labels: tuple[str, ...] = ()

    @property
    def n_rows(self) -> int:
        return len(self.row_labels)


def make_representation(row_labels: tuple[str, ...] | list[str],
                        matrix: np.ndarray,
                        provenance: str) -> Representation:
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != len(row_labels):
        raise ValueError(f"matrix shape {matrix.shape} does not match {len(row_labels)} labels")
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = [lbl for lbl, ok in zip(row_labels, finite) if not ok]
        raise ValueError(f"{provenance}: non-finite values in {len(bad)} row(s): "
                         f"{', '.join(bad[:5])}{', ...' if len(bad) > 5 else ''}")
    nonzero = ~np.all(matrix == 0.0, axis=1)
    dropped = tuple(lbl for lbl, keep in zip(row_labels, nonzero) if not keep)
    if dropped:
        log.warning("%s: dropping %d all-zero rows before clustering: %s",
                    provenance, len(dropped), ", ".join(dropped[:5]))
    kept = tuple(lbl for lbl, keep in zip(row_labels, nonzero) if keep)
    return Representation(kept, matrix[nonzero], provenance, dropped)


def representation_from_matrix(m: CooccurrenceMatrix, provenance: str) -> Representation:
    return make_representation(m.row_labels, m.toarray(), provenance)


# ---------------------------------------------------------------------------
# Serialization: MatrixMarket coordinate text plus .rows/.cols label sidecars.

def save_matrix(m: CooccurrenceMatrix, path: str | Path) -> None:
    path = Path(path)
    scipy.io.mmwrite(str(path), m.values.tocoo(), field="real")
    path.with_suffix(path.suffix + ".rows").write_text(
        "".join(f"{k}\n" for k in m.row_labels), encoding="utf-8")
    path.with_suffix(path.suffix + ".cols").write_text(
        "".join(f"{k}\n" for k in m.col_labels), encoding="utf-8")


def load_matrix(path: str | Path, kind: MatrixKind) -> CooccurrenceMatrix:
    path = Path(path)
    values = sp.csr_matrix(scipy.io.mmread(str(path)))
    rows = tuple(path.with_suffix(path.suffix + ".rows").read_text(encoding="utf-8").splitlines())
    cols = tuple(path.with_suffix(path.suffix + ".cols").read_text(encoding="utf-8").splitlines())
    if values.shape != (len(rows), len(cols)):
        raise ValueError(f"{path}: matrix shape {values.shape} does not match sidecar labels "
                         f"({len(rows)} rows, {len(cols)} cols)")
    return CooccurrenceMatrix(rows, cols, _make_csr(values, values.shape), kind)


def save_representation(rep: Representation, path: str | Path) -> None:
    """Labeled dense text: header ``rows cols``, then ``key<TAB>v1 v2 ...``
    (NP keys may contain spaces, so the key is tab-separated).  The one
    writer of this format: embedding tables and NMF's H use it too."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rep.n_rows} {rep.matrix.shape[1] if rep.matrix.size else 0}\n")
        for key, row in zip(rep.row_labels, rep.matrix):
            fh.write(key + "\t" + " ".join(repr(float(v)) for v in row) + "\n")


def load_representation(path: str | Path, provenance: str | None = None) -> Representation:
    """Read ``save_representation`` output.  A space in place of the tab
    after the key is read too, so word2vec-style text tables load (their
    keys cannot contain spaces)."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(h.isdecimal() for h in header):
            raise ValueError(f"{path}: bad header {' '.join(header)!r}, "
                             "expected two non-negative integers 'rows cols'")
        n_rows, n_cols = int(header[0]), int(header[1])
        labels: list[str] = []
        rows = np.zeros((n_rows, n_cols), dtype=float)
        for i in range(n_rows):
            line = fh.readline().rstrip("\n")
            if "\t" in line:
                key, values = line.split("\t", 1)
            else:
                key, _, values = line.partition(" ")
            labels.append(key)
            parsed = [float(v) for v in values.split()]
            if len(parsed) != n_cols:
                raise ValueError(f"{path}: row {i} has {len(parsed)} values, expected {n_cols}")
            rows[i] = parsed
            if not np.isfinite(rows[i]).all():
                raise ValueError(f"{path}: row {i} ({key}) has non-finite values")
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: non-blank lines after the {n_rows} rows "
                             "the header declares")
    return Representation(tuple(labels), rows, provenance or path.stem)

"""Sparse NP-by-VPC co-occurrence matrices and their reductions.

Subject and object couples each give a count matrix; merging takes the union
of row and column label spaces and sums overlapping cells, which yields the
nine-block structure (pure-subject, pure-object and common parts).  Two
bi-directional reductions operate on such matrices: a frequency cutoff
(keep rows/columns whose sum exceeds sigma1) and a Tf-Idf value cutoff
(weight first, then keep rows/columns whose weighted sum exceeds sigma2).
Both are single-pass: sums are computed on the input matrix only.  Each
function takes any ``CooccurrenceMatrix``; ``experiment.build_matrices``
fixes the order of the stages.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .extraction import Couple, Role

log = logging.getLogger(__name__)


class ThresholdError(ValueError):
    """A cutoff eliminated every row of the matrix."""


@dataclass(frozen=True)
class Thresholds:
    sigma1: float = 0.0   # frequency-sum cutoff, strict ">"
    sigma2: float = 0.0   # tf-idf-sum cutoff, strict ">"

    def __post_init__(self) -> None:
        # "not >=" so that NaN fails too; it would cut every row
        if not self.sigma1 >= 0 or not self.sigma2 >= 0:
            raise ValueError(f"thresholds must be non-negative, got {self}")


@dataclass(frozen=True, eq=False)
class Csr:
    """Compressed sparse rows on numpy arrays.  Row i holds the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending, with values ``data`` at
    the same positions; no entry is duplicated and no zero is stored."""

    indptr: np.ndarray    # n_rows + 1 offsets into indices and data
    indices: np.ndarray   # column of each entry
    data: np.ndarray      # float value of each entry
    shape: tuple[int, int]

    @classmethod
    def from_triplets(cls, rows, cols, values, shape: tuple[int, int]) -> Csr:
        """Entry k is ``values[k]`` at ``(rows[k], cols[k])``; duplicates are
        summed, then zeros dropped."""
        n_rows, n_cols = (int(v) for v in shape)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=float)
        if rows.size and not (0 <= rows.min() and rows.max() < n_rows
                              and 0 <= cols.min() and cols.max() < n_cols):
            raise ValueError(f"entry index out of range for shape {(n_rows, n_cols)}")
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        first = np.flatnonzero((np.diff(rows, prepend=-1) != 0)
                               | (np.diff(cols, prepend=-1) != 0))
        rows, cols, values = rows[first], cols[first], np.add.reduceat(values, first)
        keep = values != 0
        indptr = np.zeros(n_rows + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows[keep], minlength=n_rows), out=indptr[1:])
        return cls(indptr, cols[keep], values[keep], (n_rows, n_cols))

    @property
    def nnz(self) -> int:
        return len(self.data)

    def row_ids(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def transpose(self) -> Csr:
        return Csr.from_triplets(self.indices, self.row_ids(), self.data, self.shape[::-1])

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense[self.row_ids(), self.indices] = self.data
        return dense


@dataclass(frozen=True)
class CooccurrenceMatrix:
    row_labels: tuple[str, ...]   # NP keys
    col_labels: tuple[str, ...]   # VPC keys
    values: Csr                   # non-negative

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.row_labels), len(self.col_labels))

    def toarray(self) -> np.ndarray:
        return self.values.toarray()

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.values.row_ids(), self.values.data, self.shape[0])

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.values.indices, self.values.data, self.shape[1])


def build_role_matrix(couples: Sequence[Couple], role: Role) -> CooccurrenceMatrix:
    """Count matrix for one role; rows and columns sorted lexicographically."""
    selected = [c for c in couples if c.role is role]
    rows = sorted({c.np for c in selected})
    cols = sorted({c.vpc for c in selected})
    row_index = {k: i for i, k in enumerate(rows)}
    col_index = {k: j for j, k in enumerate(cols)}
    i = [row_index[c.np] for c in selected]
    j = [col_index[c.vpc] for c in selected]
    values = Csr.from_triplets(i, j, np.ones(len(selected)), (len(rows), len(cols)))
    return CooccurrenceMatrix(tuple(rows), tuple(cols), values)


def merge_matrices(subj: CooccurrenceMatrix, obj: CooccurrenceMatrix) -> CooccurrenceMatrix:
    """Union of label spaces; cells present in both inputs are summed, so
    the order of the inputs does not matter."""
    rows = sorted(set(subj.row_labels) | set(obj.row_labels))
    cols = sorted(set(subj.col_labels) | set(obj.col_labels))
    row_index = {k: i for i, k in enumerate(rows)}
    col_index = {k: j for j, k in enumerate(cols)}
    i, j, data = [], [], []
    for part in (subj, obj):
        row_map = np.array([row_index[k] for k in part.row_labels], dtype=np.intp)
        col_map = np.array([col_index[k] for k in part.col_labels], dtype=np.intp)
        i.append(row_map[part.values.row_ids()])
        j.append(col_map[part.values.indices])
        data.append(part.values.data)
    values = Csr.from_triplets(np.concatenate(i), np.concatenate(j), np.concatenate(data),
                               (len(rows), len(cols)))
    return CooccurrenceMatrix(tuple(rows), tuple(cols), values)


def _bidirectional_cut(m: CooccurrenceMatrix, cutoff: float, symbol: str) -> CooccurrenceMatrix:
    i, j, data = m.values.row_ids(), m.values.indices, m.values.data
    inside = (m.row_sums() > cutoff)[i] & (m.col_sums() > cutoff)[j]
    i, j, data = i[inside], j[inside], data[inside]
    # rows/columns left entirely zero by the joint cut go too
    kept_rows, i = np.unique(i, return_inverse=True)
    kept_cols, j = np.unique(j, return_inverse=True)
    if not kept_rows.size:
        raise ThresholdError(
            f"{symbol} > {cutoff} eliminated every row; lower {symbol}"
        )
    rows = tuple(m.row_labels[r] for r in kept_rows)
    cols = tuple(m.col_labels[c] for c in kept_cols)
    return CooccurrenceMatrix(rows, cols, Csr.from_triplets(i, j, data, (len(rows), len(cols))))


def apply_frequency_threshold(m: CooccurrenceMatrix, t: Thresholds) -> CooccurrenceMatrix:
    """Keep rows and columns whose count sum exceeds sigma1 (strict)."""
    return _bidirectional_cut(m, t.sigma1, "sigma1")


def tfidf_weight(m: CooccurrenceMatrix) -> CooccurrenceMatrix:
    """Weight counts with NPs as terms and VPCs as documents:
    w(i,j) = f(i,j) * ln(M / df_i), M the column count, df_i the number of
    distinct VPCs NP i co-occurs with."""
    n_cols = len(m.col_labels)
    rows = m.values.row_ids()
    df = np.diff(m.values.indptr)
    weighted = m.values.data * np.log(n_cols / df[rows])
    return CooccurrenceMatrix(m.row_labels, m.col_labels,
                              Csr.from_triplets(rows, m.values.indices, weighted, m.shape))


def apply_value_threshold(m: CooccurrenceMatrix, t: Thresholds) -> CooccurrenceMatrix:
    """Keep rows and columns whose Tf-Idf sum exceeds sigma2 (strict)."""
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

_MM_HEADER = "%%MatrixMarket matrix coordinate {} general"
_MM_READABLE = [_MM_HEADER.format(field).lower().split() for field in ("real", "integer")]


def _mm_real(value: float) -> str:
    """``scipy.io.mmwrite``'s spelling of a real: the shortest digits that
    round-trip, in scientific form with ``E`` and no ``E0`` (``6``,
    ``2.387844936944869``, ``1.2E1``, ``1E-5``)."""
    mantissa, exp = np.format_float_scientific(value, unique=True, trim="-",
                                               exp_digits=1).split("e")
    return mantissa + (f"E{int(exp)}" if int(exp) else "")


def save_matrix(m: CooccurrenceMatrix, path: str | Path) -> None:
    """Matrix Market coordinate text, byte-identical to ``scipy.io.mmwrite(
    path, m, field="real")`` except that the header always says ``general``
    (scipy writes a symmetric matrix under 100 rows as ``symmetric``)."""
    path = Path(path)
    v = m.values
    # counts and tf-idf weights repeat few values: spell each distinct one once
    distinct, which = np.unique(v.data, return_inverse=True)
    spelled = [_mm_real(x) for x in distinct.tolist()]
    lines = [f"{_MM_HEADER.format('real')}\n%\n{v.shape[0]} {v.shape[1]} {v.nnz}\n"]
    lines += [f"{i} {j} {spelled[k]}\n" for i, j, k in
              zip((v.row_ids() + 1).tolist(), (v.indices + 1).tolist(), which.tolist())]
    path.write_text("".join(lines), encoding="utf-8")
    path.with_suffix(path.suffix + ".rows").write_text(
        "".join(f"{k}\n" for k in m.row_labels), encoding="utf-8")
    path.with_suffix(path.suffix + ".cols").write_text(
        "".join(f"{k}\n" for k in m.col_labels), encoding="utf-8")


def load_matrix(path: str | Path) -> CooccurrenceMatrix:
    """Read ``save_matrix`` output, or any Matrix Market ``coordinate real``
    or ``coordinate integer`` ``general`` file; duplicate entries are summed.
    A repeated row key or a non-finite value fails, naming its row."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if header.lower().split() not in _MM_READABLE:
            raise ValueError(f"{path}: header {header.strip()!r} is not "
                             f"{_MM_HEADER.format('real|integer')!r}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        size = line.split()
        if len(size) != 3 or not all(t.isdecimal() for t in size):
            raise ValueError(f"{path}: bad size line {line.strip()!r}, expected 'rows cols entries'")
        n_rows, n_cols, nnz = (int(t) for t in size)
        fields = fh.read().split()
    if len(fields) != 3 * nnz:
        raise ValueError(f"{path}: the size line declares {nnz} entries, but "
                         f"{len(fields)} fields follow it, not {3 * nnz}")
    try:
        ids = np.array(fields[0::3], dtype=np.intp) - 1
        data = np.array(fields[2::3], dtype=float)
        # checked before duplicates are summed: inf + -inf would warn as NaN
        finite = np.isfinite(data)
        data[~finite] = 0.0
        values = Csr.from_triplets(ids, np.array(fields[1::3], dtype=np.intp) - 1,
                                   data, (n_rows, n_cols))
    except ValueError as exc:   # malformed numbers, or a zero or too large index
        raise ValueError(f"{path}: {exc}") from None
    rows = tuple(path.with_suffix(path.suffix + ".rows").read_text(encoding="utf-8").splitlines())
    cols = tuple(path.with_suffix(path.suffix + ".cols").read_text(encoding="utf-8").splitlines())
    if values.shape != (len(rows), len(cols)):
        raise ValueError(f"{path}: matrix shape {values.shape} does not match sidecar labels "
                         f"({len(rows)} rows, {len(cols)} cols)")
    first: dict[str, int] = {}
    for i, key in enumerate(rows):
        if first.setdefault(key, i) != i:
            raise ValueError(f"{path}: row {i} repeats the key {key!r} of row {first[key]}")
    if not finite.all():
        i = ids[~finite].min()
        raise ValueError(f"{path}: row {i} ({rows[i]}) has non-finite values")
    return CooccurrenceMatrix(rows, cols, values)


def save_representation(rep: Representation, path: str | Path) -> None:
    """Labeled dense text: header ``rows cols``, then ``key<TAB>v1 v2 ...``
    spelled by ``repr`` (NP keys may contain spaces, so the key is
    tab-separated).  The one writer of this format: embedding tables and
    NMF's H use it too.  Count representations are stored as ``.mtx``."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rep.n_rows} {rep.matrix.shape[1] if rep.matrix.size else 0}\n")
        for key, row in zip(rep.row_labels, np.asarray(rep.matrix, dtype=float)):
            fh.write(key + "\t" + " ".join(map(repr, row.tolist())) + "\n")


def load_representation(path: str | Path) -> Representation:
    """Read ``save_representation`` output, or a count ``.mtx`` with its
    sidecars, through ``make_representation``.  A space in place of the tab
    after the key is read too (word2vec-style tables; keys without spaces)."""
    path = Path(path)
    if path.suffix == ".mtx":
        return representation_from_matrix(load_matrix(path), path.stem)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2 or not all(h.isdecimal() for h in header):
            raise ValueError(f"{path}: bad header {' '.join(header)!r}, "
                             "expected two non-negative integers 'rows cols'")
        n_rows, n_cols = int(header[0]), int(header[1])
        labels: dict[str, int] = {}   # key -> row, in row order
        rows = np.zeros((n_rows, n_cols), dtype=float)
        for i in range(n_rows):
            line = fh.readline().rstrip("\n")
            if "\t" in line:
                key, values = line.split("\t", 1)
            else:
                key, _, values = line.partition(" ")
            if key in labels:
                raise ValueError(f"{path}: row {i} repeats the key {key!r} of row "
                                 f"{labels[key]}")
            labels[key] = i
            parsed = [float(v) for v in values.split()]
            if len(parsed) != n_cols:
                raise ValueError(f"{path}: row {i} has {len(parsed)} values, expected {n_cols}")
            rows[i] = parsed
            if not np.isfinite(rows[i]).all():
                raise ValueError(f"{path}: row {i} ({key}) has non-finite values")
        if any(line.strip() for line in fh):
            raise ValueError(f"{path}: non-blank lines after the {n_rows} rows "
                             "the header declares")
    return make_representation(tuple(labels), rows, path.stem)

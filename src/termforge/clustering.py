"""Spherical K-Means and Affinity Propagation under cosine dissimilarity.

Both algorithms operate on L2-normalized rows, so positive rescaling of any
input row cannot change an assignment.  Determinism rules, fixed so tests can
compare runs exactly:

  * K-Means: k-means++ seeded from the config; nearest-centroid ties go to
    the lowest cluster id; empty clusters are reseeded with the point
    farthest from its current centroid.
  * AP: a constant-seeded, eps-scale jitter breaks message-passing ties
    between identical rows (otherwise R/A oscillate forever on duplicates);
    final assignments are computed on the clean similarities with
    lexicographic NP-key tie-breaks, so the jitter never shows downstream.
    Message passing runs on one thread in row blocks, and column sums add
    the rows in order, so R and A have the same bits for any block size.
"""
from __future__ import annotations

import csv
import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .matrices import Representation

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Clustering:
    """A partition of NP keys: ``ids[i]`` is the cluster of ``labels[i]``;
    ``assignment`` and ``n_clusters`` are derived from the two."""

    labels: tuple[str, ...]            # NP keys, row order of the clustered matrix
    ids: tuple[int, ...]               # in label order, 0..n_clusters-1, no gap
    algorithm: str
    centroids: np.ndarray | None = None        # K-Means only
    exemplars: dict[int, str] | None = None    # AP only: cluster id -> exemplar key
    objective: float | None = None
    objective_history: tuple[float, ...] = ()
    converged: bool = True

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            repeated = sorted(lbl for lbl, n in Counter(self.labels).items() if n > 1)
            raise ValueError(f"repeated labels {repeated[:5]}")
        if len(self.ids) != len(self.labels):
            raise ValueError(f"{len(self.ids)} cluster ids for {len(self.labels)} labels")
        if set(self.ids) != set(range(self.n_clusters)):
            raise ValueError(f"cluster ids {sorted(set(self.ids))} are not 0..{self.n_clusters - 1}")

    @cached_property
    def n_clusters(self) -> int:
        return len(set(self.ids))

    @cached_property
    def assignment(self) -> dict[str, int]:
        return dict(zip(self.labels, self.ids))

    def members(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {c: [] for c in range(self.n_clusters)}
        for lbl, c in zip(self.labels, self.ids):
            out[c].append(lbl)
        return {c: tuple(ms) for c, ms in out.items()}


@dataclass(frozen=True)
class KmeansConfig:
    k: int
    seed: int = 0
    max_iter: int = 300
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        # written so that a NaN rel_tol fails too; it could never converge
        if self.max_iter < 1 or not self.rel_tol >= 0:
            raise ValueError("max_iter must be >= 1 and rel_tol >= 0")


MEDIAN_PREFERENCE = "median"
AP_NOT_CONVERGED = "affinity propagation hit max_iter before the exemplar set stabilized"


@dataclass(frozen=True)
class ApConfig:
    preference: float | str = MEDIAN_PREFERENCE
    damping: float = 0.9
    max_iter: int = 1000
    convergence_window: int = 50

    def __post_init__(self) -> None:
        if not 0.5 <= self.damping < 1.0:
            raise ValueError(f"damping must be in [0.5, 1), got {self.damping}")
        if self.preference != MEDIAN_PREFERENCE and (
                isinstance(self.preference, str) or not math.isfinite(self.preference)):
            raise ValueError(f"preference must be a finite real or "
                             f"'{MEDIAN_PREFERENCE}', got {self.preference!r}")
        if self.max_iter < 1 or self.convergence_window < 1:
            raise ValueError("max_iter and convergence_window must be >= 1")


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Geometry:
    """The cosine geometry of one representation, computed once and shared
    by every clustering and evaluation of it.

    ``normalized`` holds the L2-normalized rows, checked finite and nonzero
    when the geometry is built.  ``distinct``, their distinct count, and
    ``dissimilarity``, the pairwise matrix D, are computed on first use and
    kept.  D is formed from checked rows, so it is finite, symmetric and
    zero on the diagonal by construction.  Both arrays are read-only, so
    what was checked stays true.

    ``kmeans``, ``affinity_propagation`` and ``experiment.run_sweep`` take
    a geometry, and the validity indices take one in place of D.
    """

    def __init__(self, rep: Representation) -> None:
        self.row_labels = tuple(rep.row_labels)
        self.provenance = rep.provenance
        matrix = np.asarray(rep.matrix, dtype=float)
        norms = np.linalg.norm(matrix, axis=1)
        if not np.all(np.isfinite(norms)):
            bad = np.flatnonzero(~np.isfinite(norms))[:5]
            raise ValueError(f"non-finite rows at indices {bad.tolist()} (NaN, inf or a "
                             "norm that overflows); fix or drop them before clustering")
        if np.any(norms == 0.0):
            bad = np.flatnonzero(norms == 0.0)[:5]
            raise ValueError(f"all-zero rows at indices {bad.tolist()}; "
                             "drop them before clustering")
        self.normalized = _read_only(matrix / norms[:, None])

    @cached_property
    def distinct(self) -> int:
        # hashing row bytes needs no sort; + 0.0 turns -0.0 into 0.0 so the
        # two zeros count as one value, as they compare equal.  Row by row,
        # so the matrix is not copied whole.
        return len({(row + 0.0).tobytes() for row in self.normalized})

    @cached_property
    def dissimilarity(self) -> np.ndarray:
        # in place, so two n x n arrays are live at most: d += d.T buffers
        # the overlapping transpose and gives exactly d + d.T
        d = self.normalized @ self.normalized.T
        np.subtract(1.0, d, out=d)
        d += d.T
        d /= 2.0
        np.clip(d, 0.0, 2.0, out=d)
        np.fill_diagonal(d, 0.0)
        return _read_only(d)

    def release_dissimilarity(self) -> None:
        """Free D; it is formed again on next use."""
        self.__dict__.pop("dissimilarity", None)


def pairwise_cosine_dissimilarity(geometry: Geometry) -> np.ndarray:
    """The geometry's D: symmetric, with an exactly zero diagonal."""
    return geometry.dissimilarity


def distinct_row_count(geometry: Geometry) -> int:
    """Number of distinct directions (unique L2-normalized rows)."""
    return geometry.distinct


def _kmeanspp_init(normalized: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = normalized.shape[0]
    centroids = np.empty((k, normalized.shape[1]))
    centroids[0] = normalized[rng.integers(n)]
    nearest = 1.0 - normalized @ centroids[0]
    for c in range(1, k):
        weights = np.clip(nearest, 0.0, None) ** 2
        total = weights.sum()
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centroids[c] = normalized[idx]
        nearest = np.minimum(nearest, 1.0 - normalized @ centroids[c])
    return centroids


def _dissimilarities(normalized: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """n x k cosine dissimilarities of the rows to the centroids."""
    d = normalized @ centroids.T
    np.subtract(1.0, d, out=d)
    return d


def _repair_empty(normalized: np.ndarray, labels: np.ndarray,
                  centroids: np.ndarray) -> bool:
    """Reseed each empty cluster with the point farthest from its assigned
    centroid; mutates labels and centroids.  Returns whether anything moved."""
    k = centroids.shape[0]
    if np.bincount(labels, minlength=k).all():
        return False
    repaired = False
    for c in range(k):
        if np.any(labels == c):
            continue
        dissim = 1.0 - np.einsum("ij,ij->i", normalized, centroids[labels])
        counts = np.bincount(labels, minlength=k)
        # never steal the sole member of another cluster
        dissim[counts[labels] <= 1] = -np.inf
        p = int(np.argmax(dissim))
        labels[p] = c
        centroids[c] = normalized[p]
        repaired = True
    return repaired


def _objective(dissimilarity: np.ndarray, labels: np.ndarray) -> float:
    """Sum of each row's dissimilarity to its own centroid, read from the n x k
    dissimilarities of the current labels and centroids."""
    # at an exact fit rounding leaves the sum slightly below 0, and the stop
    # test prev - new <= rel_tol * prev would never hold on a negative prev
    rows = np.arange(labels.shape[0])
    return max(0.0, float(np.sum(dissimilarity[rows, labels])))


def _assign_and_repair(normalized: np.ndarray,
                       centroids: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """Assignment step with empty-cluster repair: the labels, their objective
    and whether a repair moved a centroid (mutates centroids)."""
    dissimilarity = _dissimilarities(normalized, centroids)
    # argmin returns the first (lowest id) among tied centroids
    labels = np.argmin(dissimilarity, axis=1)
    repaired = _repair_empty(normalized, labels, centroids)
    if repaired:
        # the objective reads the labels and centroids as the repair left them
        dissimilarity = _dissimilarities(normalized, centroids)
    return labels, _objective(dissimilarity, labels), repaired


def kmeans(geometry: Geometry, config: KmeansConfig) -> Clustering:
    """Spherical K-Means on the geometry's normalized rows: k-means++ init,
    then assignment and normalized-mean centroid updates until the
    objective's relative improvement falls below rel_tol.  A run whose
    empty-cluster repair leaves the labels and centroids an earlier repair
    left would repeat the steps since then until max_iter, so it ends there,
    not converged.

    Always ends on an assignment step, so no point is left with a stale
    cluster against the final centroids.  The objective is read from the
    n x k dissimilarities that step forms, so outside an empty-cluster repair
    no n x d array beyond one cluster's member rows is made.
    """
    normalized = geometry.normalized
    if config.k > geometry.distinct:
        raise ValueError(f"k={config.k} exceeds the {geometry.distinct} distinct rows")

    rng = np.random.default_rng(config.seed)
    centroids = _kmeanspp_init(normalized, config.k, rng)
    labels, obj, repaired = _assign_and_repair(normalized, centroids)
    history = [obj]
    # the labels and centroids each repair left; they fix every later step
    repairs = {labels.tobytes() + centroids.tobytes()} if repaired else set()

    converged = False
    for _ in range(config.max_iter):
        # update step: normalized member mean; degenerate mean keeps the old centroid
        for c in range(config.k):
            members = normalized[labels == c]
            mean = members.mean(axis=0)
            norm = np.linalg.norm(mean)
            if norm >= 1e-12:
                centroids[c] = mean / norm
        labels, new_obj, repaired = _assign_and_repair(normalized, centroids)
        history.append(new_obj)
        prev, obj = obj, new_obj
        if repaired:
            # surgery moved a centroid; points may be stale, keep iterating
            # unless an earlier repair left this same state: the run cycles
            state = labels.tobytes() + centroids.tobytes()
            if state in repairs:
                break
            repairs.add(state)
            continue
        if prev - new_obj <= config.rel_tol * prev:
            converged = True
            break

    return Clustering(labels=geometry.row_labels, ids=tuple(labels.tolist()),
                      algorithm="kmeans", centroids=centroids, objective=obj,
                      objective_history=tuple(history), converged=converged)


# n x n float64 arrays live at once during message passing: the jittered
# similarities s, r and a.  The block scratch of _ap_messages comes on top
# (_ap_scratch_bytes).  The clean similarities the assignment reads are
# formed again once those are freed.
_AP_LIVE_ARRAYS = 3

# Message passing works through its rows in blocks of at most this many
# bytes of one n x n array, so that a block's rows of s, r and a and the
# scratch stay in cache while the block is updated; a matrix of at most this
# size (n <= 362) is one block.  A split costs one more elementwise pass per
# block, which pays only on larger matrices.  Median of 9 runs of 120
# iterations on a 2-vCPU virtual machine, whole matrix / 1 MiB blocks /
# 512 KiB blocks, in two sessions: n=280 0.089 / 0.088 / 0.098 s and
# 0.082 / 0.083 / 0.084 s, n=640 0.53 / 0.49 / 0.47 s and 0.52 / 0.49 /
# 0.44 s, n=1000 1.30 / 1.18 / 1.18 s and 1.27 / 1.17 / 1.13 s.  Smaller
# blocks would slow n=280.
_AP_BLOCK_BYTES = 1 << 20


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _ap_block_rows(n: int) -> int:
    """Rows per message-passing block on n rows."""
    return max(1, min(n, _AP_BLOCK_BYTES // (8 * n)))


def _ap_scratch_bytes(n: int) -> int:
    """Bytes of the block scratch and the column-sum vector."""
    return 8 * n * (_ap_block_rows(n) + 2)


# Each step below works on the rows of one message-passing block; `diag`
# indexes the entries of those rows that lie on the diagonal of the whole
# matrix, as (row in the block, column).

def _positive_responsibilities(r: np.ndarray, out: np.ndarray,
                               diag: tuple[np.ndarray, np.ndarray]) -> None:
    """max(R, 0), with R itself on the diagonal."""
    np.maximum(r, 0.0, out=out)
    out[diag] = r[diag]


def _update_responsibilities(s: np.ndarray, r: np.ndarray, a: np.ndarray,
                             tmp: np.ndarray, rows: np.ndarray, damping: float) -> None:
    """Damped responsibility update, through the scratch rows tmp."""
    np.add(a, s, out=tmp)
    first = np.argmax(tmp, axis=1)
    best = tmp[rows, first]
    tmp[rows, first] = -np.inf
    second = np.max(tmp, axis=1)
    np.subtract(s, best[:, None], out=tmp)
    tmp[rows, first] = s[rows, first] - second
    tmp *= 1.0 - damping
    r *= damping
    r += tmp


def _update_availabilities(a: np.ndarray, positive: np.ndarray, column_sum: np.ndarray,
                           diag: tuple[np.ndarray, np.ndarray], damping: float) -> None:
    """Damped availability update from the column sums and the block's
    max(R, 0) rows (overwritten)."""
    np.subtract(column_sum, positive, out=positive)
    own = positive[diag]
    np.minimum(positive, 0.0, out=positive)
    positive[diag] = own
    positive *= 1.0 - damping
    a *= damping
    a += positive


def _ap_messages(s: np.ndarray, damping: float, max_iter: int,
                 window: int) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """Frey-Dueck message passing on the jittered similarities s, on one
    thread in row blocks of _ap_block_rows(n) rows.  Returns R, A, whether
    the exemplar set held for `window` iterations, and the iterations run.

    Responsibilities are row-local, and availabilities need only the column
    sums of max(R, 0) (R itself on the diagonal).  Each iteration makes two
    passes over the blocks.  The first updates a block's responsibilities
    and adds its max(R, 0) rows to the column sums, which are carried in
    row 0 of a (block + 1) x n scratch, so each column still adds rows
    0..n-1 in order and the sums, R and A have the same bits for every
    block size.  The second updates the availabilities from those sums,
    last block first, as its max(R, 0) rows are still in the scratch; the
    other blocks form theirs again.

    R and A are updated in place; each damped update is r *= d;
    tmp *= 1 - d; r += tmp, which gives the same bits as
    d * r + (1 - d) * r_new.
    """
    n = s.shape[0]
    step = _ap_block_rows(n)
    r = np.zeros((n, n))
    a = np.zeros((n, n))
    scratch = np.empty((step + 1, n))
    column_sum = np.empty(n)
    # per block: its rows of s, r and a, its part of the scratch, the rows
    # of the scratch the column sum adds (the first block carries nothing
    # in row 0) and its diagonal
    blocks = []
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = np.arange(hi - lo)
        blocks.append((s[lo:hi], r[lo:hi], a[lo:hi], scratch[1:hi - lo + 1],
                       scratch[int(lo == 0):hi - lo + 1], (rows, rows + lo)))

    stable, previous, converged = 0, None, False
    iterations = 0
    while iterations < max_iter and not converged:
        for s_rows, r_rows, a_rows, positive, summed, diag in blocks:
            _update_responsibilities(s_rows, r_rows, a_rows, positive, diag[0], damping)
            _positive_responsibilities(r_rows, positive, diag)
            summed.sum(axis=0, out=column_sum)
            scratch[0] = column_sum
        for k, (_, r_rows, a_rows, positive, _, diag) in enumerate(reversed(blocks)):
            if k:   # the last block's max(R, 0) rows are still in the scratch
                _positive_responsibilities(r_rows, positive, diag)
            _update_availabilities(a_rows, positive, column_sum, diag, damping)
        iterations += 1
        exemplars = np.flatnonzero(a.diagonal() + r.diagonal() > 0.0)
        if previous is not None and exemplars.size and np.array_equal(exemplars, previous):
            stable += 1
            converged = stable >= window
        else:
            stable = 0
        previous = exemplars
    return r, a, converged, iterations


def affinity_propagation(geometry: Geometry,
                         config: ApConfig = ApConfig()) -> Clustering:
    """Frey-Dueck message passing on s(i,j) = 1 - cosine dissimilarity, with
    the diagonal set to the preference (median off-diagonal similarity by
    default).  Points are assigned to the exemplar of highest clean cosine
    similarity, which is formed again after message passing has freed its
    arrays, so _AP_LIVE_ARRAYS n x n arrays and the block scratch are live
    at most.  The geometry's D is freed first (formed again on next use), as
    it would be one more."""
    geometry.release_dissimilarity()
    normalized = geometry.normalized
    keys = geometry.row_labels
    n = normalized.shape[0]
    if n == 0:
        raise ValueError("affinity propagation needs at least one row; "
                         "the representation has none")
    if n == 1:
        # message passing degenerates on one point; it is its own exemplar
        pref = 0.0 if config.preference == MEDIAN_PREFERENCE else float(config.preference)
        return Clustering(labels=keys, ids=(0,), algorithm="affinity_propagation",
                          exemplars={0: keys[0]}, objective=pref, converged=True)
    need = _AP_LIVE_ARRAYS * n * n * 8 + _ap_scratch_bytes(n)
    available = _physical_memory_bytes()
    if need > available:
        raise ValueError(
            f"affinity propagation on n={n} rows needs about {need / 2**30:.1f} GiB "
            f"for its n x n arrays, more than the {available / 2**30:.1f} GiB "
            "of physical memory")
    s = normalized @ normalized.T   # 1 - d equals the cosine itself

    if config.preference == MEDIAN_PREFERENCE:
        # what np.median computes, without its second copy or numpy.ma: the
        # mean of the two middle values of the n^2 - n (an even count)
        # off-diagonal similarities.  The copy must not outlive this block.
        off = s[~np.eye(n, dtype=bool)]
        h = off.size // 2
        off.partition((h - 1, h))
        preference = float((off[h - 1] + off[h]) / 2.0)
        del off
    else:
        preference = float(config.preference)

    np.fill_diagonal(s, preference)
    # constant-seeded eps-scale jitter: breaks the exact-degeneracy
    # oscillation of duplicate rows without being visible at output scale;
    # s += (eps * |s| + 100 * tiny) * noise, term by term in place
    jitter = np.abs(s)
    jitter *= np.finfo(float).eps
    jitter += np.finfo(float).tiny * 100
    jitter *= np.random.default_rng(0).standard_normal((n, n))
    s += jitter
    del jitter   # freed before _ap_messages allocates r, a and its scratch

    r, a, converged, iterations = _ap_messages(s, config.damping, config.max_iter,
                                               config.convergence_window)
    log.info("affinity propagation: n=%d, %d rows per block, %d iterations, "
             "converged=%s", n, _ap_block_rows(n), iterations, converged)
    evidence = a.diagonal() + r.diagonal()
    del r, a, s   # freed before the clean similarities are formed again
    exemplar_idx = np.flatnonzero(evidence > 0.0)
    if exemplar_idx.size == 0:
        exemplar_idx = np.array([int(np.argmax(evidence))])

    # assignments on the clean similarities; ties go to the exemplar with
    # the lexicographically smallest NP key
    order = sorted(range(exemplar_idx.size), key=lambda t: keys[exemplar_idx[t]])
    ordered_exemplars = exemplar_idx[order]        # cluster id = position
    # the same product as above gives the same bits; a product with only
    # the exemplar rows, normalized @ normalized[ordered_exemplars].T, does not
    sims = (normalized @ normalized.T)[:, ordered_exemplars]
    best = sims.max(axis=1)
    chosen = np.argmax(sims == best[:, None], axis=1)   # first max = smallest key
    chosen[ordered_exemplars] = np.arange(ordered_exemplars.size)

    exemplars = {cid: keys[e] for cid, e in enumerate(ordered_exemplars)}
    net_similarity = float(np.sum(np.delete(best, ordered_exemplars))
                           + preference * ordered_exemplars.size)
    return Clustering(labels=keys, ids=tuple(chosen.tolist()),
                      algorithm="affinity_propagation", exemplars=exemplars,
                      objective=net_similarity, converged=converged)


# ---------------------------------------------------------------------------
# Serialization: CSV of assignments plus a JSON metadata sidecar.

def _meta_path(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".meta.json")


def save_clustering(clustering: Clustering, path: str | Path,
                    config: dict | None = None) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["np_key", "cluster_id"])
        writer.writerows(zip(clustering.labels, clustering.ids))
    meta = {
        "algorithm": clustering.algorithm,
        "config": config,
        "n_clusters": clustering.n_clusters,
        "objective": clustering.objective,
        "exemplars": ({str(c): k for c, k in clustering.exemplars.items()}
                      if clustering.exemplars is not None else None),
        "converged": clustering.converged,
    }
    _meta_path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")


def load_clustering(path: str | Path) -> Clustering:
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)   # None: an empty file
        if header != ["np_key", "cluster_id"]:
            raise ValueError(f"{path}: unexpected header {header!r}")
        cluster_of: dict[str, int] = {}   # np_key -> cluster_id, in file order
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 2:
                raise ValueError(f"{where}: expected 2 fields (np_key, cluster_id), "
                                 f"got {len(row)}")
            key, cid = row
            if key in cluster_of:
                raise ValueError(f"{where}: repeated np_key {key!r}")
            try:
                cluster_of[key] = int(cid)
            except ValueError:
                raise ValueError(f"{where}: cluster_id {cid!r} is not an integer") from None
    meta_file = _meta_path(path)
    meta = json.loads(meta_file.read_text(encoding="utf-8")) if meta_file.exists() else {}
    exemplars = meta.get("exemplars")
    try:
        return Clustering(
            labels=tuple(cluster_of), ids=tuple(cluster_of.values()),
            algorithm=meta.get("algorithm", "unknown"),
            exemplars=({int(c): k for c, k in exemplars.items()} if exemplars else None),
            objective=meta.get("objective"),
            converged=meta.get("converged", True))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

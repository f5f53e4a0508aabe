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
    Message passing may split its rows across threads, but column sums are
    taken in one thread, in row order, so R and A have the same bits for
    any number of row parts.
"""
from __future__ import annotations

import csv
import json
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .matrices import Representation


@dataclass(frozen=True)
class Clustering:
    labels: tuple[str, ...]            # NP keys, row order of the clustered matrix
    assignment: dict[str, int]         # NP key -> cluster id in 0..n_clusters-1
    n_clusters: int
    algorithm: str
    centroids: np.ndarray | None = None        # K-Means only
    exemplars: dict[int, str] | None = None    # AP only: cluster id -> exemplar key
    objective: float | None = None
    objective_history: tuple[float, ...] = ()
    converged: bool = True

    def __post_init__(self) -> None:
        ids = set(self.assignment.values())
        if ids != set(range(self.n_clusters)):
            raise ValueError(f"cluster ids {sorted(ids)} are not 0..{self.n_clusters - 1}")
        if len(set(self.labels)) != len(self.labels):
            repeated = sorted(lbl for lbl, n in Counter(self.labels).items() if n > 1)
            raise ValueError(f"repeated labels {repeated[:5]}")
        if set(self.labels) != set(self.assignment):
            raise ValueError("assignment keys do not match labels")

    def cluster_ids(self) -> np.ndarray:
        """Ids in label order."""
        return np.array([self.assignment[lbl] for lbl in self.labels], dtype=int)

    def members(self) -> dict[int, tuple[str, ...]]:
        out: dict[int, list[str]] = {c: [] for c in range(self.n_clusters)}
        for lbl in self.labels:
            out[self.assignment[lbl]].append(lbl)
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
        if self.max_iter < 1 or self.rel_tol < 0:
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
        if isinstance(self.preference, str) and self.preference != MEDIAN_PREFERENCE:
            raise ValueError(f"preference must be a real or '{MEDIAN_PREFERENCE}'")
        if self.max_iter < 1 or self.convergence_window < 1:
            raise ValueError("max_iter and convergence_window must be >= 1")


def cosine_dissimilarity(a: np.ndarray, b: np.ndarray) -> float:
    """1 - cos(a, b), in [0, 2]; zero vectors are a caller error."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine dissimilarity undefined for a zero vector")
    return float(min(2.0, max(0.0, 1.0 - float(a @ b) / (na * nb))))


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    norms = np.linalg.norm(matrix, axis=1)
    if not np.all(np.isfinite(norms)):
        bad = np.flatnonzero(~np.isfinite(norms))[:5]
        raise ValueError(f"non-finite rows at indices {bad.tolist()} (NaN, inf or a "
                         "norm that overflows); fix or drop them before clustering")
    if np.any(norms == 0.0):
        bad = np.flatnonzero(norms == 0.0)[:5]
        raise ValueError(f"all-zero rows at indices {bad.tolist()}; drop them before clustering")
    return matrix / norms[:, None]


def _pairwise(normalized: np.ndarray) -> np.ndarray:
    # in place, so two n x n arrays are live at most: d += d.T buffers the
    # overlapping transpose and gives exactly d + d.T
    d = normalized @ normalized.T
    np.subtract(1.0, d, out=d)
    d += d.T
    d /= 2.0
    np.clip(d, 0.0, 2.0, out=d)
    np.fill_diagonal(d, 0.0)
    return d


def _count_distinct(normalized: np.ndarray) -> int:
    # hashing row bytes needs no sort; + 0.0 turns -0.0 into 0.0 so the two
    # zeros count as one value, as they compare equal.  Row by row, so the
    # matrix is not copied whole.
    return len({(row + 0.0).tobytes() for row in normalized})


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

    ``kmeans``, ``affinity_propagation``, ``distinct_row_count`` and
    ``pairwise_cosine_dissimilarity`` take a geometry in place of the
    representation or its matrix, and the validity indices take one in
    place of D; each returns exactly what it returns for the representation
    itself.
    """

    def __init__(self, rep: Representation) -> None:
        self.row_labels = tuple(rep.row_labels)
        self.provenance = rep.provenance
        self.normalized = _read_only(_normalize_rows(rep.matrix))

    @classmethod
    def of(cls, rep: Representation | Geometry) -> Geometry:
        return rep if isinstance(rep, cls) else cls(rep)

    @cached_property
    def distinct(self) -> int:
        return _count_distinct(self.normalized)

    @cached_property
    def dissimilarity(self) -> np.ndarray:
        return _read_only(_pairwise(self.normalized))

    def release_dissimilarity(self) -> None:
        """Free D; it is formed again on next use."""
        self.__dict__.pop("dissimilarity", None)


def pairwise_cosine_dissimilarity(matrix: np.ndarray | Geometry) -> np.ndarray:
    """Symmetric pairwise matrix with an exactly zero diagonal."""
    if isinstance(matrix, Geometry):
        return matrix.dissimilarity
    return _pairwise(_normalize_rows(matrix))


def distinct_row_count(matrix: np.ndarray | Geometry) -> int:
    """Number of distinct directions (unique L2-normalized rows)."""
    if isinstance(matrix, Geometry):
        return matrix.distinct
    return _count_distinct(_normalize_rows(matrix))


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


def _assign(normalized: np.ndarray,
            centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid of each row, and the dissimilarities it is read from."""
    dissimilarity = _dissimilarities(normalized, centroids)
    # argmin returns the first (lowest id) among tied centroids
    return np.argmin(dissimilarity, axis=1), dissimilarity


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
    labels, dissimilarity = _assign(normalized, centroids)
    repaired = _repair_empty(normalized, labels, centroids)
    if repaired:
        # the objective reads the labels and centroids as the repair left them
        dissimilarity = _dissimilarities(normalized, centroids)
    return labels, _objective(dissimilarity, labels), repaired


def kmeans(rep: Representation | Geometry, config: KmeansConfig) -> Clustering:
    """Spherical K-Means: normalize, k-means++ init, iterate assignment and
    normalized-mean centroid updates until the objective's relative
    improvement falls below rel_tol.

    Always ends on an assignment step, so no point is left with a stale
    cluster against the final centroids.  The objective is read from the
    n x k dissimilarities that step forms, so outside an empty-cluster repair
    no n x d array beyond one cluster's member rows is made.
    """
    geometry = Geometry.of(rep)
    normalized = geometry.normalized
    if config.k > geometry.distinct:
        raise ValueError(f"k={config.k} exceeds the {geometry.distinct} distinct rows")

    rng = np.random.default_rng(config.seed)
    centroids = _kmeanspp_init(normalized, config.k, rng)
    labels, obj, _ = _assign_and_repair(normalized, centroids)
    history = [obj]

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
            continue
        if prev - new_obj <= config.rel_tol * prev:
            converged = True
            break

    assignment = {lbl: int(c) for lbl, c in zip(geometry.row_labels, labels)}
    return Clustering(labels=geometry.row_labels, assignment=assignment,
                      n_clusters=config.k, algorithm="kmeans",
                      centroids=centroids, objective=obj,
                      objective_history=tuple(history), converged=converged)


# n x n float64 arrays live at once during message passing: the jittered
# similarities s, r, a and the scratch buffer of _ap_messages.  The clean
# similarities the assignment reads are formed again once those are freed.
_AP_LIVE_ARRAYS = 4

# Message passing splits its rows into one part per CPU while each part gets
# at least this many rows.  Two parts took this share of one part's time
# (in-process, 120 iterations, no fallback to one thread, 2-vCPU virtual
# machine, two runs): n=158 2.7-3.3x, 280 1.2-2.1x, 360 0.86-1.06x, 440
# 0.71-0.75x, 520 0.60-0.80x, 640 0.67-0.68x.  Below about 400 rows the
# barrier in every iteration costs about as much as the second CPU saves.
_AP_ROWS_PER_PART = 200

# Every this many iterations, split message passing compares the wall time
# the iterations took with the CPU time they used.  When the wall time is
# the longer, the other threads saved nothing (on a virtual machine, a CPU
# that other guests keep busy is slow to wake at every barrier), and the
# calling thread runs the remaining iterations alone.  At n=640 on a 2-vCPU
# machine a window takes about 50 ms, and the wall time is typically
# 0.55-0.70 of the CPU time.
_AP_TIMING_WINDOW = 16


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class _MessagePassing:
    """R, A and the scratch buffer of one message-passing run, updated by
    row parts that meet at one barrier per iteration.

    Responsibilities are row-local, and availabilities need only the column
    sums of max(R, 0) (R itself on the diagonal).  Each part updates its
    rows; once every part has arrived, one thread takes the column sums and
    checks the exemplars, as the barrier's action.  The check reads the
    diagonal of A that the availability step is about to write, computed
    from the same column sums with the same operations, so every part
    learns before that step whether it is the last.  Every elementwise step
    gives the same bits on a row range as on the whole array, and the column
    sum runs over the full scratch buffer in row order, so R and A do not
    depend on the number of parts.

    R and A are updated in place through the scratch buffer; each damped
    update is r *= d; tmp *= 1 - d; r += tmp, which gives the same bits as
    d * r + (1 - d) * r_new.
    """

    def __init__(self, s: np.ndarray, damping: float, window: int) -> None:
        n = s.shape[0]
        self.s, self.damping, self.window = s, damping, window
        self.r = np.zeros((n, n))
        self.a = np.zeros((n, n))
        self.tmp = np.empty((n, n))
        self.column_sum = np.empty(n)
        self.stable = 0
        self.prev_exemplars: np.ndarray | None = None
        self.converged = False
        self.iterations = 0
        self.timed = False      # whether the split is checked for a saving
        self.alone = False      # set when the split saved no time
        self.clocks = (0.0, 0.0)
        self.errors: list[BaseException] = []

    def barrier(self, parts: int) -> threading.Barrier:
        """The meeting point of `parts` row parts, from here on.  The caller
        keeps it: held here, its action would make a reference cycle that
        keeps the n x n arrays alive until the garbage collector runs."""
        self.timed, self.alone = parts > 1, False
        self.clocks = (time.perf_counter(), time.process_time())
        return threading.Barrier(parts, action=self.sum_and_check)

    def run_part(self, lo: int, hi: int, max_iter: int, barrier: threading.Barrier) -> None:
        """Pass messages on rows lo:hi until the run converges or max_iter
        iterations have run.  An error is recorded for the caller, and the
        barrier is broken so that the other parts stop too."""
        try:
            s, r, a, tmp = self.s[lo:hi], self.r[lo:hi], self.a[lo:hi], self.tmp[lo:hi]
            rows = np.arange(hi - lo)
            diag = rows + lo
            damping = self.damping
            for _ in range(max_iter):
                # responsibilities
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
                # availabilities
                np.maximum(r, 0.0, out=tmp)
                tmp[rows, diag] = r[rows, diag]
                barrier.wait()
                np.subtract(self.column_sum, tmp, out=tmp)
                own = tmp[rows, diag]
                np.minimum(tmp, 0.0, out=tmp)
                tmp[rows, diag] = own
                tmp *= 1.0 - damping
                a *= damping
                a += tmp
                if self.converged or self.alone:
                    break
        except threading.BrokenBarrierError:
            pass   # another part failed and recorded why
        except BaseException as exc:   # raised again by _ap_messages
            self.errors.append(exc)
            barrier.abort()

    def sum_and_check(self) -> None:
        self.tmp.sum(axis=0, out=self.column_sum)
        # the diagonal of A after this iteration, as the parts will write it
        r_diag = self.r.diagonal()
        a_diag = self.a.diagonal() * self.damping
        a_diag += (self.column_sum - r_diag) * (1.0 - self.damping)
        exemplars = np.flatnonzero(a_diag + r_diag > 0.0)
        if self.prev_exemplars is not None and exemplars.size and \
                np.array_equal(exemplars, self.prev_exemplars):
            self.stable += 1
            self.converged = self.stable >= self.window
        else:
            self.stable = 0
        self.prev_exemplars = exemplars
        self.iterations += 1
        if self.timed and self.iterations % _AP_TIMING_WINDOW == 0:
            self.alone = not self.split_saves_time()

    def split_saves_time(self) -> bool:
        """Whether the iterations since the last call took less wall time
        than the CPU time all parts used, the time one thread would need."""
        clocks = (time.perf_counter(), time.process_time())
        wall, cpu = clocks[0] - self.clocks[0], clocks[1] - self.clocks[1]
        self.clocks = clocks
        return wall < cpu


def _ap_messages(s: np.ndarray, damping: float, max_iter: int,
                 window: int) -> tuple[np.ndarray, np.ndarray, bool]:
    # the calling thread runs the first row part; each further part gets a
    # worker thread, and none outlives the call
    n = s.shape[0]
    parts = max(1, min(_cpu_count(), n // _AP_ROWS_PER_PART))
    bounds = [n * p // parts for p in range(parts + 1)]
    passing = _MessagePassing(s, damping, window)
    barrier = passing.barrier(parts)
    workers = [threading.Thread(target=passing.run_part, args=(lo, hi, max_iter, barrier))
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        for worker in workers:
            worker.start()
        passing.run_part(bounds[0], bounds[1], max_iter, barrier)
    except BaseException:
        barrier.abort()   # a worker failed to start: free the ones waiting
        raise
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.join()
    if passing.alone and not passing.converged and not passing.errors:
        # the split saved no time: the calling thread runs the rest alone
        passing.run_part(0, n, max_iter - passing.iterations, passing.barrier(1))
    if passing.errors:
        raise passing.errors[0]
    return passing.r, passing.a, passing.converged


def affinity_propagation(rep: Representation | Geometry,
                         config: ApConfig = ApConfig()) -> Clustering:
    """Frey-Dueck message passing on s(i,j) = 1 - cosine dissimilarity, with
    the diagonal set to the preference (median off-diagonal similarity by
    default).  Points are assigned to the exemplar of highest clean cosine
    similarity, which is formed again after message passing has freed its
    arrays, so _AP_LIVE_ARRAYS n x n arrays are live at most.  A geometry's
    D is freed first (formed again on next use), as it would be one more."""
    geometry = Geometry.of(rep)
    geometry.release_dissimilarity()
    normalized = geometry.normalized
    keys = geometry.row_labels
    n = normalized.shape[0]
    if n == 0:
        raise ValueError("affinity propagation needs at least one row; "
                         "the representation has none")
    if n == 1:
        # message passing degenerates on one point; it is its own exemplar
        key = keys[0]
        pref = 0.0 if config.preference == MEDIAN_PREFERENCE else float(config.preference)
        return Clustering(labels=(key,), assignment={key: 0}, n_clusters=1,
                          algorithm="affinity_propagation", exemplars={0: key},
                          objective=pref, converged=True)
    need, available = _AP_LIVE_ARRAYS * n * n * 8, _physical_memory_bytes()
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

    r, a, converged = _ap_messages(s, config.damping, config.max_iter,
                                   config.convergence_window)
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
    for cid, e in enumerate(ordered_exemplars):
        chosen[e] = cid

    n_clusters = ordered_exemplars.size
    assignment = {keys[i]: int(chosen[i]) for i in range(n)}
    exemplars = {cid: keys[e] for cid, e in enumerate(ordered_exemplars)}
    is_exemplar = np.zeros(n, dtype=bool)
    is_exemplar[ordered_exemplars] = True
    net_similarity = float(np.sum(best[~is_exemplar]) + preference * n_clusters)
    return Clustering(labels=tuple(keys), assignment=assignment,
                      n_clusters=n_clusters, algorithm="affinity_propagation",
                      exemplars=exemplars, objective=net_similarity,
                      converged=converged)


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
        for lbl in clustering.labels:
            writer.writerow([lbl, clustering.assignment[lbl]])
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
        labels: list[str] = []
        assignment: dict[str, int] = {}
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 2:
                raise ValueError(f"{where}: expected 2 fields (np_key, cluster_id), "
                                 f"got {len(row)}")
            key, cid = row
            if key in assignment:
                raise ValueError(f"{where}: repeated np_key {key!r}")
            try:
                assignment[key] = int(cid)
            except ValueError:
                raise ValueError(f"{where}: cluster_id {cid!r} is not an integer") from None
            labels.append(key)
    meta_file = _meta_path(path)
    meta = json.loads(meta_file.read_text(encoding="utf-8")) if meta_file.exists() else {}
    exemplars = meta.get("exemplars")
    return Clustering(
        labels=tuple(labels), assignment=assignment,
        n_clusters=len(set(assignment.values())),
        algorithm=meta.get("algorithm", "unknown"),
        exemplars=({int(c): k for c, k in exemplars.items()} if exemplars else None),
        objective=meta.get("objective"),
        converged=meta.get("converged", True))

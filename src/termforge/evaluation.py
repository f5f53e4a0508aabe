"""Cluster validity indices: silhouette width, Dunn2, purity, adjusted Rand.

Internal indices read a pairwise dissimilarity matrix aligned with the
clustering's label order, or the clustered representation's Geometry, and
the clustering's ids in that order.  External indices compare against a
gold standard and are computed on the intersection of clustered and gold
terms only.

Undefined values stay undefined: silhouette/Dunn2 need at least two
clusters, Dunn2 with only singleton (or zero-spread) clusters is +inf, and
a missing gold standard leaves the external columns as None.  Serialization
maps None to "NA" and infinity to "inf".
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import Clustering, Geometry
from .extraction import normalize_np_text


@dataclass(frozen=True)
class GoldStandard:
    mapping: dict[str, str]       # term key -> core-concept label; labels derive from it

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self.mapping.values())

    @property
    def n_labels(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class IndexReport:
    purity: float | None          # None without a gold standard
    ari: float | None
    dunn2: float | None           # may be +inf; None when n_clusters < 2
    silhouette: float | None      # None when n_clusters < 2


def load_gold_standard(path: str | Path) -> GoldStandard:
    path = Path(path)
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected term<TAB>label, got {line!r}")
            term = normalize_np_text(parts[0])   # gold keys must match NP keys
            label = parts[1].strip()
            if not term or not label:
                raise ValueError(f"{path}:{lineno}: empty term or label")
            if term in mapping and mapping[term] != label:
                raise ValueError(
                    f"{path}:{lineno}: term {term!r} assigned conflicting labels "
                    f"{mapping[term]!r} and {label!r}")
            mapping[term] = label
    if not mapping:
        raise ValueError(f"{path}: gold standard is empty")
    return GoldStandard(mapping=mapping)


def _label_mismatch(rows: tuple[str, ...], labels: tuple[str, ...]) -> str:
    """Why a representation's rows are not a clustering's labels."""
    only_labels = sorted(set(labels) - set(rows))
    only_rows = sorted(set(rows) - set(labels))
    if only_labels or only_rows:
        return (f"clustering and representation label sets differ: only in the "
                f"clustering {only_labels[:5]}, only in the representation "
                f"{only_rows[:5]}; evaluate needs the representation the "
                "clustering was built from")
    at = next((i for i, (row, label) in enumerate(zip(rows, labels)) if row != label),
              min(len(rows), len(labels)))
    return (f"clustering and representation hold the same NP keys in another "
            f"order: they first differ at position {at}; the clustering's rows "
            "must follow the representation's row order")


def _check_dissimilarity(d: np.ndarray | Geometry, clustering: Clustering) -> np.ndarray:
    if isinstance(d, Geometry):
        if d.row_labels != tuple(clustering.labels):
            raise ValueError(_label_mismatch(d.row_labels, tuple(clustering.labels)))
        # a geometry's D is valid by construction and read-only
        return d.dissimilarity
    n = len(clustering.labels)
    d = np.asarray(d, dtype=float)
    if d.shape != (n, n):
        raise ValueError(f"dissimilarity shape {d.shape} does not match {n} labels")
    # "not <=" so that NaN fails too
    if not np.abs(d.diagonal()).max(initial=0.0) <= 1e-12:
        raise ValueError("dissimilarity diagonal must be zero")
    if not np.abs(d - d.T).max(initial=0.0) <= 1e-12:
        raise ValueError("dissimilarity matrix must be symmetric")
    return d


def _cluster_sums(dissimilarity: np.ndarray, clustering: Clustering
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validated d, ids, cluster sizes, the n x k one-hot assignment matrix
    Z, and S = D @ Z, whose entry S[i, c] sums d from point i to cluster c."""
    d = _check_dissimilarity(dissimilarity, clustering)
    ids = np.array(clustering.ids, dtype=int)
    onehot = np.zeros((ids.size, clustering.n_clusters))
    onehot[np.arange(ids.size), ids] = 1.0
    sizes = np.bincount(ids, minlength=clustering.n_clusters)
    return d, ids, sizes, onehot, d @ onehot


def silhouette_width(dissimilarity: np.ndarray | Geometry,
                     clustering: Clustering) -> float:
    """Mean of s(i) = (b(i) - a(i)) / max(a(i), b(i)); singleton points
    contribute 0, as do points with a(i) = b(i) = 0."""
    if clustering.n_clusters < 2:
        raise ValueError("silhouette needs at least 2 clusters")
    d, ids, sizes, _, sums = _cluster_sums(dissimilarity, clustering)
    points = np.arange(ids.size)
    own_size = sizes[ids]
    # the diagonal may be nonzero within tolerance; a(i) excludes d[i, i]
    within = sums[points, ids] - np.diag(d)
    a = within / np.maximum(own_size - 1, 1)
    means = sums / sizes
    means[points, ids] = np.inf
    b = means.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(ids.size)
    scored = (own_size > 1) & (denom > 0.0)      # singletons and a = b = 0 score 0
    scores[scored] = (b[scored] - a[scored]) / denom[scored]
    return float(scores.mean())


def dunn2(dissimilarity: np.ndarray | Geometry,
          clustering: Clustering) -> float:
    """Minimum average between-cluster dissimilarity over maximum average
    within-cluster dissimilarity (non-singleton clusters only).  A zero or
    absent denominator yields +inf."""
    if clustering.n_clusters < 2:
        raise ValueError("dunn2 needs at least 2 clusters")
    _, _, sizes, onehot, sums = _cluster_sums(dissimilarity, clustering)
    block_sums = onehot.T @ sums                 # Z.T @ D @ Z, k x k
    c1, c2 = np.triu_indices(clustering.n_clusters, 1)
    between = float(np.min(block_sums[c1, c2] / (sizes[c1] * sizes[c2])))

    # average over distinct unordered pairs, non-singleton clusters only
    spread = sizes >= 2
    pairs = sizes[spread] * (sizes[spread] - 1)
    within = float(np.max(np.diag(block_sums)[spread] / pairs, initial=0.0))
    if within == 0.0:
        return math.inf
    return between / within


def _contingency(clustering: Clustering, gold: GoldStandard) -> Counter:
    """Counts of (cluster id, gold label) pairs over the clustered terms
    that the gold standard labels, in clustering order."""
    table = Counter((cid, gold.mapping[key]) for key, cid in
                    zip(clustering.labels, clustering.ids) if key in gold.mapping)
    if not table:
        raise ValueError(
            "no clustered term appears in the gold standard; "
            f"sample clustered keys: {', '.join(clustering.labels[:5])}")
    return table


def _purity(contingency: Counter) -> float:
    majority: dict[int, int] = {}  # cluster id -> count of its most frequent gold label
    for (cluster, _), count in contingency.items():
        majority[cluster] = max(majority.get(cluster, 0), count)
    return sum(majority.values()) / sum(contingency.values())


def purity(clustering: Clustering, gold: GoldStandard) -> float:
    """Majority-label fraction over the clustered-and-gold intersection."""
    return _purity(_contingency(clustering, gold))


def _adjusted_rand(contingency: Counter) -> float:
    """Hubert-Arabie adjusted Rand from the (x, y) pair counts of two
    partitions, via exact integer pair counts.

    Degenerate denominator (both partitions all-singletons or both
    one-cluster): 1.0 when the partitions are identical, else 0.0.
    """
    x_sizes, y_sizes = Counter(), Counter()
    for (x, y), count in contingency.items():
        x_sizes[x] += count
        y_sizes[y] += count
    a = sum(math.comb(v, 2) for v in contingency.values())
    same_x = sum(math.comb(v, 2) for v in x_sizes.values())
    same_y = sum(math.comb(v, 2) for v in y_sizes.values())
    total = math.comb(sum(contingency.values()), 2)
    b = same_x - a            # together in xs, apart in ys
    c = same_y - a            # apart in xs, together in ys
    d = total - same_x - same_y + a
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0 if b == 0 and c == 0 else 0.0
    return 2.0 * (a * d - b * c) / denom


def ari_from_assignments(xs, ys) -> float:
    """Adjusted Rand from two equal-length assignment sequences."""
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError(f"assignment lengths differ: {len(xs)} vs {len(ys)}")
    return _adjusted_rand(Counter(zip(xs, ys)))


def evaluate_clustering(dissimilarity: np.ndarray | Geometry, clustering: Clustering,
                        gold: GoldStandard | None) -> IndexReport:
    """All four indices for one clustering; external columns stay None
    without a gold standard, internal columns stay None below 2 clusters.
    ``dissimilarity`` is D, or the clustered representation's Geometry,
    whose D is formed once from checked rows and is not checked again; its
    rows must be the clustering's labels, in order."""
    if clustering.n_clusters >= 2:
        sil = silhouette_width(dissimilarity, clustering)
        dn2 = dunn2(dissimilarity, clustering)
    else:
        _check_dissimilarity(dissimilarity, clustering)
        sil = dn2 = None
    if gold is not None:
        contingency = _contingency(clustering, gold)
        pur = _purity(contingency)
        ari = _adjusted_rand(contingency)
    else:
        pur = ari = None
    return IndexReport(purity=pur, ari=ari, dunn2=dn2, silhouette=sil)


def format_value(x) -> str:
    """Serialization convention shared by every CSV writer: None is NA,
    infinities spell inf, floats round-trip exactly via repr."""
    if x is None:
        return "NA"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)

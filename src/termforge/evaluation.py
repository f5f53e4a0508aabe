"""Cluster validity indices: silhouette width, Dunn2, purity, adjusted Rand.

Internal indices read a pairwise dissimilarity matrix aligned with the
clustering's label order, or the clustered representation's Geometry.
External indices compare against a gold standard and are computed on the
intersection of clustered and gold terms only, with the coverage fraction
reported alongside rather than silently folded in.

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
    mapping: dict[str, str]       # term key -> core-concept label
    labels: frozenset[str]

    @property
    def n_labels(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class IndexReport:
    n_clusters: int
    purity: float | None          # None without a gold standard
    adjusted_rand: float | None
    dunn2: float | None           # may be +inf; None when n_clusters < 2
    silhouette: float | None      # None when n_clusters < 2
    coverage: float | None        # clustered terms found in gold / all clustered


def load_gold_standard(path: str | Path) -> GoldStandard:
    path = Path(path)
    mapping: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
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
    return GoldStandard(mapping=mapping, labels=frozenset(mapping.values()))


def _check_dissimilarity(d: np.ndarray | Geometry, n: int) -> np.ndarray:
    formed = isinstance(d, Geometry)
    d = d.dissimilarity if formed else np.asarray(d, dtype=float)
    if d.shape != (n, n):
        raise ValueError(f"dissimilarity shape {d.shape} does not match {n} labels")
    if formed:
        # a geometry's D is valid by construction and read-only
        return d
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
    ids = clustering.cluster_ids()
    d = _check_dissimilarity(dissimilarity, ids.size)
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
    table = Counter((clustering.assignment[key], gold.mapping[key])
                    for key in clustering.labels if key in gold.mapping)
    if not table:
        raise ValueError(
            "no clustered term appears in the gold standard; "
            f"sample clustered keys: {', '.join(clustering.labels[:5])}")
    return table


def coverage(clustering: Clustering, gold: GoldStandard) -> float:
    found = sum(1 for lbl in clustering.labels if lbl in gold.mapping)
    return found / len(clustering.labels)


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


def adjusted_rand(clustering: Clustering, gold: GoldStandard) -> float:
    return _adjusted_rand(_contingency(clustering, gold))


def evaluate_clustering(dissimilarity: np.ndarray | Geometry, clustering: Clustering,
                        gold: GoldStandard | None) -> IndexReport:
    """All four indices for one clustering; external columns stay None
    without a gold standard, internal columns stay None below 2 clusters.
    ``dissimilarity`` is D, or the clustered representation's Geometry,
    whose D is formed once from checked rows and is not checked again."""
    if clustering.n_clusters >= 2:
        sil = silhouette_width(dissimilarity, clustering)
        dn2 = dunn2(dissimilarity, clustering)
    else:
        sil = None
        dn2 = None
    if gold is not None:
        contingency = _contingency(clustering, gold)
        pur = _purity(contingency)
        ari = _adjusted_rand(contingency)
        cov = sum(contingency.values()) / len(clustering.labels)
    else:
        pur = ari = cov = None
    return IndexReport(n_clusters=clustering.n_clusters, purity=pur,
                       adjusted_rand=ari, dunn2=dn2, silhouette=sil,
                       coverage=cov)


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

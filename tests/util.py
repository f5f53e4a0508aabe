"""Shared helpers for the test suite: tiny CoNLL-U builders, partition
enumeration, and hand-rolled oracle implementations that deliberately do NOT
reuse library code paths."""
from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np

from termforge.clustering import Clustering
from termforge.matrices import NP_VPC, Representation


# ---------------------------------------------------------------- CoNLL-U

def conllu_token(index, form, lemma, upos, head, deprel):
    # 10 columns; the ones the parser ignores stay "_"
    return "\t".join([str(index), form, lemma, upos, "_", "_",
                      str(head), deprel, "_", "_"])


def conllu_sentence(rows, sent_id=None):
    lines = []
    if sent_id is not None:
        lines.append(f"# sent_id = {sent_id}")
    lines.extend(conllu_token(*r) for r in rows)
    return "\n".join(lines)


def conllu_doc(sentences, doc_id=None):
    head = [f"# newdoc id = {doc_id}"] if doc_id is not None else ["# newdoc"]
    return "\n\n".join(["\n".join(head + [sentences[0]])] + list(sentences[1:])) + "\n"


def join_sentences(sentences):
    return "\n\n".join(sentences) + "\n"


# ------------------------------------------------------------- partitions

def restricted_growth_strings(n):
    """All set partitions of range(n) as canonical label sequences where
    label[i] <= max(label[:i]) + 1.  Bell(n) sequences."""
    def rec(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for lab in range(used + 1):
            yield from rec(prefix + [lab], max(used, lab + 1))
    yield from rec([], 0)


def partitions_into(n, k):
    """Set partitions of range(n) into exactly k non-empty blocks,
    as label sequences."""
    for labels in restricted_growth_strings(n):
        if max(labels) + 1 == k:
            yield labels


def naive_dissimilarity(a, b):
    """Cosine dissimilarity of one pair, 1 - a.b / (|a| |b|)."""
    return 1.0 - float(np.dot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def make_clustering(labels_by_point, keys=None, algorithm="test"):
    """Clustering from a label sequence; point i gets key keys[i] or 'p<i>'."""
    if keys is None:
        keys = tuple(f"p{i}" for i in range(len(labels_by_point)))
    return Clustering(labels=tuple(keys), ids=tuple(int(c) for c in labels_by_point),
                      algorithm=algorithm)


def make_rep(matrix, keys=None, provenance=NP_VPC):
    matrix = np.asarray(matrix, dtype=float)
    if keys is None:
        keys = tuple(f"p{i}" for i in range(matrix.shape[0]))
    return Representation(row_labels=tuple(keys), matrix=matrix,
                          provenance=provenance)


def traced_peak(call):
    """Bytes the call allocates at its peak, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------- oracles

def oracle_silhouette(d, labels):
    """Naive per-point silhouette, straight from the definition."""
    n = len(labels)
    values = []
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            values.append(0.0)
            continue
        a = sum(d[i][j] for j in own) / len(own)
        b = math.inf
        for other in set(labels) - {labels[i]}:
            members = [j for j in range(n) if labels[j] == other]
            b = min(b, sum(d[i][j] for j in members) / len(members))
        if a == 0.0 and b == 0.0:
            values.append(0.0)
        else:
            values.append((b - a) / max(a, b))
    return sum(values) / n


def oracle_dunn2(d, labels):
    """min over cluster pairs of mean between-distance, divided by max over
    clusters of mean within-distance (pairs i != j)."""
    clusters = sorted(set(labels))
    members = {c: [i for i, l in enumerate(labels) if l == c] for c in clusters}
    between = math.inf
    for a, b in itertools.combinations(clusters, 2):
        total = sum(d[i][j] for i in members[a] for j in members[b])
        between = min(between, total / (len(members[a]) * len(members[b])))
    within = 0.0
    seen_pair = False
    for c in clusters:
        pts = members[c]
        if len(pts) < 2:
            continue
        seen_pair = True
        total = sum(d[i][j] for i in pts for j in pts if i != j)
        within = max(within, total / (len(pts) * (len(pts) - 1)))
    if not seen_pair or within == 0.0:
        return math.inf
    return between / within


def oracle_ari(xs, ys):
    """Adjusted Rand from explicit pair counting: walk every unordered pair
    once and classify it into the four agreement cells."""
    n = len(xs)
    a = b = c = d = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_x = xs[i] == xs[j]
            same_y = ys[i] == ys[j]
            if same_x and same_y:
                a += 1
            elif same_x:
                b += 1
            elif same_y:
                c += 1
            else:
                d += 1
    denom = (a + b) * (b + d) + (a + c) * (c + d)
    if denom == 0:
        return 1.0 if b == 0 and c == 0 else 0.0
    return 2.0 * (a * d - b * c) / denom


def oracle_purity(assignment, gold):
    """Purity over the gold intersection, straight from the definition."""
    keys = [k for k in assignment if k in gold]
    clusters = {}
    for k in keys:
        clusters.setdefault(assignment[k], []).append(gold[k])
    hits = sum(max(labels.count(l) for l in set(labels))
               for labels in clusters.values())
    return hits / len(keys)


def spherical_objective(points, labels, k):
    """K-Means objective for a fixed assignment: cosine dissimilarity of each
    L2-normalized point to its cluster's normalized mean direction."""
    pts = np.asarray(points, dtype=float)
    norm = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    total = 0.0
    for c in range(k):
        block = norm[[i for i, l in enumerate(labels) if l == c]]
        mean = block.mean(axis=0)
        length = np.linalg.norm(mean)
        if length < 1e-12:
            total += float(block.shape[0])  # all dissimilarity 1 to a null direction
            continue
        centroid = mean / length
        total += float(np.sum(1.0 - block @ centroid))
    return total


def brute_force_kmeans(points, k):
    """Global optimum of the spherical K-Means objective by enumerating every
    partition into exactly k non-empty clusters."""
    n = len(points)
    best = math.inf
    best_labels = None
    for labels in partitions_into(n, k):
        obj = spherical_objective(points, labels, k)
        if obj < best:
            best = obj
            best_labels = labels
    return best, best_labels


def oracle_kmeans(matrix, k, seed, max_iter=300, rel_tol=1e-6):
    """Spherical K-Means written out rule by rule with a fresh array per rule;
    same draws, tie rules, repair and stopping rules as the library.
    Returns (labels, centroids, objective history, converged)."""
    x = np.asarray(matrix, dtype=float)
    x = x / np.linalg.norm(x, axis=1)[:, None]
    n = x.shape[0]
    rng = np.random.default_rng(seed)

    # k-means++: the first centroid uniformly, each next one with probability
    # proportional to the squared dissimilarity to the nearest chosen centroid
    # (uniformly again once every point sits on a chosen one)
    centroids = [x[rng.integers(n)]]
    nearest = 1.0 - x @ centroids[0]
    for _ in range(1, k):
        weights = np.maximum(nearest, 0.0) ** 2
        total = weights.sum()
        if total == 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=weights / total))
        centroids.append(x[idx])
        nearest = np.minimum(nearest, 1.0 - x @ centroids[-1])
    centroids = np.array(centroids)

    def assign_and_repair():
        # every point goes to its nearest centroid, the lowest id among ties
        dissim = 1.0 - x @ centroids.T
        labels = [min(range(k), key=lambda c: (dissim[i, c], c)) for i in range(n)]
        # each empty cluster, in id order, takes the point farthest from its
        # own centroid (the first among ties) that is not alone in its cluster
        repaired = False
        for c in range(k):
            if c in labels:
                continue
            own = 1.0 - np.einsum("ij,ij->i", x, centroids[labels])
            sizes = [labels.count(labels[i]) for i in range(n)]
            movable = [i for i in range(n) if sizes[i] > 1]
            p = max(movable, key=lambda i: (own[i], -i))
            labels[p] = c
            centroids[c] = x[p]
            repaired = True
        if repaired:
            dissim = 1.0 - x @ centroids.T
        # the objective reads the dissimilarities of the final labels; np.sum
        # adds in the order the library's sum does; rounding below 0 is 0
        objective = max(0.0, float(np.sum([dissim[i, labels[i]] for i in range(n)])))
        return labels, objective, repaired

    labels, objective, repaired = assign_and_repair()
    history = [objective]
    # the labels and centroids every repair left
    repairs = [(list(labels), centroids.copy())] if repaired else []
    converged = False
    for _ in range(max_iter):
        # each centroid moves to the normalized mean of its members; a mean of
        # length below 1e-12 has no direction, and the centroid stays
        for c in range(k):
            members = [x[i] for i in range(n) if labels[i] == c]
            total = np.zeros(x.shape[1])
            for row in members:
                total = total + row
            mean = total / len(members)
            length = math.sqrt(float(mean @ mean))
            if length >= 1e-12:
                centroids[c] = mean / length
        labels, new_objective, repaired = assign_and_repair()
        history.append(new_objective)
        previous, objective = objective, new_objective
        # a repair moved a centroid, so the stop test waits for a clean step;
        # a repair that leaves the labels and centroids of an earlier one ends
        # the run unconverged, as the steps since then would repeat
        if repaired:
            if any(labels == old_labels and np.array_equal(centroids, old_centroids)
                   for old_labels, old_centroids in repairs):
                break
            repairs.append((list(labels), centroids.copy()))
        elif previous - new_objective <= rel_tol * previous:
            converged = True
            break
    return labels, centroids, tuple(history), converged


def brute_force_exemplars(similarity, preference):
    """Best exemplar subset for the affinity-propagation net-similarity
    objective, by enumerating all non-empty subsets."""
    n = similarity.shape[0]
    best = -math.inf
    best_set = None
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            score = preference * r
            ok = True
            for i in range(n):
                if i in subset:
                    continue
                score += max(similarity[i, e] for e in subset)
            if ok and score > best:
                best = score
                best_set = subset
    return best, best_set


def oracle_ap_similarity(matrix, preference):
    """Jittered AP input: cosine similarities with the preference on the
    diagonal plus the constant-seeded eps-scale noise, in one expression."""
    x = np.asarray(matrix, dtype=float)
    x = x / np.linalg.norm(x, axis=1)[:, None]
    s = x @ x.T
    np.fill_diagonal(s, preference)
    noise = np.random.default_rng(0).standard_normal(s.shape)
    return s + (np.finfo(float).eps * np.abs(s) + np.finfo(float).tiny * 100) * noise


def oracle_ap_messages(s, damping, max_iter, window):
    """Frey-Dueck responsibility and availability updates, written out rule
    by rule with a fresh array per rule; same damping and exemplar-stability
    stopping rule as the library.  Returns (R, A, converged, iterations run)."""
    n = s.shape[0]
    idx = np.arange(n)
    r = np.zeros((n, n))
    a = np.zeros((n, n))
    stable = 0
    prev = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        as_ = a + s
        first = np.argmax(as_, axis=1)
        best = as_[idx, first]
        as_[idx, first] = -np.inf
        second = np.max(as_, axis=1)
        r_new = s - best[:, None]
        r_new[idx, first] = s[idx, first] - second
        r = damping * r + (1.0 - damping) * r_new
        rp = np.maximum(r, 0.0)
        rp[idx, idx] = r[idx, idx]
        a_new = rp.sum(axis=0)[None, :] - rp
        diag = a_new[idx, idx].copy()
        a_new = np.minimum(a_new, 0.0)
        a_new[idx, idx] = diag
        a = damping * a + (1.0 - damping) * a_new
        exemplars = np.flatnonzero(np.diag(a + r) > 0.0)
        if prev is not None and exemplars.size and np.array_equal(exemplars, prev):
            stable += 1
            if stable >= window:
                converged = True
                break
        else:
            stable = 0
        prev = exemplars
    return r, a, converged, iterations


def oracle_affinity_propagation(matrix, keys, preference, damping, max_iter, window):
    """affinity_propagation end to end, rule by rule: the oracle messages on
    the jittered similarities pick the exemplars (evidence > 0, else the
    first largest evidence), ordered by NP key; every other point goes to the
    first exemplar in that order with the largest clean cosine x @ x.T.
    Returns (assignment, exemplars, net similarity, converged)."""
    x = np.asarray(matrix, dtype=float)
    x = x / np.linalg.norm(x, axis=1)[:, None]
    sims = x @ x.T
    n = len(keys)
    if preference == "median":
        preference = float(np.median(sims[~np.eye(n, dtype=bool)]))
    r, a, converged, _ = oracle_ap_messages(oracle_ap_similarity(matrix, preference),
                                            damping, max_iter, window)
    evidence = [a[i, i] + r[i, i] for i in range(n)]
    exemplars = [i for i in range(n) if evidence[i] > 0.0]
    if not exemplars:
        exemplars = [max(range(n), key=lambda i: evidence[i])]
    exemplars.sort(key=lambda i: keys[i])
    assignment = {}
    best = []   # per non-exemplar point, in row order
    for i in range(n):
        if i in exemplars:
            assignment[keys[i]] = exemplars.index(i)
            continue
        chosen = 0
        for cid, e in enumerate(exemplars):
            if sims[i, e] > sims[i, exemplars[chosen]]:
                chosen = cid
        assignment[keys[i]] = chosen
        best.append(sims[i, exemplars[chosen]])
    # np.sum adds in the order the library's sum does, so the two agree bitwise
    objective = float(np.sum(best) + preference * len(exemplars))
    return assignment, {cid: keys[e] for cid, e in enumerate(exemplars)}, objective, converged

"""Acceptance gate: ten end-to-end checks, one verdict line each.

Every check validates the implementation against an independent oracle
(hand-enumerated couples, brute-force searches, naive reference formulas) or
against a frozen behavioral contract (byte determinism, report shape), at a
pinned tolerance and time budget.  Run with plain `pytest`; the PASS/FAIL
lines print to stdout.
"""
import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from termforge.cli import main as cli_main
from termforge.clustering import ApConfig, KmeansConfig, affinity_propagation, kmeans
from termforge.corpus import load_corpus
from termforge.evaluation import (
    GoldStandard,
    ari_from_assignments,
    purity,
    silhouette_width,
    dunn2,
)
from termforge.extraction import Couple, Role, extract_couples
from termforge.matrices import (
    CooccurrenceMatrix,
    Csr,
    MatrixKind,
    ThresholdError,
    Thresholds,
    apply_frequency_threshold,
    build_role_matrix,
    merge_matrices,
)
from termforge.embeddings import sgns_loss_and_grads
from termforge.nmf import nmf
from util import (
    brute_force_exemplars,
    brute_force_kmeans,
    make_clustering,
    make_rep,
    oracle_ari,
    oracle_purity,
    oracle_silhouette,
    restricted_growth_strings,
)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:2d} FAIL - {title}", flush=True)
        raise
    print(f"\nACCEPTANCE {num:2d} PASS - {title}", flush=True)


# --------------------------------------------------------------- criterion 1


def test_criterion_01_extraction_fidelity(demo_path):
    with criterion(1, "couple extraction matches the hand-enumerated demo parses"):
        start = time.perf_counter()
        corpus = load_corpus(demo_path)
        first, second = list(corpus.sentences())
        got_first = {(c.vpc, c.role, c.np) for c in extract_couples(first)}
        assert got_first == {
            ("extract", Role.SUBJECT, "ontowrapper"),
            ("extract", Role.OBJECT, "information"),
            ("extract_from", Role.OBJECT, "on-line resource"),
        }
        got_second = {(c.vpc, c.role, c.np) for c in extract_couples(second)}
        assert got_second == {
            ("travel", Role.SUBJECT, "bart"),
            ("travel_by", Role.OBJECT, "boat"),
        }
        assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------- criterion 2


def _occurrences_to_couples(table: dict, role: Role) -> list[Couple]:
    out = []
    for (np_key, vpc_key), count in table.items():
        out.extend([Couple(vpc_key, role, np_key, "s")] * count)
    return out


def test_criterion_02_merge_is_entrywise_sum():
    with criterion(2, "merged matrix equals subject + object counts cell by cell "
                      "(100 random trials, exact)"):
        for trial in range(100):
            rng = np.random.default_rng(trial)
            nps = [f"n{i}" for i in range(rng.integers(1, 21))]
            vpcs = [f"v{j}" for j in range(rng.integers(1, 21))]

            def random_table():
                cells = {}
                for _ in range(rng.integers(1, 41)):
                    key = (nps[rng.integers(len(nps))], vpcs[rng.integers(len(vpcs))])
                    cells[key] = int(rng.integers(1, 5))
                return cells

            subj_table, obj_table = random_table(), random_table()
            couples = (_occurrences_to_couples(subj_table, Role.SUBJECT)
                       + _occurrences_to_couples(obj_table, Role.OBJECT))
            merged = merge_matrices(build_role_matrix(couples, Role.SUBJECT),
                                    build_role_matrix(couples, Role.OBJECT))
            dense = merged.toarray()
            for i, np_key in enumerate(merged.row_labels):
                for j, vpc_key in enumerate(merged.col_labels):
                    expected = (subj_table.get((np_key, vpc_key), 0)
                                + obj_table.get((np_key, vpc_key), 0))
                    assert dense[i, j] == expected


# --------------------------------------------------------------- criterion 3


def test_criterion_03_threshold_strict_single_pass():
    with criterion(3, "sigma cut keeps exactly the rows/columns with sum "
                      "strictly above the cutoff (100 random trials, exact)"):
        for trial in range(100):
            rng = np.random.default_rng(1000 + trial)
            dense = rng.integers(0, 6, size=(rng.integers(1, 9), rng.integers(1, 9)))
            dense = dense.astype(float)
            # half the trials pin sigma to an exact row/column sum to probe
            # the strict ">" boundary
            if trial % 2 == 0 and dense.sum() > 0:
                sums = np.concatenate([dense.sum(axis=1), dense.sum(axis=0)])
                sigma = float(rng.choice(sums))
            else:
                sigma = float(rng.integers(0, 12))

            nz = np.nonzero(dense)
            m = CooccurrenceMatrix(
                tuple(f"n{i}" for i in range(dense.shape[0])),
                tuple(f"v{j}" for j in range(dense.shape[1])),
                Csr.from_triplets(*nz, dense[nz], dense.shape), MatrixKind.MERGED_COUNTS)

            row_keep = [i for i in range(dense.shape[0]) if dense[i].sum() > sigma]
            col_keep = [j for j in range(dense.shape[1]) if dense[:, j].sum() > sigma]
            if row_keep and col_keep:
                sub = dense[np.ix_(row_keep, col_keep)]
                rows = [i for pos, i in enumerate(row_keep) if sub[pos].any()]
                cols = [j for pos, j in enumerate(col_keep) if sub[:, pos].any()]
            else:
                rows, cols = [], []

            if not rows:
                with pytest.raises(ThresholdError):
                    apply_frequency_threshold(m, Thresholds(sigma1=sigma))
                continue
            cut = apply_frequency_threshold(m, Thresholds(sigma1=sigma))
            assert cut.row_labels == tuple(f"n{i}" for i in rows)
            assert cut.col_labels == tuple(f"v{j}" for j in cols)
            assert np.array_equal(cut.toarray(), dense[np.ix_(rows, cols)])


# --------------------------------------------------------------- criterion 4


def test_criterion_04_nmf_descent_and_recovery():
    with criterion(4, "NMF keeps factors non-negative with non-increasing error "
                      "on 200 seeded instances and nails an exact rank-1 matrix"):
        start = time.perf_counter()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            shape = (int(rng.integers(2, 13)), int(rng.integers(2, 13)))
            rank = int(rng.integers(1, min(6, min(shape) + 1)))
            pair = nmf(rng.random(shape) * 3, rank=rank, max_iter=30, tol=0.0,
                       seed=seed)
            assert np.all(pair.W >= 0)
            assert np.all(pair.H >= 0)
            # tol=0.0 still stops once float noise makes improvement
            # non-positive, so the history may end before max_iter
            history = pair.error_history
            assert 2 <= len(history) <= 31
            assert all(b <= a + 1e-10 for a, b in zip(history, history[1:]))

        exact = nmf(np.array([[1.0, 2.0], [2.0, 4.0]]), rank=1, max_iter=500,
                    tol=0.0, seed=0)
        assert exact.final_error < 1e-6
        assert time.perf_counter() - start < 10.0


# --------------------------------------------------------------- criterion 5


def test_criterion_05_sgns_gradients_match_finite_differences():
    with criterion(5, "analytic negative-sampling gradients match central "
                      "differences on 50 frozen micro-batches (rel err < 1e-4)"):
        start = time.perf_counter()
        rng = np.random.default_rng(505)
        step = 1e-5

        def relative(analytic, numeric):
            scale = max(1e-12, np.linalg.norm(analytic) + np.linalg.norm(numeric))
            return np.linalg.norm(analytic - numeric) / scale

        for _ in range(50):
            dim = int(rng.integers(2, 17))
            n_rows = int(rng.integers(2, 8))
            center = rng.standard_normal(dim)
            out = rng.standard_normal((n_rows, dim))
            labels = np.zeros(n_rows)
            labels[0] = 1.0
            _, grad_center, grad_out = sgns_loss_and_grads(center, out, labels)

            numeric_center = np.zeros(dim)
            for d in range(dim):
                bump = np.zeros(dim)
                bump[d] = step
                up, _, _ = sgns_loss_and_grads(center + bump, out, labels)
                down, _, _ = sgns_loss_and_grads(center - bump, out, labels)
                numeric_center[d] = (up - down) / (2 * step)
            assert relative(grad_center, numeric_center) < 1e-4

            numeric_out = np.zeros_like(out)
            for r in range(n_rows):
                for d in range(dim):
                    bump = np.zeros_like(out)
                    bump[r, d] = step
                    up, _, _ = sgns_loss_and_grads(center, out + bump, labels)
                    down, _, _ = sgns_loss_and_grads(center, out - bump, labels)
                    numeric_out[r, d] = (up - down) / (2 * step)
            assert relative(grad_out, numeric_out) < 1e-4
        assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------- criterion 6


def test_criterion_06_kmeans_matches_exhaustive_partition_search():
    with criterion(6, "best-of-20 spherical K-Means reaches the global optimum "
                      "found by exhaustive partition search (30 instances, 1e-9)"):
        start = time.perf_counter()
        for instance in range(30):
            rng = np.random.default_rng(6000 + instance)
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            points = rng.random((n, 3)) + 0.1
            best_brute, _ = brute_force_kmeans(points, k)

            rep = make_rep(points)
            best_run = math.inf
            for restart in range(20):
                result = kmeans(rep, KmeansConfig(
                    k=k, seed=instance * 1000 + restart, max_iter=200,
                    rel_tol=0.0))
                best_run = min(best_run, result.objective)
            assert abs(best_run - best_brute) <= 1e-9, (
                f"instance {instance}: k-means {best_run} vs brute {best_brute}")
        assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------- criterion 7


def test_criterion_07_affinity_propagation_sanity():
    with criterion(7, "affinity propagation recovers orthogonal groups (agreeing "
                      "with exhaustive exemplar search) and isolates points under "
                      "a dominating preference"):
        start = time.perf_counter()
        vectors, keys = [], []
        for axis, name in enumerate("abc"):
            for i in range(3):
                v = np.zeros(3)
                v[axis] = 1.0 + 0.1 * i
                vectors.append(v)
                keys.append(f"{name}{i}")
        rep = make_rep(np.array(vectors), keys=tuple(keys))
        result = affinity_propagation(rep, ApConfig())
        groups = {tuple(sorted(m)) for m in result.members().values()}
        assert groups == {("a0", "a1", "a2"), ("b0", "b1", "b2"),
                          ("c0", "c1", "c2")}
        assert result.converged

        # exhaustive check: the best exemplar subset induces the same partition
        normalized = np.array(vectors) / np.linalg.norm(vectors, axis=1, keepdims=True)
        sims = normalized @ normalized.T
        preference = float(np.median(sims[~np.eye(9, dtype=bool)]))
        _, best_set = brute_force_exemplars(sims, preference)
        induced = {}
        for i in range(9):
            exemplar = i if i in best_set else max(best_set, key=lambda e: sims[i, e])
            induced.setdefault(exemplar, []).append(keys[i])
        assert {tuple(sorted(m)) for m in induced.values()} == groups

        # a preference above every pairwise similarity forces singletons
        rng = np.random.default_rng(7)
        pts = rng.random((5, 3)) + 0.1
        unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        top = float(np.max((unit @ unit.T)[~np.eye(5, dtype=bool)]))
        singles = affinity_propagation(make_rep(pts), ApConfig(preference=top + 1.0))
        assert singles.n_clusters == 5
        assert time.perf_counter() - start < 5.0


# --------------------------------------------------------------- criterion 8


def test_criterion_08_validity_indices_against_oracles():
    with criterion(8, "ARI/purity/silhouette match naive oracles (ARI exhaustive "
                      "over all partition pairs of 6 items) and dunn2 is scale "
                      "invariant"):
        start = time.perf_counter()

        partitions = list(restricted_growth_strings(6))
        assert len(partitions) == 203                      # Bell(6)
        for xs in partitions:
            assert ari_from_assignments(xs, xs) == 1.0
            for ys in partitions:
                assert ari_from_assignments(xs, ys) == oracle_ari(xs, ys)

        for trial in range(100):
            rng = np.random.default_rng(8000 + trial)
            n = int(rng.integers(3, 12))
            ids = rng.integers(0, 3, size=n).tolist()
            remap = {c: i for i, c in enumerate(sorted(set(ids)))}
            ids = [remap[c] for c in ids]
            clustering = make_clustering(ids)
            gold_labels = {f"p{i}": f"L{int(g)}"
                           for i, g in enumerate(rng.integers(0, 3, size=n))}
            gold = GoldStandard(mapping=gold_labels,
                                labels=frozenset(gold_labels.values()))
            assert purity(clustering, gold) == oracle_purity(
                clustering.assignment, gold_labels)

            if len(set(ids)) >= 2:
                points = rng.random((n, 3)) + 0.05
                diffs = points[:, None, :] - points[None, :, :]
                d = np.sqrt((diffs ** 2).sum(axis=2))
                assert silhouette_width(d, clustering) == pytest.approx(
                    oracle_silhouette(d, ids), abs=1e-12)

        identical = make_clustering([0, 0, 1, 1, 2])
        same_gold = {f"p{i}": f"L{c}" for i, c in enumerate([0, 0, 1, 1, 2])}
        assert purity(identical, GoldStandard(
            mapping=same_gold, labels=frozenset(same_gold.values()))) == 1.0

        d4 = np.array([[0.0, 0.1, 0.9, 0.9], [0.1, 0.0, 0.9, 0.9],
                       [0.9, 0.9, 0.0, 0.2], [0.9, 0.9, 0.2, 0.0]])
        pairs = make_clustering([0, 0, 1, 1])
        base = dunn2(d4, pairs)
        assert base == pytest.approx(4.5, abs=1e-12)
        for c in (0.5, 3.0, 10.0):
            assert dunn2(c * d4, pairs) == pytest.approx(base, rel=1e-12)

        assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------- criteria 9 and 10


PIPELINE_FLAGS = ["--sigma1", "2", "--sigma2", "0.5",
                  "--k-min", "2", "--k-max", "10", "--reps", "3",
                  "--seed", "7", "--nmf-rank", "10",
                  "--w2v-dim", "32", "--w2v-epochs", "3"]


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory, mini_corpus_path, mini_gold_path):
    """Two full CLI pipeline runs with identical arguments."""
    base = tmp_path_factory.mktemp("determinism")
    start = time.perf_counter()
    for name in ("first", "second"):
        code = cli_main(["pipeline",
                         "--corpus", str(mini_corpus_path),
                         "--gold", str(mini_gold_path),
                         "--out", str(base / name)] + PIPELINE_FLAGS)
        assert code == 0
    return base, time.perf_counter() - start


def test_criterion_09_pipeline_byte_determinism(pipeline_runs):
    with criterion(9, "repeated CLI pipeline runs are byte-identical"):
        base, elapsed = pipeline_runs
        first = sorted((base / "first").iterdir())
        assert len(first) >= 25
        for file in first:
            counterpart = base / "second" / file.name
            assert counterpart.exists(), f"second run lacks {file.name}"
            assert counterpart.read_bytes() == file.read_bytes(), (
                f"{file.name} differs between runs")
        assert elapsed < 60.0


def test_criterion_10_report_shape(pipeline_runs):
    with criterion(10, "report.csv holds one KM and one AP row per "
                       "representation with ratio = clusters / gold labels"):
        base, _ = pipeline_runs
        lines = (base / "first" / "report.csv").read_text().splitlines()
        assert lines[0] == ("clusterer,representation,n_clusters,ratio,"
                            "purity,ari,dunn2,silhouette")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8
        reps = ("NP_VPC", "NP_VPC_tfidf", "NP_VPC_NMF", "NP_w2v")
        assert [(r[0], r[1]) for r in rows] == (
            [("KM", rep) for rep in reps] + [("AP", rep) for rep in reps])
        for row in rows:
            n_clusters = int(row[2])
            assert n_clusters >= 2
            assert float(row[3]) == n_clusters / 3

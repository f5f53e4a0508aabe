import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from termforge.evaluation import (
    GoldStandard,
    ari_from_assignments,
    dunn2,
    evaluate_clustering,
    format_value,
    load_gold_standard,
    purity,
    silhouette_width,
)
from termforge.extraction import normalize_np_text
from util import (
    make_clustering,
    oracle_ari,
    oracle_dunn2,
    oracle_purity,
    oracle_silhouette,
    restricted_growth_strings,
)

# two tight pairs far from each other; silhouette and dunn2 worked out by hand
FOUR_POINT_D = np.array([
    [0.0, 0.1, 0.9, 0.9],
    [0.1, 0.0, 0.9, 0.9],
    [0.9, 0.9, 0.0, 0.2],
    [0.9, 0.9, 0.2, 0.0],
])
FOUR_POINT_CLUSTERING = make_clustering([0, 0, 1, 1])


def gold(mapping):
    return GoldStandard(mapping=dict(mapping))


# ------------------------------------------------------------------- gold


def test_load_gold_standard(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("Guitar\tInstrument\n  jazz  Band \tGenre\nsinger\tMusician\n")
    gs = load_gold_standard(path)
    assert gs.mapping == {"guitar": "Instrument", "jazz band": "Genre",
                          "singer": "Musician"}
    assert gs.labels == frozenset({"Instrument", "Genre", "Musician"})
    assert gs.n_labels == 3


def test_a_byte_order_mark_is_not_part_of_the_first_gold_term(tmp_path, mini_gold_path):
    bom = tmp_path / "gold.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + mini_gold_path.read_bytes())
    assert load_gold_standard(bom) == load_gold_standard(mini_gold_path)


def test_gold_standard_conflicting_labels(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("guitar\tInstrument\nGuitar\tGenre\n")
    with pytest.raises(ValueError, match="term 'guitar' assigned conflicting"):
        load_gold_standard(path)


def test_gold_standard_duplicate_agreeing_lines_fine(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("guitar\tInstrument\nguitar\tInstrument\n")
    assert load_gold_standard(path).mapping == {"guitar": "Instrument"}


def test_gold_standard_malformed_line(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("guitar Instrument\n")
    with pytest.raises(ValueError, match=":1: expected term<TAB>label"):
        load_gold_standard(path)


def test_gold_standard_empty_file(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("\n\n")
    with pytest.raises(ValueError, match="gold standard is empty"):
        load_gold_standard(path)


def test_normalize_term_key():
    assert normalize_np_text("  Foo   BAR ") == "foo bar"


# -------------------------------------------------------------- silhouette


def test_silhouette_hand_worked_example():
    # a(0)=0.1, b(0)=0.9 -> s=8/9; likewise 8/9, 7/9, 7/9 -> mean 5/6
    value = silhouette_width(FOUR_POINT_D, FOUR_POINT_CLUSTERING)
    assert value == pytest.approx(5.0 / 6.0, abs=1e-12)


def test_silhouette_perfect_separation_of_duplicates():
    d = np.array([
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 0.0],
    ])
    assert silhouette_width(d, FOUR_POINT_CLUSTERING) == 1.0


def test_silhouette_singletons_contribute_zero():
    d = FOUR_POINT_D.copy()
    clustering = make_clustering([0, 0, 1, 2])
    # points 2 and 3 are singletons (s=0); 0 and 1: a=0.1, b=0.9, s=8/9
    assert silhouette_width(d, clustering) == pytest.approx((8 / 9 + 8 / 9) / 4, abs=1e-12)


def test_silhouette_zero_by_zero_convention():
    d = np.zeros((3, 3))
    assert silhouette_width(d, make_clustering([0, 0, 1])) == 0.0


def test_silhouette_needs_two_clusters():
    with pytest.raises(ValueError, match="at least 2 clusters"):
        silhouette_width(np.zeros((2, 2)), make_clustering([0, 0]))


def test_silhouette_validates_matrix():
    bad_diag = np.array([[0.5, 0.1], [0.1, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        silhouette_width(bad_diag, make_clustering([0, 1]))
    asym = np.array([[0.0, 0.3], [0.1, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        silhouette_width(asym, make_clustering([0, 1]))
    with pytest.raises(ValueError, match="does not match"):
        silhouette_width(np.zeros((3, 3)), make_clustering([0, 1]))
    # the tolerance is an absolute 1e-12, not numpy's default rtol=1e-5
    d = np.array([[0.0, 0.5, 0.9], [0.5, 0.0, 0.7], [0.9, 0.7, 0.0]])
    three = make_clustering([0, 0, 1])
    for i, j, bad_value, match in ((0, 2, 0.9 + 1e-7, "symmetric"),
                                   (1, 1, 1e-7, "diagonal"),
                                   (0, 1, np.nan, "symmetric")):
        bad = d.copy()
        bad[i, j] = bad_value
        with pytest.raises(ValueError, match=match):
            silhouette_width(bad, three)
    within = d.copy()
    within[0, 2] += 5e-13
    within[2, 2] = 5e-13
    silhouette_width(within, three)


# ------------------------------------------------------------------- dunn2


def test_dunn2_hand_worked_example():
    # min avg between = 0.9, max avg within = 0.2
    assert dunn2(FOUR_POINT_D, FOUR_POINT_CLUSTERING) == pytest.approx(4.5, abs=1e-12)


def test_dunn2_infinite_when_within_zero():
    d = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
    ])
    # cluster {0,1} has zero within-dissimilarity, {2} is singleton
    assert dunn2(d, make_clustering([0, 0, 1])) == math.inf


def test_dunn2_infinite_when_all_singletons():
    d = FOUR_POINT_D.copy()
    assert dunn2(d, make_clustering([0, 1, 2, 3])) == math.inf


def test_dunn2_needs_two_clusters():
    with pytest.raises(ValueError, match="at least 2 clusters"):
        dunn2(np.zeros((2, 2)), make_clustering([0, 0]))


def test_dunn2_scale_invariance():
    base = dunn2(FOUR_POINT_D, FOUR_POINT_CLUSTERING)
    assert dunn2(0.5 * FOUR_POINT_D, FOUR_POINT_CLUSTERING) == base
    for c in (3.0, 10.0):
        scaled = dunn2(c * FOUR_POINT_D, FOUR_POINT_CLUSTERING)
        assert scaled == pytest.approx(base, rel=1e-12)


# ------------------------------------------------------------------ purity


def test_purity_single_cluster_majority():
    clustering = make_clustering([0, 0, 0, 0, 0])
    gs = gold({f"p{i}": lab for i, lab in enumerate("XXXYY")})
    assert purity(clustering, gs) == pytest.approx(0.6)


def test_purity_hand_worked_example():
    clustering = make_clustering([0, 0, 0, 1, 1])
    gs = gold({"p0": "A", "p1": "A", "p2": "B", "p3": "C", "p4": "C"})
    assert purity(clustering, gs) == pytest.approx(0.8)


def test_purity_identical_partitions():
    clustering = make_clustering([0, 0, 1, 1, 2])
    gs = gold({f"p{i}": f"L{c}" for i, c in enumerate([0, 0, 1, 1, 2])})
    assert purity(clustering, gs) == 1.0


def test_purity_scores_only_the_gold_intersection():
    clustering = make_clustering([0, 0, 1])
    gs = gold({"p0": "A", "p1": "B"})   # p2 is not in the gold standard
    assert purity(clustering, gs) == pytest.approx(0.5)


def test_purity_empty_intersection_is_an_error():
    clustering = make_clustering([0, 1], keys=("foo", "bar"))
    gs = gold({"baz": "A"})
    with pytest.raises(ValueError, match="sample clustered keys: foo, bar"):
        purity(clustering, gs)


@given(st.lists(st.integers(0, 3), min_size=2, max_size=12),
       st.lists(st.integers(0, 2), min_size=2, max_size=12))
def test_purity_matches_direct_formula(xs, gold_labels):
    n = min(len(xs), len(gold_labels))
    xs, gold_labels = xs[:n], gold_labels[:n]
    ids = sorted(set(xs))
    remap = {c: i for i, c in enumerate(ids)}
    clustering = make_clustering([remap[c] for c in xs])
    gs = gold({f"p{i}": f"L{g}" for i, g in enumerate(gold_labels)})
    expected = oracle_purity(clustering.assignment, gs.mapping)
    assert purity(clustering, gs) == expected


def test_splitting_a_cluster_never_decreases_purity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        xs = rng.integers(0, 3, size=n)
        gold_labels = rng.integers(0, 3, size=n)
        remap = {c: i for i, c in enumerate(sorted(set(xs.tolist())))}
        base = [remap[c] for c in xs.tolist()]
        clustering = make_clustering(base)
        gs = gold({f"p{i}": f"L{g}" for i, g in enumerate(gold_labels.tolist())})
        before = purity(clustering, gs)
        # split the largest cluster in two
        biggest = max(set(base), key=base.count)
        members = [i for i, c in enumerate(base) if c == biggest]
        if len(members) < 2:
            continue
        split = list(base)
        new_id = max(base) + 1
        for i in members[: len(members) // 2]:
            split[i] = new_id
        after = purity(make_clustering(split), gs)
        assert after >= before - 1e-12


# --------------------------------------------------------------------- ARI


def test_ari_identical_partitions():
    assert ari_from_assignments([0, 0, 1, 2], [5, 5, 7, 9]) == 1.0


def test_ari_hand_worked_example():
    # a=2 b=2 c=2 d=4 -> 2(8-4)/48 = 1/6
    value = ari_from_assignments([0, 0, 0, 1, 1], [0, 0, 1, 1, 1])
    assert value == pytest.approx(1 / 6, abs=1e-15)
    assert value == oracle_ari([0, 0, 0, 1, 1], [0, 0, 1, 1, 1])


def test_ari_degenerate_cases():
    # all singletons vs one class: denominator 0, partitions differ -> 0.0
    assert ari_from_assignments([0, 1, 2], [7, 7, 7]) == 0.0
    # both all-singletons: identical partitions -> 1.0
    assert ari_from_assignments([0, 1, 2], [5, 6, 7]) == 1.0
    # both one-cluster -> 1.0
    assert ari_from_assignments([0, 0], [3, 3]) == 1.0


def test_ari_symmetry_and_relabeling_invariance():
    xs = [0, 0, 1, 1, 2, 2, 0]
    ys = [1, 1, 1, 0, 0, 2, 2]
    assert ari_from_assignments(xs, ys) == ari_from_assignments(ys, xs)
    relabeled = [{0: "c", 1: "a", 2: "b"}[x] for x in xs]
    assert ari_from_assignments(relabeled, ys) == ari_from_assignments(xs, ys)


def test_ari_length_mismatch():
    with pytest.raises(ValueError, match="lengths differ: 2 vs 3"):
        ari_from_assignments([0, 1], [0, 1, 2])


def test_ari_exhaustive_against_pair_counting_n5():
    partitions = list(restricted_growth_strings(5))
    assert len(partitions) == 52          # Bell(5)
    for xs in partitions:
        assert ari_from_assignments(xs, xs) == 1.0
        for ys in partitions:
            assert ari_from_assignments(xs, ys) == oracle_ari(xs, ys)


# ------------------------------------------------- random-instance oracles


@given(st.integers(0, 500))
@example(114)       # all singletons: dunn2 has no within pair and is inf
@example(7)         # a point with a(i) = b(i) = 0 among nonzero distances
def test_silhouette_and_dunn2_match_naive_oracles(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    # points drawn from a pool of at most n repeat, so zero distances occur
    pool = rng.random((int(rng.integers(1, n + 1)), 3)) + 0.05
    points = pool[rng.integers(0, len(pool), size=n)]
    diffs = points[:, None, :] - points[None, :, :]
    d = np.sqrt((diffs ** 2).sum(axis=2))
    # up to n clusters, so singleton clusters occur
    ids = rng.integers(0, int(rng.integers(2, n + 1)), size=n).tolist()
    assume(len(set(ids)) >= 2)
    remap = {c: i for i, c in enumerate(sorted(set(ids)))}
    ids = [remap[c] for c in ids]
    clustering = make_clustering(ids)
    assert silhouette_width(d, clustering) == pytest.approx(
        oracle_silhouette(d, ids), abs=1e-12)
    expected = oracle_dunn2(d, ids)
    actual = dunn2(d, clustering)
    if math.isinf(expected):
        assert math.isinf(actual)
    else:
        assert actual == pytest.approx(expected, rel=1e-12)


# -------------------------------------------------------------- evaluation


def test_evaluate_clustering_full_report():
    gs = gold({"p0": "A", "p1": "A", "p2": "B", "p3": "B"})
    report = evaluate_clustering(FOUR_POINT_D, FOUR_POINT_CLUSTERING, gs)
    assert report.purity == 1.0
    assert report.ari == 1.0
    assert report.dunn2 == pytest.approx(4.5)
    assert report.silhouette == pytest.approx(5 / 6)


def test_evaluate_clustering_without_gold():
    report = evaluate_clustering(FOUR_POINT_D, FOUR_POINT_CLUSTERING, None)
    assert report.purity is None
    assert report.ari is None
    assert report.silhouette == pytest.approx(5 / 6)


def test_evaluate_clustering_single_cluster_internal_none():
    gs = gold({"p0": "A", "p1": "A"})
    clustering = make_clustering([0, 0])
    report = evaluate_clustering(np.zeros((2, 2)), clustering, gs)
    assert report.silhouette is None
    assert report.dunn2 is None
    assert report.purity == 1.0


# ------------------------------------------------------------------ format


def test_format_value():
    assert format_value(None) == "NA"
    assert format_value(math.inf) == "inf"
    assert format_value(-math.inf) == "-inf"
    assert format_value(0.1) == "0.1"
    assert float(format_value(1 / 3)) == 1 / 3   # repr round-trips
    assert format_value(7) == "7"
    assert format_value("KM") == "KM"

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from termforge.extraction import Couple, Role
from termforge.matrices import (
    NP_VPC,
    CooccurrenceMatrix,
    Csr,
    Representation,
    ThresholdError,
    Thresholds,
    apply_frequency_threshold,
    apply_value_threshold,
    build_role_matrix,
    load_matrix,
    load_representation,
    make_representation,
    merge_matrices,
    representation_from_matrix,
    save_matrix,
    save_representation,
    tfidf_weight,
)


def counts_matrix(dense, rows=None, cols=None):
    dense = np.asarray(dense, dtype=float)
    rows = rows or tuple(f"n{i}" for i in range(dense.shape[0]))
    cols = cols or tuple(f"v{j}" for j in range(dense.shape[1]))
    i, j = np.nonzero(dense)
    values = Csr.from_triplets(i, j, dense[i, j], dense.shape)
    return CooccurrenceMatrix(tuple(rows), tuple(cols), values)


def couple_set(subject_counts, object_counts):
    """Couples realizing the given {(np, vpc): count} occurrence maps."""
    couples = []
    for role, table in ((Role.SUBJECT, subject_counts), (Role.OBJECT, object_counts)):
        for (np_key, vpc_key), count in table.items():
            couples.extend([Couple(vpc_key, role, np_key, "s")] * count)
    return tuple(couples)


# ---------------------------------------------------------------------- csr

def test_csr_sums_duplicates_drops_zeros_and_sorts():
    rows = [2, 0, 2, 0, 1, 2, 1]
    cols = [1, 3, 1, 0, 2, 0, 2]
    values = [1.0, 4.0, 2.5, 0.0, 3.0, -7.0, -3.0]
    m = Csr.from_triplets(rows, cols, values, (4, 5))
    dense = np.zeros((4, 5))
    np.add.at(dense, (rows, cols), values)
    assert np.array_equal(m.toarray(), dense)
    assert m.nnz == 3   # (0,0) holds 0.0, (1,2) sums to 0.0: neither is stored
    assert m.indptr.tolist() == [0, 1, 1, 3, 3]
    assert m.indices.tolist() == [3, 0, 1]
    assert m.row_ids().tolist() == [0, 2, 2]
    assert np.array_equal(m.transpose().toarray(), dense.T)
    empty = Csr.from_triplets([], [], [], (2, 3))
    assert empty.nnz == 0 and np.array_equal(empty.toarray(), np.zeros((2, 3)))
    for bad_row, bad_col in ((-1, 0), (4, 0), (0, 5)):
        with pytest.raises(ValueError, match="out of range"):
            Csr.from_triplets([bad_row], [bad_col], [1.0], (4, 5))


# -------------------------------------------------------------- role counts

def test_build_role_matrix_counts_duplicates():
    couples = couple_set({("cat", "chase"): 3, ("dog", "chase"): 1}, {})
    m = build_role_matrix(couples, Role.SUBJECT)
    assert m.row_labels == ("cat", "dog")
    assert m.col_labels == ("chase",)
    assert m.toarray().tolist() == [[3.0], [1.0]]


def test_build_role_matrix_filters_by_role():
    couples = couple_set({("cat", "chase"): 1}, {("mouse", "chase"): 2})
    m = build_role_matrix(couples, Role.OBJECT)
    assert m.row_labels == ("mouse",)
    assert m.toarray().tolist() == [[2.0]]


def test_labels_sorted_lexicographically():
    couples = couple_set({("zebra", "run"): 1, ("ant", "run"): 1,
                          ("ant", "bite"): 1}, {})
    m = build_role_matrix(couples, Role.SUBJECT)
    assert m.row_labels == ("ant", "zebra")
    assert m.col_labels == ("bite", "run")


# -------------------------------------------------------------------- merge

def test_merge_hand_example():
    subj = {("cat", "chase"): 2, ("dog", "bark"): 1}
    obj = {("cat", "chase"): 1, ("mouse", "chase"): 4}
    couples = couple_set(subj, obj)
    merged = merge_matrices(build_role_matrix(couples, Role.SUBJECT),
                            build_role_matrix(couples, Role.OBJECT))
    assert merged.row_labels == ("cat", "dog", "mouse")
    assert merged.col_labels == ("bark", "chase")
    assert merged.toarray().tolist() == [[0, 3], [1, 0], [0, 4]]


def test_merge_is_symmetric():
    couples = couple_set({("a", "v"): 1, ("b", "w"): 2}, {("a", "v"): 3, ("c", "u"): 1})
    subj = build_role_matrix(couples, Role.SUBJECT)
    obj = build_role_matrix(couples, Role.OBJECT)
    forward, backward = merge_matrices(subj, obj), merge_matrices(obj, subj)
    assert (backward.row_labels, backward.col_labels) == (forward.row_labels, forward.col_labels)
    assert np.array_equal(backward.toarray(), forward.toarray())


occurrence_tables = st.dictionaries(
    st.tuples(st.sampled_from([f"n{i}" for i in range(6)]),
              st.sampled_from([f"v{j}" for j in range(5)])),
    st.integers(1, 4), max_size=12)


@given(occurrence_tables, occurrence_tables)
def test_merge_is_entrywise_sum_over_label_union(subj_table, obj_table):
    couples = couple_set(subj_table, obj_table)
    merged = merge_matrices(build_role_matrix(couples, Role.SUBJECT),
                            build_role_matrix(couples, Role.OBJECT))
    nps = sorted({k for k, _ in subj_table} | {k for k, _ in obj_table})
    vpcs = sorted({v for _, v in subj_table} | {v for _, v in obj_table})
    assert merged.row_labels == tuple(nps)
    assert merged.col_labels == tuple(vpcs)
    dense = merged.toarray()
    for i, np_key in enumerate(nps):
        for j, vpc_key in enumerate(vpcs):
            expected = subj_table.get((np_key, vpc_key), 0) + obj_table.get((np_key, vpc_key), 0)
            assert dense[i, j] == expected


# --------------------------------------------------------------- thresholds

def test_threshold_is_strict_at_the_boundary():
    m = counts_matrix([[3, 0], [1, 2]])
    cut = apply_frequency_threshold(m, Thresholds(sigma1=2.0))
    # column v1 sums to exactly 2 and must go; both rows sum to 3 and stay
    assert cut.row_labels == ("n0", "n1")
    assert cut.col_labels == ("v0",)
    assert cut.toarray().tolist() == [[3.0], [1.0]]


def test_threshold_cleanup_drops_rows_left_all_zero():
    m = counts_matrix([[2, 2, 0], [0, 0, 9], [0, 0, 7]])
    cut = apply_frequency_threshold(m, Thresholds(sigma1=3.0))
    # n0 survives the sum cut (4 > 3) but both its columns die (2 <= 3),
    # so the zero-cleanup removes it
    assert cut.row_labels == ("n1", "n2")
    assert cut.col_labels == ("v2",)
    assert cut.toarray().tolist() == [[9.0], [7.0]]


def test_threshold_is_single_pass():
    m = counts_matrix([[9, 0], [4, 4]])
    cut = apply_frequency_threshold(m, Thresholds(sigma1=5.0))
    # after v1 dies, n1 retains only 4 <= 5; a second pass would drop it,
    # the single-pass rule keeps it
    assert cut.row_labels == ("n0", "n1")
    assert cut.toarray().tolist() == [[9.0], [4.0]]


def test_threshold_error_when_everything_dies():
    m = counts_matrix([[2, 2]])
    with pytest.raises(ThresholdError, match="sigma1 > 3.0 eliminated every row"):
        apply_frequency_threshold(m, Thresholds(sigma1=3.0))


def test_threshold_zero_keeps_everything_nonzero():
    dense = [[1, 0], [0, 2]]
    cut = apply_frequency_threshold(counts_matrix(dense), Thresholds())
    assert cut.toarray().tolist() == [[1.0, 0.0], [0.0, 2.0]]


def test_negative_thresholds_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        Thresholds(sigma1=-1.0)


@pytest.mark.parametrize("sigmas", [{"sigma1": math.nan}, {"sigma2": math.nan}])
def test_nan_thresholds_rejected(sigmas):
    # a NaN cutoff would compare false everywhere and cut every row
    with pytest.raises(ValueError, match="non-negative"):
        Thresholds(**sigmas)


def oracle_cut(dense, sigma):
    """Single-pass bidirectional cut: keep rows/cols with sum strictly above
    sigma, then drop rows/cols the joint cut left entirely zero."""
    dense = np.asarray(dense, dtype=float)
    row_keep = [i for i in range(dense.shape[0]) if dense[i].sum() > sigma]
    col_keep = [j for j in range(dense.shape[1]) if dense[:, j].sum() > sigma]
    if not row_keep or not col_keep:
        return [], [], np.zeros((0, 0))
    sub = dense[np.ix_(row_keep, col_keep)]
    rows = [i for pos, i in enumerate(row_keep) if sub[pos].any()]
    cols = [j for pos, j in enumerate(col_keep) if sub[:, pos].any()]
    return rows, cols, dense[np.ix_(rows, cols)]


@given(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=6),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1),
       st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]))
def test_threshold_matches_brute_force_cut(dense, sigma):
    m = counts_matrix(dense)
    rows, cols, expected = oracle_cut(dense, sigma)
    if not rows:
        with pytest.raises(ThresholdError):
            apply_frequency_threshold(m, Thresholds(sigma1=sigma))
        return
    cut = apply_frequency_threshold(m, Thresholds(sigma1=sigma))
    assert cut.row_labels == tuple(f"n{i}" for i in rows)
    assert cut.col_labels == tuple(f"v{j}" for j in cols)
    assert np.array_equal(cut.toarray(), expected)


# -------------------------------------------------------------------- tfidf

def test_tfidf_hand_example():
    m = counts_matrix([[2, 0, 1], [0, 3, 0]])
    weighted = tfidf_weight(m)
    expected = np.array([
        [2 * math.log(3 / 2), 0.0, 1 * math.log(3 / 2)],
        [0.0, 3 * math.log(3 / 1), 0.0],
    ])
    assert np.allclose(weighted.toarray(), expected, rtol=0, atol=1e-15)


def test_tfidf_preserves_labels_and_never_creates_nonzeros():
    m = counts_matrix([[1, 0], [2, 2]])
    weighted = tfidf_weight(m)
    assert weighted.row_labels == m.row_labels
    assert weighted.col_labels == m.col_labels
    # zeros stay zero; nonzeros may weight down to zero (df == M rows)
    assert np.all(weighted.toarray()[m.toarray() == 0] == 0)


def test_tfidf_ubiquitous_np_weights_to_zero():
    # an NP seen with every VPC has idf ln(M/M) = 0
    weighted = tfidf_weight(counts_matrix([[1, 1], [3, 0]]))
    assert np.all(weighted.toarray()[0] == 0.0)
    assert weighted.toarray()[1, 0] == pytest.approx(3 * math.log(2))


def test_value_threshold_on_tfidf():
    weighted = tfidf_weight(counts_matrix([[1, 1], [3, 0]]))
    # row 0 weights to all-zero (idf 0), so any positive sigma2 removes it
    cut = apply_value_threshold(weighted, Thresholds(sigma2=0.1))
    assert cut.row_labels == ("n1",)
    assert cut.col_labels == ("v0",)


# ----------------------------------------------------------- serialization

def test_matrix_save_load_round_trip(tmp_path):
    m = counts_matrix([[2, 0], [1, 5]], rows=("jazz band", "guitar"),
                      cols=("play", "perform_in"))
    path = tmp_path / "m.mtx"
    save_matrix(m, path)
    assert (tmp_path / "m.mtx.rows").read_text() == "jazz band\nguitar\n"
    loaded = load_matrix(path)
    assert loaded.row_labels == m.row_labels
    assert loaded.col_labels == m.col_labels
    assert np.array_equal(loaded.toarray(), m.toarray())


def test_matrix_load_rejects_sidecar_mismatch(tmp_path):
    m = counts_matrix([[1, 2], [3, 4]])
    path = tmp_path / "m.mtx"
    save_matrix(m, path)
    (tmp_path / "m.mtx.rows").write_text("only-one\n")
    with pytest.raises(ValueError, match="does not match sidecar labels"):
        load_matrix(path)


def test_make_representation_drops_zero_rows():
    rep = make_representation(["a", "b", "c"],
                              np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 2.0]]),
                              NP_VPC)
    assert rep.row_labels == ("a", "c")
    assert rep.dropped_labels == ("b",)
    assert rep.matrix.shape == (2, 2)
    assert rep.provenance == NP_VPC


def test_make_representation_shape_check():
    with pytest.raises(ValueError, match="does not match"):
        make_representation(["a"], np.zeros((2, 2)), NP_VPC)


def test_make_representation_rejects_non_finite_rows():
    matrix = np.array([[1.0, 0.0], [np.nan, 1.0], [0.5, 2.0], [np.inf, 0.0]])
    with pytest.raises(ValueError, match=r"NP_VPC: non-finite values in 2 row\(s\): b, d"):
        make_representation(["a", "b", "c", "d"], matrix, NP_VPC)


def test_representation_from_matrix(tmp_path):
    m = counts_matrix([[1, 0], [0, 3]])
    rep = representation_from_matrix(m, NP_VPC)
    assert rep.row_labels == ("n0", "n1")
    assert np.array_equal(rep.matrix, m.toarray())


def test_representation_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rep = make_representation(("on-line resource", "jazz band", "x"),
                              rng.standard_normal((3, 4)) ** 2 + 0.01,
                              NP_VPC)
    path = tmp_path / "rep.txt"
    save_representation(rep, path)
    loaded = load_representation(path)
    assert loaded.row_labels == rep.row_labels
    # repr() serialization must round-trip float64 exactly
    assert np.array_equal(loaded.matrix, rep.matrix)
    assert loaded.provenance == "rep"   # the file stem


@pytest.mark.parametrize("density", [0.1, 0.9])
def test_representation_values_are_spelled_by_repr(tmp_path, density):
    # every value, -0.0 and subnormals included, is spelled as repr spells
    # it, in mostly-zero and dense matrices alike
    rng = np.random.default_rng(4)
    m = rng.random((6, 7)) / 3 * (rng.random((6, 7)) < density)
    m[0, :3] = [-0.0, 5e-324, 3.0]
    rep = Representation(tuple(f"k {i}" for i in range(6)), m, NP_VPC)
    path = tmp_path / "rep.txt"
    save_representation(rep, path)
    assert path.read_text() == "6 7\n" + "".join(
        f"k {i}\t" + " ".join(repr(v) for v in row) + "\n" for i, row in enumerate(m.tolist()))


def test_load_representation_rejects_short_rows(tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text("1 3\nkey\t1.0 2.0\n")
    with pytest.raises(ValueError, match="row 0 has 2 values, expected 3"):
        load_representation(path)


def test_load_representation_rejects_non_finite_values(tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text("2 2\njazz band\t1.0 2.0\nsolo\tnan 1.0\n")
    with pytest.raises(ValueError, match=r"rep\.txt: row 1 \(solo\) has non-finite values"):
        load_representation(path)


@pytest.mark.parametrize("text, message", [
    ("", "bad header ''"),
    ("3\nkey\t1.0\n", "bad header '3'"),
    ("1 2 3\nkey\t1.0 2.0\n", "bad header '1 2 3'"),
    ("1 -2\nkey\t1.0 2.0\n", "bad header '1 -2'"),
    ("1 x\nkey\t1.0 2.0\n", "bad header '1 x'"),
    ("1 2\nkey\t1.0 2.0\nextra\t3.0 4.0\n", "non-blank lines after the 1 rows"),
    ("0 2\n\nkey\t1.0 2.0\n", "non-blank lines after the 0 rows"),
], ids=["empty", "one-field", "three-fields", "negative", "not-a-number",
        "extra-row", "row-after-blank"])
def test_load_representation_rejects_malformed_layout(tmp_path, text, message):
    path = tmp_path / "rep.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_representation(path)


def test_load_representation_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text("3 2\na\t1.0 0.0\nb\t0.0 1.0\na\t1.0 1.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: row 2 repeats "
                                         "the key 'a' of row 0$"):
        load_representation(path)


def test_load_representation_ignores_trailing_blank_lines(tmp_path):
    path = tmp_path / "rep.txt"
    path.write_text("1 2\nkey\t1.0 2.0\n\n  \n")
    assert load_representation(path).row_labels == ("key",)

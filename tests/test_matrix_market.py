"""Matrix Market I/O against ``scipy.io.mmwrite``, the test oracle: termforge
itself writes and reads the format without scipy."""
import io

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

from termforge.experiment import PipelineConfig, build_matrices
from termforge.extraction import SCHEMES, extract_corpus
from termforge.matrices import (
    CooccurrenceMatrix,
    Csr,
    Thresholds,
    load_matrix,
    save_matrix,
)

SPECIAL_VALUES = (0.1, 12.0, 1e6, 1e-05, 1.5e-07, 1.2345678901234568e16)


def mmwrite_text(m: CooccurrenceMatrix) -> str:
    v = m.values
    coo = sp.coo_matrix((v.data, (v.row_ids(), v.indices)), shape=v.shape)
    buf = io.BytesIO()
    scipy.io.mmwrite(buf, coo, field="real")
    return buf.getvalue().decode("ascii")


def labeled(values: Csr) -> CooccurrenceMatrix:
    return CooccurrenceMatrix(tuple(f"n {i}" for i in range(values.shape[0])),
                              tuple(f"v_{j}" for j in range(values.shape[1])), values)


def special_matrix() -> CooccurrenceMatrix:
    # 3 x 4, not symmetric: scipy writes symmetric matrices under 100 rows
    # as "symmetric", which save_matrix never does
    rows, cols = [0, 0, 1, 2, 2, 2], [0, 3, 1, 0, 2, 3]
    return labeled(Csr.from_triplets(rows, cols, SPECIAL_VALUES, (3, 4)))


@pytest.fixture(scope="module")
def mini_matrices(mini_corpus):
    config = PipelineConfig()
    couples = extract_corpus(mini_corpus, SCHEMES[config.scheme](root_only=config.root_only))
    # the README quick-start cuts
    return build_matrices(couples, Thresholds(sigma1=2.0, sigma2=0.5))


def cases(mini_matrices):
    return {"counts": mini_matrices.counts, "tfidf": mini_matrices.tfidf,
            "special": special_matrix()}


def test_save_matrix_is_byte_equal_to_mmwrite(mini_matrices, tmp_path):
    for name, m in cases(mini_matrices).items():
        assert m.shape[0] != m.shape[1] and m.values.nnz > 0, name
        save_matrix(m, tmp_path / f"{name}.mtx")
        written = (tmp_path / f"{name}.mtx").read_bytes().decode("ascii")
        assert written == mmwrite_text(m), name
    special = (tmp_path / "special.mtx").read_text()
    for spelled in ("1E-1", "1.2E1", "1E6", "1E-5", "1.5E-7", "1.2345678901234568E16"):
        assert f" {spelled}\n" in special


def test_load_matrix_round_trips(mini_matrices, tmp_path):
    for name, m in cases(mini_matrices).items():
        path = tmp_path / f"{name}.mtx"
        save_matrix(m, path)
        back = load_matrix(path)
        assert (back.row_labels, back.col_labels) == (m.row_labels, m.col_labels)
        assert back.values.shape == m.values.shape
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(back.values, field), getattr(m.values, field)), name


def test_load_matrix_reads_integer_files_and_sums_duplicates(tmp_path):
    path = tmp_path / "m.mtx"
    scipy.io.mmwrite(path, sp.coo_matrix(np.array([[0, 2, 0], [5, 0, 1]])), field="integer")
    assert "integer general" in path.read_text().splitlines()[0]
    save_matrix(labeled(Csr.from_triplets([0], [0], [1.0], (2, 3))), tmp_path / "labels.mtx")
    for suffix in (".rows", ".cols"):
        (tmp_path / f"m.mtx{suffix}").write_text((tmp_path / f"labels.mtx{suffix}").read_text())
    assert load_matrix(path).toarray().tolist() == [[0, 2, 0], [5, 0, 1]]
    path.write_text("%%MatrixMarket matrix coordinate real general\n% note\n"
                    "2 3 3\n1 2 1.5\n2 3 4\n1 2 1\n")
    assert load_matrix(path).toarray().tolist() == [[0, 2.5, 0], [0, 0, 4]]


@pytest.mark.parametrize("text, message", [
    ("%%MatrixMarket matrix array real general\n2 3\n", "header"),
    ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1\n", "header"),
    ("%%MatrixMarket matrix coordinate complex general\n2 3 1\n1 1 1 0\n", "header"),
    ("%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1\n", "header"),
    ("2 3 1\n1 1 1\n", "header"),
    ("%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 1\n", "declares 2 entries"),
    ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n2 2 2\n", "declares 1 entries"),
    ("%%MatrixMarket matrix coordinate real general\n2 3 1\n0 1 1\n", "out of range"),
    ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 0 1\n", "out of range"),
    ("%%MatrixMarket matrix coordinate real general\n2 3 1\n3 1 1\n", "out of range"),
    ("%%MatrixMarket matrix coordinate real general\n2 3 1\n1 4 1\n", "out of range"),
    ("%%MatrixMarket matrix coordinate real general\n2 3\n1 1 1\n", "size line"),
])
def test_load_matrix_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(ValueError, match=message) as info:
        load_matrix(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("entries, row_keys, message", [
    ("1 1 1\n2 2 nan\n", "a\nb\n", "row 1 (b) has non-finite values"),
    ("1 1 -inf\n2 2 1\n", "a\nb\n", "row 0 (a) has non-finite values"),
    # summing the repeated entry would make NaN, and numpy warn, first
    ("1 1 1\n2 2 inf\n2 2 -inf\n", "a\nb\n", "row 1 (b) has non-finite values"),
    ("1 1 1\n2 2 1\n", "a\na\n", "row 1 repeats the key 'a' of row 0"),
])
def test_load_matrix_names_the_row_of_a_bad_entry_or_key(tmp_path, entries, row_keys,
                                                        message):
    path = tmp_path / "bad.mtx"
    n = entries.count("\n")
    path.write_text(f"%%MatrixMarket matrix coordinate real general\n2 2 {n}\n{entries}")
    (tmp_path / "bad.mtx.rows").write_text(row_keys)
    (tmp_path / "bad.mtx.cols").write_text("x\ny\n")
    with pytest.raises(ValueError) as info:
        load_matrix(path)
    assert str(info.value) == f"{path}: {message}"

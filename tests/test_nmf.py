import numpy as np
import pytest

from termforge.matrices import CooccurrenceMatrix, Csr
from termforge.nmf import nmf
from test_matrices import counts_matrix


def oracle_updates(M, rank, n_steps, seed):
    """Reference multiplicative-update run, written out rule by rule.

    Same contract as the library: seeded uniform init drawing W before H,
    H updated before W inside a step, 1e-12 division guard."""
    M = np.asarray(M, dtype=float)
    rng = np.random.default_rng(seed)
    W = rng.random((M.shape[0], rank))
    H = rng.random((rank, M.shape[1]))
    for _ in range(n_steps):
        numer_h = W.T @ M
        denom_h = (W.T @ W) @ H + 1e-12
        H = H * (numer_h / denom_h)
        numer_w = M @ H.T
        denom_w = W @ (H @ H.T) + 1e-12
        W = W * (numer_w / denom_w)
    return W, H


def test_matches_reference_updates_on_seeded_instance():
    rng = np.random.default_rng(11)
    M = rng.random((20, 30)) * 4
    W_ref, H_ref = oracle_updates(M, rank=5, n_steps=40, seed=11)
    pair = nmf(counts_matrix(M), rank=5, max_iter=40, tol=0.0, seed=11)
    assert pair.iterations_run == 40
    assert np.max(np.abs(pair.W - W_ref)) < 1e-9
    assert np.max(np.abs(pair.H - H_ref)) < 1e-9
    err_ref = float(np.linalg.norm(M - W_ref @ H_ref, "fro"))
    assert abs(pair.final_error - err_ref) < 1e-9


def sparse_counts(seed, shape=(30, 40)):
    """Count-like matrix: about 80% zeros, small integer counts elsewhere."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(1, 6, size=shape).astype(float)
    counts[rng.random(shape) < 0.8] = 0.0
    return counts


def test_matches_reference_updates_on_sparse_counts():
    dense = sparse_counts(12)
    assert 0.75 < np.mean(dense == 0.0) < 0.85
    W_ref, H_ref = oracle_updates(dense, rank=6, n_steps=60, seed=12)
    pair = nmf(counts_matrix(dense), rank=6, max_iter=60, tol=0.0, seed=12)
    assert pair.iterations_run == 60
    assert np.max(np.abs(pair.W - W_ref)) < 1e-9
    assert np.max(np.abs(pair.H - H_ref)) < 1e-9
    err_ref = float(np.linalg.norm(dense - W_ref @ H_ref, "fro"))
    assert abs(pair.final_error - err_ref) < 1e-9


def test_matches_reference_updates_with_empty_rows_and_columns():
    dense = sparse_counts(5, shape=(12, 9))
    dense[[0, 6, 11]] = 0.0        # first, inner and last rows
    dense[:, [0, 4, 8]] = 0.0      # and columns
    W_ref, H_ref = oracle_updates(dense, rank=3, n_steps=30, seed=5)
    pair = nmf(counts_matrix(dense), rank=3, max_iter=30, tol=0.0, seed=5)
    assert np.max(np.abs(pair.W - W_ref)) < 1e-9
    assert np.max(np.abs(pair.H - H_ref)) < 1e-9


def test_cooccurrence_input_is_never_densified(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("nmf made the count matrix dense")

    for cls in (CooccurrenceMatrix, Csr):
        monkeypatch.setattr(cls, "toarray", refuse, raising=False)
        monkeypatch.setattr(cls, "todense", refuse, raising=False)
    pair = nmf(counts_matrix(sparse_counts(3)), rank=4, max_iter=50, tol=0.0, seed=3)
    assert pair.iterations_run == 50
    assert pair.final_error > 1.0   # far from an exact fit


def test_error_stays_non_increasing_near_an_exact_fit():
    # exactly factorizable instances run long enough that the error gets
    # close to zero, where the expanded form of the error cancels
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n, m = (int(v) for v in rng.integers(3, 30, size=2))
        k = int(rng.integers(1, 4))
        M = rng.random((n, k)) @ rng.random((k, m))
        history = nmf(counts_matrix(M), rank=k, max_iter=3000, tol=0.0, seed=seed).error_history
        for before, after in zip(history, history[1:]):
            assert after <= before + 1e-10, (seed, before, after)


@pytest.mark.parametrize("seed", range(8))
def test_error_history_is_non_increasing_and_factors_non_negative(seed):
    rng = np.random.default_rng(seed)
    M = rng.random((7, 9)) * 3
    pair = nmf(counts_matrix(M), rank=3, max_iter=25, tol=0.0, seed=seed)
    assert np.all(pair.W >= 0)
    assert np.all(pair.H >= 0)
    history = pair.error_history
    assert len(history) == pair.iterations_run + 1
    for before, after in zip(history, history[1:]):
        assert after <= before + 1e-10
    assert pair.final_error == history[-1]


def test_rank_one_structure_recovered_exactly():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])  # outer product, exactly rank 1
    pair = nmf(counts_matrix(M), rank=1, max_iter=500, tol=0.0, seed=0)
    assert pair.final_error < 1e-6


def test_tolerance_stops_early():
    rng = np.random.default_rng(2)
    M = rng.random((6, 6))
    eager = nmf(counts_matrix(M), rank=2, max_iter=500, tol=1e-3, seed=2)
    assert eager.iterations_run < 500
    improvement = (eager.error_history[-2] - eager.error_history[-1])
    assert improvement / eager.error_history[-2] < 1e-3


def test_all_zero_matrix():
    pair = nmf(counts_matrix(np.zeros((3, 4))), rank=2, max_iter=50, tol=0.0, seed=0)
    assert pair.final_error <= pair.error_history[0]
    assert np.all(pair.W >= 0) and np.all(pair.H >= 0)


def test_rank_clamped_with_warning(caplog):
    M = np.ones((3, 5))
    with caplog.at_level("WARNING", logger="termforge.nmf"):
        pair = nmf(counts_matrix(M), rank=10, max_iter=5, tol=0.0, seed=0)
    assert pair.W.shape == (3, 3)
    assert pair.H.shape == (3, 5)
    assert any("clamped" in r.message for r in caplog.records)


def test_result_is_logged(caplog):
    with caplog.at_level("INFO", logger="termforge.nmf"):
        pair = nmf(counts_matrix(np.ones((3, 5))), rank=10, max_iter=5, tol=0.0, seed=0)
    assert caplog.messages[-1] == (
        f"nmf: 3x5, rank 3: {pair.iterations_run} iterations, "
        f"final error {pair.final_error!r}")


def test_input_validation():
    with pytest.raises(ValueError, match="negative entries"):
        nmf(counts_matrix(np.array([[1.0, -0.5]])), rank=1)
    with pytest.raises(ValueError, match="rank must be >= 1"):
        nmf(counts_matrix(np.ones((2, 2))), rank=0)
    with pytest.raises(ValueError, match="max_iter must be >= 1, got 0"):
        nmf(counts_matrix(np.ones((2, 2))), rank=1, max_iter=0)
    for tol in (-1e-5, np.nan):
        with pytest.raises(ValueError, match="tol must be >= 0"):
            nmf(counts_matrix(np.ones((2, 2))), rank=1, tol=tol)
    with pytest.raises(ValueError, match="cannot factorize"):
        nmf(counts_matrix(np.zeros((0, 3))), rank=1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="NaN or inf"):
            nmf(counts_matrix([[bad, 1.0], [1.0, 1.0]]), rank=1)


def test_deterministic_for_fixed_seed():
    rng = np.random.default_rng(9)
    M = rng.random((8, 5))
    a = nmf(counts_matrix(M), rank=3, max_iter=15, tol=0.0, seed=42)
    b = nmf(counts_matrix(M), rank=3, max_iter=15, tol=0.0, seed=42)
    assert np.array_equal(a.W, b.W)
    assert np.array_equal(a.H, b.H)
    assert a.error_history == b.error_history

"""Non-negative matrix factorization by multiplicative updates.

Minimizes the Frobenius error ||M - WH||_F with the classic alternating
multiplicative update rules (Lee and Seung).  Both factors stay elementwise
non-negative by construction and the error is non-increasing across
iterations, which the tests assert step by step via ``error_history``.

The updates run on a ``CooccurrenceMatrix``'s values M, held in compressed
sparse rows, so a sparse count matrix is never made dense: W^T M and
H M^T = (M H^T)^T each gather a factor's columns at M's entries and sum them
per row of M^T or M (W is held transposed, so both gathers read contiguous
rows), and H M^T serves both the W update and the error.  The error comes
from the expansion

    ||M - WH||^2 = ||M||^2 - 2 <W, M H^T> + <W^T W, H H^T>,

which needs no n x m residual.  Near an exact fit the expansion is a small
difference of large terms and loses its last digits to cancellation; when it
falls below ``_EXPANSION_FLOOR`` * ||M||^2 the error is taken from the
residual itself instead, so the history stays non-increasing.

Initialization is seeded uniform in (0, 1): with ``rng = default_rng(seed)``,
W is drawn first, then H.  Oracle reruns rely on that order.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .matrices import CooccurrenceMatrix, Csr

log = logging.getLogger(__name__)

_EPS = 1e-12   # division guard; W, H stay strictly positive after init
_EXPANSION_FLOOR = 1e-6   # relative to ||M||^2; below it, use the residual


@dataclass(frozen=True)
class FactorPair:
    W: np.ndarray                     # n_rows x rank, >= 0
    H: np.ndarray                     # rank x n_cols, >= 0
    error_history: tuple[float, ...]  # error after init, then after each iteration

    @property
    def iterations_run(self) -> int:
        return len(self.error_history) - 1

    @property
    def final_error(self) -> float:
        return self.error_history[-1]


def _residual_norm(M: Csr, rows: np.ndarray, W: np.ndarray, H: np.ndarray) -> float:
    """||M - WH||_F from the dense residual; ``rows`` is ``M.row_ids()``."""
    residual = W @ H
    residual[rows, M.indices] -= M.data
    return float(np.linalg.norm(residual))


def _times_transpose(T: Csr, rank: int):
    """The product X -> X T^T for C-contiguous ``rank x T.shape[1]`` arrays X:
    X's columns are gathered at T's entries into a buffer made once, scaled by
    the entries, and summed per row of T."""
    # a zero entry after the last keeps every reduceat start inside the buffer
    indices = np.append(T.indices, 0)
    data = np.append(T.data, 0.0)
    starts = T.indptr[:-1]
    has_entries = np.diff(T.indptr) > 0
    gathered = np.empty((rank, T.nnz + 1))

    def product(X: np.ndarray) -> np.ndarray:
        # the indices are in range, so "clip" only skips numpy's bounds check
        X.take(indices, axis=1, out=gathered, mode="clip")
        np.multiply(gathered, data, out=gathered)
        out = np.add.reduceat(gathered, starts, axis=1)
        out *= has_entries   # reduceat gives an empty row the next entry, not 0
        return out

    return product


def nmf(m: CooccurrenceMatrix, rank: int = 100, max_iter: int = 500, tol: float = 1e-5,
        seed: int = 0) -> FactorPair:
    """Factorize the values of a co-occurrence matrix, which are checked
    non-negative and finite, as ``load_matrix`` reads files from outside;
    rank is clamped to the matrix dimensions (with a warning) when it
    exceeds them.

    Stops when the relative error improvement drops below ``tol`` or after
    ``max_iter`` iterations.
    """
    M = m.values
    if 0 in M.shape:
        raise ValueError(f"cannot factorize matrix of shape {M.shape}")
    if not np.all(np.isfinite(M.data)):
        raise ValueError("matrix has NaN or inf entries")
    if np.any(M.data < 0):
        raise ValueError("matrix has negative entries")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if max_iter < 1:   # zero iterations would return the random start as W
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not tol >= 0:   # "not >=" so that NaN fails too
        raise ValueError(f"tol must be >= 0, got {tol}")
    effective_rank = min(rank, *M.shape)
    if effective_rank < rank:
        log.warning("rank %d clamped to %d for %s matrix", rank, effective_rank, M.shape)

    times_mt = _times_transpose(M, effective_rank)               # H -> H M^T
    times_m = _times_transpose(M.transpose(), effective_rank)   # W^T -> W^T M
    rows = M.row_ids()
    norm_sq = float(M.data @ M.data)

    def error(Wt: np.ndarray, H: np.ndarray, HMt: np.ndarray, WtW: np.ndarray,
              HHt: np.ndarray) -> float:
        expansion = norm_sq - 2.0 * float(np.vdot(Wt, HMt)) + float(np.vdot(WtW, HHt))
        if expansion < _EXPANSION_FLOOR * norm_sq:
            return _residual_norm(M, rows, Wt.T, H)
        return float(np.sqrt(expansion))

    rng = np.random.default_rng(seed)
    Wt = np.ascontiguousarray(rng.random((M.shape[0], effective_rank)).T)
    H = rng.random((effective_rank, M.shape[1]))

    WtW = Wt @ Wt.T
    history = [error(Wt, H, times_mt(H), WtW, H @ H.T)]
    for _ in range(max_iter):
        H *= times_m(Wt) / (WtW @ H + _EPS)
        HMt = times_mt(H)
        HHt = H @ H.T
        Wt *= HMt / (HHt @ Wt + _EPS)
        WtW = Wt @ Wt.T
        err = error(Wt, H, HMt, WtW, HHt)
        history.append(err)
        prev = history[-2]
        if prev == 0.0:
            break
        if (prev - err) / prev < tol:
            break
    log.info("nmf: %dx%d, rank %d: %d iterations, final error %r",
             *M.shape, effective_rank, len(history) - 1, history[-1])
    return FactorPair(W=np.ascontiguousarray(Wt.T), H=H, error_history=tuple(history))

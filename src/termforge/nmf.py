"""Non-negative matrix factorization by multiplicative updates.

Minimizes the Frobenius error ||M - WH||_F with the classic alternating
multiplicative update rules (Lee and Seung).  Both factors stay elementwise
non-negative by construction and the error is non-increasing across
iterations, which the tests assert step by step via ``error_history``.

The updates run on a CSR copy of M, so a sparse count matrix is never made
dense: W^T M is computed as (M^T W)^T, and M H^T is one sparse-dense product
per iteration that serves both the W update and the error.  The error comes
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
import scipy.sparse as sp

from .matrices import CooccurrenceMatrix

log = logging.getLogger(__name__)

_EPS = 1e-12   # division guard; W, H stay strictly positive after init
_EXPANSION_FLOOR = 1e-6   # relative to ||M||^2; below it, use the residual


@dataclass(frozen=True)
class FactorPair:
    W: np.ndarray                     # n_rows x rank, >= 0
    H: np.ndarray                     # rank x n_cols, >= 0
    iterations_run: int
    final_error: float
    error_history: tuple[float, ...]  # error after init, then after each iteration


def _as_csr(m) -> sp.csr_matrix:
    """A float CSR copy of m with duplicate entries summed."""
    if isinstance(m, CooccurrenceMatrix):
        m = m.values
    if not sp.issparse(m):
        m = np.asarray(m, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"cannot factorize matrix of shape {m.shape}")
    M = sp.csr_matrix(m, dtype=float, copy=True)
    M.sum_duplicates()
    return M


def _residual_norm(M: sp.coo_matrix, W: np.ndarray, H: np.ndarray) -> float:
    """||M - WH||_F from the dense residual; M has no duplicate entries."""
    residual = W @ H
    residual[M.row, M.col] -= M.data
    return float(np.linalg.norm(residual))


def reconstruction_error(m, W: np.ndarray, H: np.ndarray) -> float:
    """Frobenius norm of M - WH."""
    M = _as_csr(m)
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    if W.shape[0] != M.shape[0] or H.shape[1] != M.shape[1] or W.shape[1] != H.shape[0]:
        raise ValueError(
            f"shape mismatch: M {M.shape}, W {W.shape}, H {H.shape}")
    return _residual_norm(M.tocoo(), W, H)


def nmf(m, rank: int = 100, max_iter: int = 500, tol: float = 1e-5,
        seed: int = 0) -> FactorPair:
    """Factorize a non-negative matrix; rank is clamped to the matrix
    dimensions (with a warning) when it exceeds them.

    Stops when the relative error improvement drops below ``tol`` or after
    ``max_iter`` iterations.
    """
    M = _as_csr(m)
    if 0 in M.shape:
        raise ValueError(f"cannot factorize matrix of shape {M.shape}")
    if not np.all(np.isfinite(M.data)):
        raise ValueError("matrix has NaN or inf entries")
    if np.any(M.data < 0):
        raise ValueError("matrix has negative entries")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    effective_rank = min(rank, *M.shape)
    if effective_rank < rank:
        log.warning("rank %d clamped to %d for %s matrix", rank, effective_rank, M.shape)

    Mt = M.T.tocsr()
    entries = M.tocoo()
    norm_sq = float(M.data @ M.data)

    def error(W: np.ndarray, H: np.ndarray, MHt: np.ndarray, WtW: np.ndarray,
              HHt: np.ndarray) -> float:
        expansion = norm_sq - 2.0 * float(np.vdot(W, MHt)) + float(np.vdot(WtW, HHt))
        if expansion < _EXPANSION_FLOOR * norm_sq:
            return _residual_norm(entries, W, H)
        return float(np.sqrt(expansion))

    rng = np.random.default_rng(seed)
    W = rng.random((M.shape[0], effective_rank))
    H = rng.random((effective_rank, M.shape[1]))

    WtW = W.T @ W
    history = [error(W, H, M @ H.T, WtW, H @ H.T)]
    iterations = 0
    for _ in range(max_iter):
        H *= (Mt @ W).T / (WtW @ H + _EPS)
        MHt = M @ H.T
        HHt = H @ H.T
        W *= MHt / (W @ HHt + _EPS)
        WtW = W.T @ W
        err = error(W, H, MHt, WtW, HHt)
        history.append(err)
        iterations += 1
        prev = history[-2]
        if prev == 0.0:
            break
        if (prev - err) / prev < tol:
            break
    return FactorPair(W=W, H=H, iterations_run=iterations,
                      final_error=history[-1], error_history=tuple(history))

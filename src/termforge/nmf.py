"""Non-negative matrix factorization by multiplicative updates.

Minimizes the Frobenius error ||M - WH||_F with the classic alternating
multiplicative update rules (Lee and Seung).  Both factors stay elementwise
non-negative by construction and the error is non-increasing across
iterations, which the tests assert step by step via ``error_history``.

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


@dataclass(frozen=True)
class FactorPair:
    W: np.ndarray                     # n_rows x rank, >= 0
    H: np.ndarray                     # rank x n_cols, >= 0
    iterations_run: int
    final_error: float
    error_history: tuple[float, ...]  # error after init, then after each iteration


def _as_dense(m) -> np.ndarray:
    if isinstance(m, CooccurrenceMatrix):
        return m.toarray()
    if sp.issparse(m):
        return np.asarray(m.todense(), dtype=float)
    return np.asarray(m, dtype=float)


def reconstruction_error(m, W: np.ndarray, H: np.ndarray) -> float:
    """Frobenius norm of M - WH."""
    M = _as_dense(m)
    W = np.asarray(W, dtype=float)
    H = np.asarray(H, dtype=float)
    if W.shape[0] != M.shape[0] or H.shape[1] != M.shape[1] or W.shape[1] != H.shape[0]:
        raise ValueError(
            f"shape mismatch: M {M.shape}, W {W.shape}, H {H.shape}")
    return float(np.linalg.norm(M - W @ H, "fro"))


def nmf(m, rank: int = 100, max_iter: int = 500, tol: float = 1e-5,
        seed: int = 0) -> FactorPair:
    """Factorize a non-negative matrix; rank is clamped to the matrix
    dimensions (with a warning) when it exceeds them.

    Stops when the relative error improvement drops below ``tol`` or after
    ``max_iter`` iterations.
    """
    M = _as_dense(m)
    if M.ndim != 2 or 0 in M.shape:
        raise ValueError(f"cannot factorize matrix of shape {M.shape}")
    if np.any(M < 0):
        raise ValueError("matrix has negative entries")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    effective_rank = min(rank, *M.shape)
    if effective_rank < rank:
        log.warning("rank %d clamped to %d for %s matrix", rank, effective_rank, M.shape)

    rng = np.random.default_rng(seed)
    W = rng.random((M.shape[0], effective_rank))
    H = rng.random((effective_rank, M.shape[1]))

    history = [float(np.linalg.norm(M - W @ H, "fro"))]
    iterations = 0
    for _ in range(max_iter):
        H *= (W.T @ M) / (W.T @ W @ H + _EPS)
        W *= (M @ H.T) / (W @ (H @ H.T) + _EPS)
        err = float(np.linalg.norm(M - W @ H, "fro"))
        history.append(err)
        iterations += 1
        prev = history[-2]
        if prev == 0.0:
            break
        if (prev - err) / prev < tol:
            break
    return FactorPair(W=W, H=H, iterations_run=iterations,
                      final_error=history[-1], error_history=tuple(history))


"""Dense symmetric eigensolving, leading singular pairs of long residual
panels, the eigenvalue-ratio rank check, annihilator projections, stacked
Grams, SPD solves, and the chi-squared survival function.

Everything here is a pure function of its inputs and safe to call from
multiple threads.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import (
    InvalidDomainError,
    NonFiniteError,
    NonSymmetricError,
    RankDeficientError,
)

#: relative eigenvalue cutoff below which a Gram matrix counts as singular
RANK_RTOL = 1e-12

#: relative asymmetry tolerated by :func:`top_sym_eigh`
SYMMETRY_RTOL = 1e-10


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip eigenvector columns so the largest-magnitude entry is positive."""
    if vectors.size == 0:
        return vectors
    idx = np.argmax(np.abs(vectors), axis=0)  # argmax takes the lowest index on ties
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _check_square_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise NonSymmetricError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains non-finite entries")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > SYMMETRY_RTOL * scale:
        raise NonSymmetricError("matrix is not symmetric within tolerance")
    return a


def top_sym_eigh(a: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest ``k`` eigenpairs of a symmetric matrix, descending order.

    Column ``j`` of the vectors is the unit eigenvector paired with
    ``values[j]``, sign-fixed so that its entry of largest magnitude is
    positive (ties broken by lowest index). ``k = m`` gives the full
    spectrum.

    Raises
    ------
    NonSymmetricError
        If the input is not square or its relative asymmetry exceeds
        ``SYMMETRY_RTOL``.
    NonFiniteError
        If the matrix contains NaN or infinity.
    """
    a = _check_square_symmetric(a)
    m = a.shape[0]
    if k < 0 or k > m:
        raise InvalidDomainError(f"k={k} outside [0, {m}]")
    if k == 0:
        return np.empty(0), np.empty((m, 0))
    values, vectors = scipy.linalg.eigh(a, subset_by_index=[m - k, m - 1])
    order = np.arange(len(values))[::-1]
    return values[order].copy(), _fix_signs(vectors[:, order])


def top_svd_pairs(u: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest ``k`` eigenpairs of u'u/N from the thin SVD of the N x T ``u``.

    Returns the same pairs as ``top_sym_eigh((u.T @ u) / N, k)`` without
    forming the T x T matrix: ``values = s**2 / N`` and the vectors are the
    leading right singular vectors, with the same sign convention. ``k``
    may be at most min(N, T). No division by a singular value is needed,
    so a rank-deficient ``u`` is safe.

    Raises
    ------
    NonFiniteError
        If ``u`` contains NaN or infinity.
    InvalidDomainError
        If ``u`` is not a matrix or ``k`` is outside [0, min(N, T)].
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise InvalidDomainError(f"expected a matrix, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NonFiniteError("matrix contains non-finite entries")
    n, t = u.shape
    if k < 0 or k > min(n, t):
        raise InvalidDomainError(f"k={k} outside [0, {min(n, t)}]")
    # gesdd takes its QR-first tall path on u' (T x N), not on the wide u
    v, s, _ = scipy.linalg.svd(u.T, full_matrices=False, check_finite=False)
    return s[:k] ** 2 / n, _fix_signs(v[:, :k])


def check_gram_rank(gram: np.ndarray, error: type[Exception], message: str) -> None:
    """Raise ``error(message)`` unless a symmetric Gram matrix has full rank.

    Rank is judged by the eigenvalue ratio: the smallest eigenvalue must
    exceed ``RANK_RTOL`` times the largest, which must be positive.
    """
    eig = np.linalg.eigvalsh(gram)
    if not (eig[0] > RANK_RTOL * eig[-1] and eig[-1] > 0):  # a NaN Gram fails
        raise error(message)


def annihilator_apply(f: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply M_F = I - F(F'F)^{-1}F' along the second-to-last axis of ``v``.

    ``f`` is T x k of full column rank (k = 0 copies ``v``); ``v`` is length T,
    T x n, or an N x T x d stack that matmul broadcasts over without moving
    an axis. Rank is judged by :func:`check_gram_rank`. The result is fresh and
    C-ordered, written into the buffer of F(F'F)^{-1}F'v; ``v`` is never written.
    The k x k inverse is applied to F' because a solve with T right-hand sides
    is ~10x slower in OpenBLAS at T = 1000, and no more accurate: both start
    from F'F, whose condition the rank check caps at 1e12.
    """
    f = np.asarray(f, dtype=float)
    v = np.asarray(v, dtype=float)
    if f.ndim != 2:
        raise RankDeficientError(f"factor matrix must be 2-d, got shape {f.shape}")
    if f.shape[1] == 0:
        return v.copy()
    if v.ndim == 0 or v.shape[-2 if v.ndim > 1 else 0] != f.shape[0]:
        raise RankDeficientError(
            f"row mismatch: factors have {f.shape[0]} rows, values have shape {v.shape}"
        )
    gram = f.T @ f
    check_gram_rank(gram, RankDeficientError, "factor matrix is numerically rank deficient")
    out = f @ ((np.linalg.inv(gram) @ f.T) @ v)
    return np.subtract(v, out, out=out)


def stacked_gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over units of A_i'B_i for N x T x d arrays, as one reshape and one GEMM."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def solve_spd(a: np.ndarray, b: np.ndarray, error: type[Exception]) -> np.ndarray:
    """Solve a x = b for symmetric positive-definite ``a``.

    Raises ``error`` when :func:`check_gram_rank` finds ``a`` singular, and
    :class:`NonFiniteError` for a ``b`` holding NaN or infinity.
    """
    a = np.asarray(a, dtype=float)
    check_gram_rank(a, error, "matrix is numerically singular")
    if not np.all(np.isfinite(b)):
        raise NonFiniteError("right-hand side contains non-finite entries")
    c, low = scipy.linalg.cho_factor(a)
    return scipy.linalg.cho_solve((c, low), b)


def chi2_sf(x: float, k: int) -> float:
    """Survival function P(chi-squared(k) > x).

    Q(k/2, x/2) is a finite sum for integer k. With z = x/2, even k gives
    exp(-z) sum_{j<k/2} z^j / j!, and odd k gives
    erfc(sqrt(z)) + exp(-z) sum_{j=1}^{(k-1)/2} z^(j-1/2) / Gamma(j+1/2).
    With a0 = 0 for even and 1/2 for odd k, each term is the one before
    times z / (a0 + j), so every step adds one rounding. Past x of about
    1490 exp(-z) underflows to zero, which drops a tail that is negligible
    unless k is close to x.

    Raises
    ------
    InvalidDomainError
        For x < 0 or k < 1.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise InvalidDomainError(f"degrees of freedom must be a positive integer, got {k}")
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise InvalidDomainError(f"chi2_sf requires x >= 0, got {x}")
    z = 0.5 * x
    if z == 0.0:  # includes subnormal x whose half underflows
        return 1.0
    a0 = 0.5 * (k % 2)
    total = math.erfc(math.sqrt(z)) if k % 2 else 0.0
    term = math.exp(-z) * z**a0 / math.gamma(a0 + 1.0)
    for j in range(k // 2):
        total += term
        term *= z / (a0 + j + 1.0)
    return min(1.0, total)

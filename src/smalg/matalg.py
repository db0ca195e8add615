"""Dense complex matrix layer for structural matrix algebras.

Matrices are plain complex128 numpy arrays.  The algebra of a quasi-order rho
is the set of matrices supported in rho; membership, stacks of members built
from given normals, the JSON entry pairs and the rank-one closure test live
here.
"""

from __future__ import annotations

import numpy as np

from ._checks import integer
from .quasiorder import QuasiOrder

__all__ = [
    "DEFAULT_REL_TOL",
    "in_sma",
    "entry_pairs",
    "matrix_unit",
    "lambda_matrix",
    "rank_one_closure_member",
]

# support/membership cutoff, relative to the largest entry magnitude
DEFAULT_REL_TOL = 1e-9


def _as_square(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise ValueError("matrix has non-finite entries")
    return A


def in_sma(A, rho: QuasiOrder) -> bool:
    """Whether A is zero off rho, each entry against DEFAULT_REL_TOL times
    the largest entry magnitude."""
    A = _as_square(A)
    return A.shape[0] == rho.n and bool(_in_sma_stack(A[None], rho)[0])


def _in_sma_stack(A, rho: QuasiOrder) -> np.ndarray:
    """in_sma on each matrix of a (B, n, n) stack, each with its own default
    cutoff; raises on non-finite entries.  A stack that is exactly zero off
    rho, as one built in the algebra is, is in it."""
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    if not np.any(A[:, ~rho.mask]):
        return np.ones(len(A), bool)
    absA = np.abs(A)
    cut = DEFAULT_REL_TOL * absA.max(axis=(1, 2), initial=0.0)
    return ~np.any(np.where(rho.mask, 0.0, absA) > cut[:, None, None], axis=(1, 2))


def entry_pairs(A) -> list:
    """A as nested lists of [re, im] float pairs, one per entry, in A's shape:
    the JSON form of a complex matrix.  A complex128 array viewed as float64
    holds exactly these pairs, so one tolist builds them."""
    A = np.ascontiguousarray(A, dtype=complex)
    return A.view(float).reshape(A.shape + (2,)).tolist()


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    n = integer(n, "n", least=1)
    E = np.zeros((n, n), dtype=complex)
    E[integer(i, "i", least=1, most=n) - 1, integer(j, "j", least=1, most=n) - 1] = 1.0
    return E


def lambda_matrix(n: int) -> np.ndarray:
    """diag(1, 2, ..., n)."""
    return np.diag(np.arange(1, integer(n, "n", least=1) + 1)).astype(complex)


def _sma_stack(rho: QuasiOrder, Z) -> np.ndarray:
    """Stack of elements of the algebra of rho from standard normals Z of shape
    (B, 2 n^2): the first n^2 of each row are the real parts, row-major, and
    the last n^2 the imaginary parts."""
    n = rho.n
    re, im = Z[:, : n * n].reshape(-1, n, n), Z[:, n * n:].reshape(-1, n, n)
    return np.where(rho.mask, re + 1j * im, 0.0)


def rank_one_closure_member(A, rho: QuasiOrder):
    """Whether a rank-one member A of the algebra lies in the closure of the
    rank-one non-nilpotents, i.e. whether A = ab* admits a pivot index k with
    a e_k* and e_k b* both supported in rho.  Membership, and A = 0, are read
    at the cutoff DEFAULT_REL_TOL * max|A_ij|.

    Returns (verdict, k) with k the first admissible pivot, or (verdict, None).
    Raises ValueError when A has rank greater than one.
    """
    A = _as_square(A)
    n = rho.n
    if A.shape[0] != n:
        raise ValueError("matrix size does not match the quasi-order")
    if not in_sma(A, rho):
        raise ValueError("matrix is not in the algebra of rho")
    sv = np.linalg.svd(A, compute_uv=False)
    cut = DEFAULT_REL_TOL * (np.max(np.abs(A)) if A.size else 0.0)
    if sv[0] <= cut:
        return True, None
    if n > 1 and sv[1] > max(cut, 1e-12 * sv[0]):
        raise ValueError("matrix has rank greater than one")

    # a = strongest column, b from the ratios along the strongest row of a
    jstar = int(np.argmax(np.linalg.norm(A, axis=0)))
    a = A[:, jstar]
    istar = int(np.argmax(np.abs(a)))
    b = np.conj(A[istar, :] / a[istar])
    # supports of a and b as bitmasks: a e_k* needs supp(a) inside rho^{-1}(k),
    # and e_k b* needs supp(b) inside rho(k)
    supp_a = sum(1 << i for i in range(n) if abs(a[i]) > DEFAULT_REL_TOL * abs(a[istar]))
    supp_b = sum(1 << j for j in range(n) if abs(b[j]) > DEFAULT_REL_TOL * np.max(np.abs(b)))
    for k in range(n):
        if not (supp_a & ~rho.cols[k] or supp_b & ~rho.rows[k]):
            return True, k + 1
    return False, None

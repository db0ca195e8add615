"""Dense complex matrix layer for structural matrix algebras.

Matrices are plain complex128 numpy arrays.  The algebra of a quasi-order rho
is the set of matrices supported in rho; membership, the row/column deletion
and insertion operators, characteristic polynomials, and the two structured
diagonalization routines live here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quasiorder import QuasiOrder, block_triangular_permutation

__all__ = [
    "DEFAULT_REL_TOL",
    "SmaDiagonalizationError",
    "support",
    "in_sma",
    "project_sma",
    "sharp",
    "flat",
    "char_poly",
    "entry_pairs",
    "matrix_unit",
    "lambda_matrix",
    "permutation_matrix",
    "permute_conjugate",
    "random_in_sma",
    "random_invertible",
    "NearbyDiagonalizable",
    "nearby_diagonalizable",
    "diagonalize_in_sma",
    "rank_one_closure_member",
]

# support/membership cutoff, relative to the largest entry magnitude
DEFAULT_REL_TOL = 1e-9


class SmaDiagonalizationError(RuntimeError):
    """In-algebra diagonalization failed; no silent fallback is attempted."""


def _as_square(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if not (np.all(np.isfinite(A.real)) and np.all(np.isfinite(A.imag))):
        raise ValueError("matrix has non-finite entries")
    return A


def _abs_tol(A, tol):
    if tol is not None:
        return tol
    top = np.max(np.abs(A)) if A.size else 0.0
    return DEFAULT_REL_TOL * top


def support(A, tol: float | None = None) -> frozenset:
    """Index pairs (1-based) where |A_ij| exceeds tol.

    tol=None applies the default cutoff relative to the largest entry; pass
    tol=0.0 for exact nonzero support.
    """
    A = _as_square(A)
    cut = _abs_tol(A, tol)
    ii, jj = np.nonzero(np.abs(A) > cut)
    return frozenset(zip((ii + 1).tolist(), (jj + 1).tolist()))


def in_sma(A, rho: QuasiOrder, tol: float | None = None) -> bool:
    """Whether supp(A) lies inside rho."""
    A = _as_square(A)
    return A.shape[0] == rho.n and bool(_in_sma_stack(A[None], rho, tol)[0])


def _in_sma_stack(A, rho: QuasiOrder, tol: float | None = None) -> np.ndarray:
    """in_sma on each matrix of a (B, n, n) stack, each with its own default
    cutoff; raises on non-finite entries."""
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix has non-finite entries")
    absA = np.abs(A)
    cut = DEFAULT_REL_TOL * absA.max(axis=(1, 2), initial=0.0) if tol is None else tol
    return ~np.any(np.where(rho.mask, 0.0, absA) > np.reshape(cut, (-1, 1, 1)), axis=(1, 2))


def project_sma(A, rho: QuasiOrder) -> np.ndarray:
    """Zero out all entries outside rho (exact membership by construction)."""
    A = _as_square(A)
    return np.where(rho.mask, A, 0.0)


def sharp(A, positions) -> np.ndarray:
    """Insert zero rows and columns so they land at the given 1-based positions
    of the enlarged matrix; inverse (on its range) of `flat` at the same set."""
    A = _as_square(A)
    pos = sorted(set(positions))
    m = A.shape[0] + len(pos)
    if pos and not (1 <= pos[0] and pos[-1] <= m):
        raise ValueError(f"insert positions must lie in [1,{m}]")
    keep = [t for t in range(1, m + 1) if t not in set(pos)]
    out = np.zeros((m, m), dtype=complex)
    out[np.ix_([k - 1 for k in keep], [k - 1 for k in keep])] = A
    return out


def flat(A, positions) -> np.ndarray:
    """Delete the rows and columns at the given 1-based positions."""
    A = _as_square(A)
    n = A.shape[0]
    pos = sorted(set(positions))
    if pos and not (1 <= pos[0] and pos[-1] <= n):
        raise ValueError(f"delete positions must lie in [1,{n}]")
    if len(pos) == n:
        raise ValueError("cannot delete every row and column")
    keep = [k - 1 for k in range(1, n + 1) if k not in set(pos)]
    return A[np.ix_(keep, keep)]


def char_poly(A) -> np.ndarray:
    """Monic characteristic polynomial det(xI - A), coefficients in descending
    powers, by the Faddeev-LeVerrier trace recursion in complex arithmetic.

    The recursion loses accuracy as n grows: on similar matrices A and SAS^-1
    the coefficients disagree by about 6e-13 relative at n=8 and 3e-5 at n=32.
    The sampling harness does not use it; it compares determinants instead."""
    A = _as_square(A)
    n = A.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    M = np.zeros_like(A)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        M = A @ M + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(A @ M) / k
    return coeffs


def entry_pairs(A) -> list:
    """A as nested lists of [re, im] float pairs, one per entry, in A's shape:
    the JSON form of a complex matrix.  A complex128 array viewed as float64
    holds exactly these pairs, so one tolist builds them."""
    A = np.ascontiguousarray(A, dtype=complex)
    return A.view(float).reshape(A.shape + (2,)).tolist()


def matrix_unit(n: int, i: int, j: int) -> np.ndarray:
    E = np.zeros((n, n), dtype=complex)
    E[i - 1, j - 1] = 1.0
    return E


def lambda_matrix(n: int) -> np.ndarray:
    """diag(1, 2, ..., n)."""
    return np.diag(np.arange(1, n + 1)).astype(complex)


def permutation_matrix(perm) -> np.ndarray:
    """R_perm = sum_k E_{k, perm(k)} for a 1-based permutation tuple."""
    n = len(perm)
    R = np.zeros((n, n), dtype=complex)
    for k, pk in enumerate(perm, start=1):
        R[k - 1, pk - 1] = 1.0
    return R


def permute_conjugate(A, perm, inverse: bool = False) -> np.ndarray:
    """R A R^{-1} for R = permutation_matrix(perm): entry (t,u) of the result
    is A[perm(t), perm(u)].  With inverse=True, apply the inverse conjugation."""
    A = _as_square(A)
    idx = np.asarray(perm, dtype=int) - 1
    if inverse:
        inv = np.empty_like(idx)
        inv[idx] = np.arange(len(idx))
        idx = inv
    return A[np.ix_(idx, idx)]


def _sma_stack(rho: QuasiOrder, Z, scale: float = 1.0) -> np.ndarray:
    """Stack of elements of the algebra of rho from standard normals Z of shape
    (B, 2 n^2): the first n^2 of each row are the real parts, row-major, and
    the last n^2 the imaginary parts."""
    n = rho.n
    re, im = Z[:, : n * n].reshape(-1, n, n), Z[:, n * n:].reshape(-1, n, n)
    return np.where(rho.mask, scale * (re + 1j * im), 0.0)


def random_in_sma(rho: QuasiOrder, rng, scale: float = 1.0) -> np.ndarray:
    """Random element of the algebra of rho with iid complex-normal entries on rho."""
    return _sma_stack(rho, rng.standard_normal((1, 2 * rho.n ** 2)), scale)[0]


def random_invertible(n: int, rng, max_cond: float = 100.0, max_tries: int = 64) -> np.ndarray:
    """Random complex matrix with condition number below max_cond."""
    for _ in range(max_tries):
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(S) <= max_cond:
            return S
    raise RuntimeError(f"no matrix with condition number <= {max_cond} after {max_tries} draws")


@dataclass(frozen=True)
class NearbyDiagonalizable:
    """An in-algebra eigendecomposition S diag(eigenvalues) S^{-1} close to the input."""

    S: np.ndarray
    eigenvalues: np.ndarray
    cond: float
    distance: float


def _distinct_diag_perturbation(d, eps, n):
    """Deterministic diagonal shifts k*t keeping total Frobenius change < eps/2
    and all perturbed values pairwise distinct with a gap of at least t/(2n)."""
    ks = np.arange(1, n + 1)
    t0 = eps / (2.0 * float(np.sqrt(np.sum(ks.astype(float) ** 2))))
    for m in range(4 * n * n + 1):
        t = t0 / (m + 1)
        cand = d + ks * t
        gaps = np.abs(cand[:, None] - cand[None, :])[~np.eye(n, dtype=bool)]
        if gaps.size == 0 or np.min(gaps) >= t / (2 * n):
            return cand
    raise RuntimeError("could not separate diagonal entries")  # unreachable in practice


def _triangular_eigenvectors(T, lam):
    """Eigenvector matrix of an upper-triangular T with pairwise distinct diagonal
    lam, by back-substitution; column k is supported on positions reaching k."""
    n = T.shape[0]
    V = np.zeros((n, n), dtype=complex)
    for k in range(n):
        V[k, k] = 1.0
        for j in range(k - 1, -1, -1):
            V[j, k] = T[j, j + 1 : k + 1] @ V[j + 1 : k + 1, k] / (lam[k] - T[j, j])
    return V


def nearby_diagonalizable(A, rho: QuasiOrder, eps: float) -> NearbyDiagonalizable:
    """Perturb A within the algebra of rho, by less than eps in Frobenius norm,
    into a matrix with n distinct eigenvalues diagonalized inside the algebra.

    Block-triangularize rho, Schur-triangularize each diagonal block, spread the
    diagonal by distinct multiples of a fixed step, and read the eigenvectors
    off the triangular form by back-substitution (their supports stay inside the
    permuted relation, so S lands in the algebra exactly).
    """
    import scipy.linalg  # loaded here: the CLI and the harness never need it

    if eps <= 0:
        raise ValueError("eps must be positive")
    A = _as_square(A)
    n = rho.n
    if A.shape[0] != n:
        raise ValueError("matrix size does not match the quasi-order")
    if not in_sma(A, rho):
        raise ValueError("matrix is not in the algebra of rho")

    off = A - np.diag(np.diag(A))
    if not np.any(off):
        d = np.diag(A).copy()
        if len(set(d.tolist())) == n:
            return NearbyDiagonalizable(np.eye(n, dtype=complex), d, 1.0, 0.0)
        lam = _distinct_diag_perturbation(d, eps, n)
        dist = float(np.linalg.norm(lam - d))
        return NearbyDiagonalizable(np.eye(n, dtype=complex), lam, 1.0, dist)

    bt = block_triangular_permutation(rho)
    perm = bt.perm
    B = permute_conjugate(A, perm)
    idx = np.array(perm) - 1
    mask_perm = rho.mask[np.ix_(idx, idx)]

    # per-block Schur, assembled into a global upper-triangular form
    U = np.zeros((n, n), dtype=complex)
    T = np.zeros((n, n), dtype=complex)
    starts = np.cumsum([0] + list(bt.sizes))
    spans = [slice(starts[b], starts[b + 1]) for b in range(len(bt.sizes))]
    for sp in spans:
        Tb, Ub = scipy.linalg.schur(B[sp, sp], output="complex")
        U[sp, sp] = Ub
        T[sp, sp] = Tb
    for a in range(len(spans)):
        for b in range(a + 1, len(spans)):
            T[spans[a], spans[b]] = (
                U[spans[a], spans[a]].conj().T @ B[spans[a], spans[b]] @ U[spans[b], spans[b]]
            )
    T = np.where(mask_perm, T, 0.0)

    d = np.diag(T).copy()
    gaps = np.abs(d[:, None] - d[None, :])[~np.eye(n, dtype=bool)]
    if gaps.size and np.min(gaps) > 0:
        lam = d
    else:
        lam = _distinct_diag_perturbation(d, eps, n)
    Theta = T.copy()
    np.fill_diagonal(Theta, lam)

    V = _triangular_eigenvectors(Theta, lam)
    Sp = np.where(mask_perm, U @ V, 0.0)
    S = permute_conjugate(Sp, perm, inverse=True)
    mu = np.empty(n, dtype=complex)
    for t, orig in enumerate(perm):
        mu[orig - 1] = lam[t]
    dist = float(np.linalg.norm(A - S @ np.diag(mu) @ np.linalg.inv(S)))
    return NearbyDiagonalizable(S, mu, float(np.linalg.cond(S)), dist)


def _eigen_clusters(w, ctol):
    """Group eigenvalue indices whose values agree within ctol."""
    order = np.argsort(w.real * 1e6 + w.imag)  # any deterministic order works
    clusters = []
    for idx in order:
        for cl in clusters:
            if abs(w[cl[0]] - w[idx]) <= ctol:
                cl.append(idx)
                break
        else:
            clusters.append([idx])
    return clusters


def diagonalize_in_sma(family, rho: QuasiOrder, tol: float = 1e-8,
                       seed: int = 0, max_tries: int = 8) -> np.ndarray:
    """Invertible S in the algebra of rho with S^{-1} M S diagonal for every M
    in the given commuting family of diagonalizable matrices.

    Takes a random generic linear combination C of the family, computes its
    eigenprojections (they lie in the algebra), assigns positions to eigenvalue
    clusters by maximum bipartite matching on the projections' diagonals, and
    assembles column i of S as the i-th column of its assigned projection.
    Postconditions are verified; on repeated failure raises
    SmaDiagonalizationError rather than falling back silently.
    """
    from scipy.sparse import csr_matrix  # loaded here: the CLI and the harness never need it
    from scipy.sparse.csgraph import maximum_bipartite_matching

    mats = [_as_square(M) for M in family]
    n = rho.n
    for M in mats:
        if M.shape[0] != n:
            raise ValueError("family member size does not match the quasi-order")
        if not in_sma(M, rho, tol):
            raise ValueError("family member is not in the algebra of rho")
    scale = max([1.0] + [float(np.linalg.norm(M)) for M in mats])
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            if np.linalg.norm(mats[a] @ mats[b] - mats[b] @ mats[a]) > tol * scale:
                raise ValueError("family is not commuting within tolerance")
    for M in mats:
        _, V = np.linalg.eig(M)
        if np.linalg.cond(V) > 1e8:
            raise ValueError("family member is not diagonalizable (ill-conditioned eigenbasis)")
    if not mats:
        return np.eye(n, dtype=complex)

    rng = np.random.default_rng(seed)
    failure = "exhausted retries"
    for _ in range(max_tries):
        coeffs = rng.standard_normal(len(mats)) + 1j * rng.standard_normal(len(mats))
        C = sum(c * M for c, M in zip(coeffs, mats))
        w, V = np.linalg.eig(C)
        if np.linalg.cond(V) > 1e10:
            failure = "combination had ill-conditioned eigenbasis"
            continue
        Vinv = np.linalg.inv(V)
        ctol = 1e-6 * max(1.0, float(np.max(np.abs(w))))
        clusters = _eigen_clusters(w, ctol)
        projections = [
            np.where(rho.mask, V[:, cl] @ Vinv[cl, :], 0.0) for cl in clusters
        ]

        # positions vs cluster slots (clusters expanded by multiplicity)
        slots = [c for c, cl in enumerate(clusters) for _ in cl]
        edges = np.zeros((n, len(slots)), dtype=bool)
        for s_idx, c in enumerate(slots):
            edges[:, s_idx] = np.abs(np.diag(projections[c])) > 1e-6
        match = maximum_bipartite_matching(csr_matrix(edges), perm_type="column")
        if np.any(match < 0):
            failure = "no perfect position-to-eigenvalue assignment"
            continue
        S = np.zeros((n, n), dtype=complex)
        for i in range(n):
            S[:, i] = projections[slots[match[i]]][:, i]
        if np.linalg.cond(S) > 1e10:
            failure = "assembled S was ill-conditioned"
            continue
        Sinv = np.linalg.inv(S)
        ok = True
        for M in mats:
            D = Sinv @ M @ S
            if np.linalg.norm(D - np.diag(np.diag(D))) > tol * max(1.0, float(np.linalg.norm(M))):
                ok = False
                failure = "conjugated family member was not diagonal"
                break
        if ok:
            return S
    raise SmaDiagonalizationError(f"in-algebra diagonalization failed: {failure}")


def rank_one_closure_member(A, rho: QuasiOrder, tol: float | None = None):
    """Whether a rank-one member A of the algebra lies in the closure of the
    rank-one non-nilpotents, i.e. whether A = ab* admits a pivot index k with
    a e_k* and e_k b* both supported in rho.

    Returns (verdict, k) with k the first admissible pivot, or (verdict, None).
    Raises ValueError when A has rank greater than one.
    """
    A = _as_square(A)
    n = rho.n
    if A.shape[0] != n:
        raise ValueError("matrix size does not match the quasi-order")
    if not in_sma(A, rho, tol):
        raise ValueError("matrix is not in the algebra of rho")
    sv = np.linalg.svd(A, compute_uv=False)
    cut = _abs_tol(A, tol)
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

"""Seeded generators of test inputs: random quasi-orders, invertible matrices
and transitive maps.  A helper module, not a test module: the tests import
it, and pytest does not collect it.

`random_transitive` solves the additive (log-space) form of the cocycle law
over the reals and exponentiates a seeded point of its solution space.
"""

import numpy as np

from smalg.cocycle import TransitiveMap, validate
from smalg.quasiorder import QuasiOrder, closure


def random_preorder(n: int, rng, p: float = 0.3) -> QuasiOrder:
    """Closure of a random off-diagonal pair set with inclusion probability p."""
    pairs = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j and rng.random() < p
    ]
    return closure(n, pairs)


def random_invertible(n: int, rng, max_cond: float = 100.0, max_tries: int = 64) -> np.ndarray:
    """Random complex matrix with condition number below max_cond."""
    for _ in range(max_tries):
        S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        if np.linalg.cond(S) <= max_cond:
            return S
    raise RuntimeError(f"no matrix with condition number <= {max_cond} after {max_tries} draws")


def _offdiag_index(rho: QuasiOrder):
    off = sorted(rho.off_diagonal)
    return off, {p: c for c, p in enumerate(off)}


def _constraint_matrix(rho: QuasiOrder):
    off, col = _offdiag_index(rho)
    by_first = {}
    for i, j in off:
        by_first.setdefault(i, []).append(j)
    rows = []
    for i, j in off:
        for k in by_first.get(j, ()):
            row = np.zeros(len(off))
            row[col[(i, j)]] += 1
            row[col[(j, k)]] += 1
            if i != k:
                row[col[(i, k)]] -= 1
            rows.append(row)
    if not rows:
        return np.zeros((0, len(off)))
    return np.array(rows)


def _coboundary_matrix(rho: QuasiOrder):
    off, _ = _offdiag_index(rho)
    D = np.zeros((len(off), rho.n))
    for r, (i, j) in enumerate(off):
        D[r, i - 1] += 1
        D[r, j - 1] -= 1
    return D


def _nullspace(M, rtol=1e-8):
    if M.shape[0] == 0:
        return np.eye(M.shape[1])
    # U is unused; a wide M needs the full Vh, whose extra rows span null vectors
    _, sv, Vh = np.linalg.svd(M, full_matrices=M.shape[0] < M.shape[1])
    cut = rtol * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > cut))
    return Vh[rank:].T



def random_transitive(rho: QuasiOrder, seed: int = 0, want_nontrivial: bool = False):
    """A seeded random transitive map with positive real values, or None when a
    nontrivial one is requested but the solution space is all coboundaries."""
    rng = np.random.default_rng(seed)
    off, _ = _offdiag_index(rho)
    if not off:
        return None if want_nontrivial else TransitiveMap.constant_one(rho)
    N = _nullspace(_constraint_matrix(rho))
    # x is the orthogonal projection of a seeded r, which does not depend on the
    # orthonormal basis the SVD returns (it varies with the BLAS thread count)
    r = rng.standard_normal(len(off))
    if want_nontrivial:
        D = _coboundary_matrix(rho)
        # orthonormal basis of the coboundary space, then the component of the
        # solution space orthogonal to it (columns of N are orthonormal)
        Ud, sd, _ = np.linalg.svd(D, full_matrices=False)
        Q = Ud[:, sd > 1e-8 * (sd[0] if sd.size and sd[0] > 0 else 1.0)]
        M = N - Q @ (Q.T @ N)
        U, sv, _ = np.linalg.svd(M, full_matrices=False)
        rank = int(np.sum(sv > 1e-8))
        if rank == 0:
            return None
        x = U[:, :rank] @ (U[:, :rank].T @ r)
        if np.linalg.norm(x) < 1e-12:
            x = U[:, 0]
    else:
        if N.shape[1] == 0:
            return TransitiveMap.constant_one(rho)
        x = N @ (N.T @ r)
    top = np.max(np.abs(x))
    if top > 0:
        x = x / top
    values = {p: np.exp(x[c]) for c, p in enumerate(off)}
    g = TransitiveMap(rho, values)
    ok, violation = validate(g)
    if not ok:
        raise RuntimeError(f"generated map failed the transitivity law at {violation}")
    return g

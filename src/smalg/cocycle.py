"""Transitive maps g : rho -> C^x and the entrywise automorphisms they induce.

A transitive map assigns a nonzero complex value to every pair of rho subject
to the multiplicative law g(i,j)g(j,k) = g(i,k) on composable pairs.  Trivial
maps are the ones separating through a point function s, g(i,j) = s(i)/s(j);
the generator solves the additive (log-space) constraint system over the reals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quasiorder import QuasiOrder
from .matalg import _in_sma_stack

__all__ = [
    "TransitiveMap",
    "Trivial",
    "Nontrivial",
    "validate",
    "triviality",
    "random_transitive",
    "nontrivial_gap",
    "induced_auto",
    "coboundary",
    "walk_product",
]


@dataclass(frozen=True)
class TransitiveMap:
    """Values on the pairs of rho; the diagonal is implied 1 when omitted."""

    rho: QuasiOrder
    values: dict

    def __post_init__(self):
        vals = {tuple(k): complex(v) for k, v in self.values.items()}
        for i in range(1, self.rho.n + 1):
            vals.setdefault((i, i), 1.0 + 0.0j)
        if set(vals) != self.rho.pairs:
            extra = set(vals) - self.rho.pairs
            missing = self.rho.pairs - set(vals)
            raise ValueError(f"values must cover rho exactly (extra={extra}, missing={missing})")
        for p, v in vals.items():
            if v == 0:
                raise ValueError(f"value at {p} must be nonzero")
        object.__setattr__(self, "values", vals)

    def __call__(self, i: int, j: int) -> complex:
        return self.values[(i, j)]

    @classmethod
    def constant_one(cls, rho: QuasiOrder) -> "TransitiveMap":
        return cls(rho, {p: 1.0 for p in rho.off_diagonal})

    def as_matrix(self) -> np.ndarray:
        G = np.zeros((self.rho.n, self.rho.n), dtype=complex)
        for (i, j), v in self.values.items():
            G[i - 1, j - 1] = v
        return G


@dataclass(frozen=True)
class Trivial:
    separator: dict  # index -> nonzero complex, g(i,j) = s(i)/s(j)


@dataclass(frozen=True)
class Nontrivial:
    walk: tuple  # closed walk as ((i,j), +1|-1) steps through pairs of rho
    product: complex  # alternating product along the walk, != 1


def walk_product(g: TransitiveMap, walk) -> complex:
    out = 1.0 + 0.0j
    for (i, j), exp in walk:
        out *= g(i, j) ** exp
    return out


def validate(g: TransitiveMap, tol: float = 1e-10):
    """Check the multiplicative law on every composable pair of pairs.

    Returns (True, None) or (False, ((i,j),(j,k))) with the first violation in
    lexicographic (i, j, k) order.  Row i compares g(i,j) g(j,k) with g(i,k)
    on the (j, k) grid of composable pairs, as arrays, in the real arithmetic
    of Python's complex product and abs, so that each comparison is the one a
    loop over complex scalars makes.
    """
    G, mask = g.as_matrix(), g.rho.mask
    a, b = G.real, G.imag
    with np.errstate(all="ignore"):  # overflow reads inf or NaN, silently, as in Python
        for i in range(g.rho.n):
            re = a[i, :, None] * a - b[i, :, None] * b - a[i]
            im = a[i, :, None] * b + b[i, :, None] * a - b[i]
            err = np.hypot(re, im) > tol * np.maximum(np.hypot(a[i], b[i]), 1.0)
            bad = mask[i, :, None] & mask & err
            if bad.any():
                j, k = divmod(int(np.argmax(bad)), g.rho.n)
                return False, ((i + 1, j + 1), (j + 1, k + 1))
    return True, None


def _sym_adjacency(rho: QuasiOrder):
    adj = {i: [] for i in range(1, rho.n + 1)}
    for i, j in rho.off_diagonal:
        adj[i].append(((i, j), +1, j))  # moving i -> j uses pair (i,j) forward
        adj[j].append(((i, j), -1, i))  # moving j -> i uses pair (i,j) backward
    for i in adj:
        adj[i].sort()
    return adj


def triviality(g: TransitiveMap, tol: float = 1e-8):
    """Decide whether g separates through a point function.

    BFS over the symmetrized graph assigns s per component (value 1 at the
    smallest index); if some pair of rho disagrees with s the tree paths close
    up into a walk whose alternating product differs from 1, which is returned
    as the nontriviality witness.
    """
    rho = g.rho
    adj = _sym_adjacency(rho)
    s = {}
    tree_walk = {}  # vertex -> walk from its component anchor
    for anchor in range(1, rho.n + 1):
        if anchor in s:
            continue
        s[anchor] = 1.0 + 0.0j
        tree_walk[anchor] = ()
        queue = [anchor]
        while queue:
            u = queue.pop(0)
            for pair, exp, v in adj[u]:
                if v in s:
                    continue
                s[v] = s[u] / g(*pair) ** exp
                tree_walk[v] = tree_walk[u] + ((pair, exp),)
                queue.append(v)
    for i, j in sorted(rho.pairs):
        expected = s[i] / s[j]
        if abs(g(i, j) - expected) > tol * max(abs(expected), 1.0):
            reversed_j = tuple((p, -e) for p, e in reversed(tree_walk[j]))
            walk = tree_walk[i] + (((i, j), +1),) + reversed_j
            return Nontrivial(walk, walk_product(g, walk))
    return Trivial(s)


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


def nontrivial_gap(rho: QuasiOrder) -> int:
    """Dimension of the (log-space) solution set modulo coboundaries; positive
    iff rho admits a nontrivial transitive map with positive real values."""
    off, _ = _offdiag_index(rho)
    if not off:
        return 0
    N = _nullspace(_constraint_matrix(rho))
    D = _coboundary_matrix(rho)
    nb = np.linalg.matrix_rank(D, tol=1e-8)
    return N.shape[1] - nb


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


def induced_auto(g: TransitiveMap):
    """The entrywise-scaling algebra automorphism X -> (g(i,j) X_ij) of the
    algebra of rho, on one matrix or a (B, n, n) stack; raises on inputs with
    support escaping rho."""
    G = g.as_matrix()
    rho = g.rho

    def apply(X):
        X = np.asarray(X, dtype=complex)
        n = rho.n
        if X.shape[-2:] != (n, n) or not np.all(_in_sma_stack(X.reshape(-1, n, n), rho)):
            raise ValueError("input is not in the algebra of rho")
        return G * np.where(rho.mask, X, 0)

    return apply


def coboundary(rho: QuasiOrder, s) -> TransitiveMap:
    """The trivial transitive map g(i,j) = s(i)/s(j) for a point function s."""
    svals = {i: complex(s[i]) for i in range(1, rho.n + 1)}
    if any(v == 0 for v in svals.values()):
        raise ValueError("separator values must be nonzero")
    return TransitiveMap(
        rho, {(i, j): svals[i] / svals[j] for (i, j) in rho.off_diagonal}
    )

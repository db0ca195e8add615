"""Transitive maps g : rho -> C^x and the entrywise automorphisms they induce.

A transitive map assigns a nonzero complex value to every pair of rho subject
to the multiplicative law g(i,j)g(j,k) = g(i,k) on composable pairs.  Trivial
maps are the ones separating through a point function s, g(i,j) = s(i)/s(j).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from ._checks import integer
from .quasiorder import QuasiOrder
from .matalg import _in_sma_stack

__all__ = [
    "TransitiveMap",
    "Trivial",
    "Nontrivial",
    "validate",
    "triviality",
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
        vals = {(integer(i, "index"), integer(j, "index")): complex(v)
                for (i, j), v in self.values.items()}
        for i in range(1, self.rho.n + 1):
            vals.setdefault((i, i), 1.0 + 0.0j)
        if set(vals) != self.rho.pairs:
            extra = set(vals) - self.rho.pairs
            missing = self.rho.pairs - set(vals)
            raise ValueError(f"values must cover rho exactly (extra={extra}, missing={missing})")
        for p, v in vals.items():
            if v == 0 or not cmath.isfinite(v):
                raise ValueError(f"value at {p} must be finite and nonzero, got {v}")
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


_LAW_TOL = 1e-10  # a g transitive in exact arithmetic rounds by a few eps per product


def validate(g: TransitiveMap):
    """Check the multiplicative law on every composable pair of pairs, to
    _LAW_TOL relative to |g(i,k)|, which is never 0.

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
            err = np.hypot(re, im) > _LAW_TOL * np.hypot(a[i], b[i])
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


def triviality(g: TransitiveMap):
    """Decide whether g separates through a point function.

    BFS over the symmetrized graph assigns s per component (value 1 at the
    smallest index); if some pair of rho disagrees with s the tree paths close
    up into a walk whose alternating product differs from 1, which is returned
    as the nontriviality witness.  A pair disagrees beyond 1e-8 relative; each
    s(v) is a product of fewer than n values of g, so a trivial g agrees to n eps.
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
        if abs(g(i, j) - expected) > 1e-8 * max(abs(expected), 1.0):
            reversed_j = tuple((p, -e) for p, e in reversed(tree_walk[j]))
            walk = tree_walk[i] + (((i, j), +1),) + reversed_j
            return Nontrivial(walk, walk_product(g, walk))
    return Trivial(s)


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

"""Known answers computed without smalg.

Quasi-orders are lists of bitmask rows: bit j of rows[i] is set iff the
1-based pair (i+1, j+1) lies in the relation.  Embedding images come straight
from the (S, g, P) parameters, one rank-one matrix per matrix unit.
"""

from __future__ import annotations

import numpy as np

# labeled preorders on n points and how many of them fail the criterion
CENSUS_COUNTS = {4: (355, 179), 5: (6942, 3815)}


def rows_from_pairs(n, pairs):
    rows = [0] * n
    for i, j in pairs:
        rows[i - 1] |= 1 << (j - 1)
    return rows


def pairs_of(rows):
    n = len(rows)
    return [[i + 1, j + 1] for i in range(n) for j in range(n) if rows[i] >> j & 1]


def close(rows):
    """Reflexive-transitive closure (Warshall on bitmask rows)."""
    n = len(rows)
    rows = [r | 1 << i for i, r in enumerate(rows)]
    for k in range(n):
        kbit, krow = 1 << k, rows[k]
        for i in range(n):
            if rows[i] & kbit:
                rows[i] |= krow
    return rows


def preorders(n):
    """Every quasi-order on n points, by filtering the off-diagonal subsets."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(off)):
        rows = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(off):
            if mask >> b & 1:
                rows[i] |= 1 << j
        if close(rows) == rows:
            yield rows


def _columns(rows):
    n = len(rows)
    cols = [0] * n
    for i, r in enumerate(rows):
        for j in range(n):
            if r >> j & 1:
                cols[j] |= 1 << i
    return cols


def criterion(rows):
    """(holds, witness) of the neighborhood-intersection criterion: each
    off-diagonal (i,j) needs |N(i) & N(j)| >= 3 with N(i) = rho(i) | rho^-1(i).
    The witness is the lexicographically first violating pair, 1-based."""
    nb = [r | c for r, c in zip(rows, _columns(rows))]
    n = len(rows)
    for i in range(n):
        for j in range(n):
            if i != j and rows[i] >> j & 1 and bin(nb[i] & nb[j]).count("1") < 3:
                return False, [i + 1, j + 1]
    return True, None


def classes(rows):
    """Classes of the symmetrized relation, each sorted, ordered by least member."""
    n = len(rows)
    adj = [r | c for r, c in zip(rows, _columns(rows))]
    seen = 0
    out = []
    for i in range(n):
        if seen >> i & 1:
            continue
        comp = frontier = 1 << i
        while frontier:
            k = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = adj[k] & ~comp
            comp |= new
            frontier |= new
        seen |= comp
        out.append([j + 1 for j in range(n) if comp >> j & 1])
    return out


def is_two_free(rows):
    return all(len(c) != 2 for c in classes(rows))


def is_symmetric(rows):
    return rows == _columns(rows)


def unit_image(S, Sinv, g, bit, i, j):
    """phi(E_ij) for phi(X) = S (P g*(X) + (I-P) g*(X)^t) S^-1, where `bit` is
    P's (equal) diagonal bit at i and j and `g` the map's value at (i,j)."""
    if bit:
        return g * np.outer(S[:, i - 1], Sinv[j - 1, :])
    return g * np.outer(S[:, j - 1], Sinv[i - 1, :])

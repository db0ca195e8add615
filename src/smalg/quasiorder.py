"""Quasi-orders on [1, n]: the combinatorial skeleton of a structural matrix algebra.

A quasi-order is a reflexive transitive relation rho on [1, n], stored as a
frozen set of 1-based index pairs.  `QuasiOrder` is the one home of the data
derived from rho: the constructor keeps the rows and columns as integer
bitmasks, and the off-diagonal pairs, the component classes and the boolean
support mask are each computed on first use and kept.  Everything in this
module is pure: values are immutable after construction and safe to share
across threads, because the cached values are immutable too and a race between
threads only computes one twice.  numpy is imported only when a mask is built,
so the combinatorics run without it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from ._checks import integer

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QuasiOrder",
    "Partition",
    "BlockTriangularization",
    "closure",
    "image",
    "preimage",
    "neighborhood",
    "components",
    "is_two_free",
    "condition_i",
    "is_symmetric",
    "block_triangular_permutation",
    "rank_one_density",
    "all_preorders",
]


def _bits(mask):
    """Positions (0-based, ascending) of the set bits of `mask`."""
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


def _members(mask) -> frozenset:
    """The 1-based indices whose bits are set in `mask`."""
    return frozenset(k + 1 for k in _bits(mask))


def _read_pairs(n: int, pairs):
    """The one reader of index pairs: `pairs` as a frozenset of Python-int pairs
    in [1, n]^2, and the rows and columns they fill as bitmasks.  An entry that
    is not a Python int must pass `integer`: numpy integers do, bools do not."""
    read, rows, cols = set(), [0] * n, [0] * n
    pair = pairs  # the pair being read when an error ends the loop
    try:
        for pair in pairs:
            i, j = pair
            if type(i) is not int or type(j) is not int:
                i, j = integer(i, "index"), integer(j, "index")
            if not (1 <= i <= n and 1 <= j <= n):
                break
            read.add((i, j))
            rows[i - 1] |= 1 << (j - 1)
            cols[j - 1] |= 1 << (i - 1)
        else:
            return frozenset(read), rows, cols
    except (TypeError, ValueError):  # a bad entry, a pair that is not a 2-sequence
        raise ValueError(f"pairs must be pairs of integers, got {pair!r}") from None
    raise ValueError(f"pair ({i},{j}) out of range for n={n}")


@dataclass(frozen=True)
class QuasiOrder:
    """A reflexive transitive relation on [1, n] (1-based pairs).

    ``rows[i-1]`` and ``cols[i-1]`` hold rho(i) and rho^{-1}(i) as bitmasks (bit
    j-1 set iff j is in the set); like the cached values they take no part in
    ==, hash or repr.
    """

    n: int
    pairs: frozenset = field(default_factory=frozenset)
    rows: tuple = field(init=False, repr=False, compare=False)
    cols: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = integer(self.n, "n", least=1)
        object.__setattr__(self, "n", n)
        pairs, rows, cols = _read_pairs(n, self.pairs)
        object.__setattr__(self, "pairs", pairs)
        for i in range(n):
            if not rows[i] >> i & 1:
                raise ValueError(f"not reflexive: missing ({i + 1},{i + 1})")
        for i, j in pairs:
            # transitivity: row j must be contained in row i
            if gap := rows[j - 1] & ~rows[i - 1]:
                k = gap.bit_length()
                raise ValueError(f"not transitive: ({i},{j}),({j},{k}) but not ({i},{k})")
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "cols", tuple(cols))

    @cached_property
    def off_diagonal(self) -> frozenset:
        """rho^x = rho minus the diagonal."""
        return frozenset(p for p in self.pairs if p[0] != p[1])

    @cached_property
    def _classes(self) -> Partition:
        """The component classes; `components` is their one reader."""
        nb = [r | c for r, c in zip(self.rows, self.cols)]
        blocks, seen = [], 0
        for i in range(self.n):
            if seen >> i & 1:
                continue
            comp, grow = 0, 1 << i
            while grow:
                comp |= grow
                for k in _bits(grow):
                    grow |= nb[k]
                grow &= ~comp
            seen |= comp
            blocks.append(_members(comp))
        return Partition(self.n, blocks)

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only boolean n x n support pattern: mask[i-1, j-1] iff (i,j) in rho."""
        import numpy as np

        mask = np.zeros((self.n, self.n), dtype=bool)
        i, j = np.array(list(self.pairs)).T - 1
        mask[i, j] = True
        mask.flags.writeable = False
        return mask

    @classmethod
    def diagonal(cls, n: int) -> "QuasiOrder":
        n = integer(n, "n", least=1)
        return cls(n, frozenset((i, i) for i in range(1, n + 1)))

    @classmethod
    def full(cls, n: int) -> "QuasiOrder":
        n = integer(n, "n", least=1)
        return cls(n, frozenset(itertools.product(range(1, n + 1), repeat=2)))


@dataclass(frozen=True)
class Partition:
    """Disjoint index blocks covering [1, n]."""

    n: int
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "n", integer(self.n, "n", least=1))
        object.__setattr__(self, "blocks", tuple(frozenset(b) for b in self.blocks))
        seen = set()
        for b in self.blocks:
            if seen & b:
                raise ValueError("blocks are not pairwise disjoint")
            seen |= b
        if seen != set(range(1, self.n + 1)):
            raise ValueError("blocks do not cover [1, n]")

    def __len__(self):
        return len(self.blocks)


def closure(n: int, pairs) -> QuasiOrder:
    """The smallest quasi-order containing `pairs`, by Warshall on bitmask rows."""
    n = integer(n, "n", least=1)
    rows = [r | 1 << i for i, r in enumerate(_read_pairs(n, pairs)[1])]
    for k in range(n):
        for i in range(n):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return QuasiOrder(n, frozenset(
        (i + 1, j + 1) for i in range(n) for j in range(n) if rows[i] >> j & 1))


def image(rho: QuasiOrder, i: int) -> frozenset:
    """rho(i) = all j with (i,j) in rho."""
    i = integer(i, "i", least=1, most=rho.n)
    return _members(rho.rows[i - 1])


def preimage(rho: QuasiOrder, i: int) -> frozenset:
    """rho^{-1}(i) = all j with (j,i) in rho."""
    i = integer(i, "i", least=1, most=rho.n)
    return _members(rho.cols[i - 1])


def neighborhood(rho: QuasiOrder, i: int) -> frozenset:
    """rho(i) union rho^{-1}(i)."""
    i = integer(i, "i", least=1, most=rho.n)
    return _members(rho.rows[i - 1] | rho.cols[i - 1])


def components(rho: QuasiOrder) -> Partition:
    """Classes of the symmetrized-and-transitively-closed relation on [1, n],
    in order of smallest member; computed once per order and kept."""
    return rho._classes


def _mutual_masks(rho: QuasiOrder) -> list:
    """Bitmask of each mutual class (rows[i] & cols[i] is the class of i + 1),
    in order of smallest member."""
    return [c for i, c in enumerate(r & c for r, c in zip(rho.rows, rho.cols))
            if c & -c == 1 << i]


def is_two_free(rho: QuasiOrder) -> bool:
    """True iff no component class has exactly two elements."""
    return all(len(c) != 2 for c in components(rho).blocks)


def condition_i(rho: QuasiOrder):
    """Neighborhood-intersection criterion deciding whether every continuous
    injective commutativity-and-spectrum preserver on the algebra of `rho` is a
    Jordan embedding.

    Returns ``(True, None)`` when for every off-diagonal (i,j) in rho the sets
    rho(i) u rho^{-1}(i) and rho(j) u rho^{-1}(j) share at least 3 indices, else
    ``(False, (i,j))`` with the lexicographically first violating pair.
    """
    nb = [r | c for r, c in zip(rho.rows, rho.cols)]
    for i, row in enumerate(rho.rows):
        for j in _bits(row & ~(1 << i)):
            if (nb[i] & nb[j]).bit_count() < 3:
                return False, (i + 1, j + 1)
    return True, None


def is_symmetric(rho: QuasiOrder) -> bool:
    """True iff (i,j) in rho implies (j,i) in rho; equivalently the algebra is semisimple."""
    return rho.rows == rho.cols


@dataclass(frozen=True)
class BlockTriangularization:
    """A permutation placing the mutual classes of rho in block upper-triangular position.

    ``perm[t-1]`` is the original index sitting at new position t; with
    R_perm = sum_k E_{k, perm(k)}, conjugation A -> R A R^{-1} carries the
    algebra of rho between diag(M_{k_1},...,M_{k_p}) and the full block
    upper-triangular algebra with these block sizes.  ``upper_exact`` records
    whether the upper inclusion is an equality.
    """

    perm: tuple
    sizes: tuple
    upper_exact: bool


def block_triangular_permutation(rho: QuasiOrder) -> BlockTriangularization:
    """Group mutual classes contiguously along a linear extension of the class order.

    Each step places the class with the smallest member among those whose
    predecessors are all placed, so the output is deterministic.  Both
    sandwich inclusions are re-verified on the way; a failure there raises
    RuntimeError (a bug, not bad input).
    """
    rows, cols = rho.rows, rho.cols
    classes = _mutual_masks(rho)
    perm, sizes, placed = [], [], 0
    while classes:
        for t, c in enumerate(classes):
            # every predecessor of the class is placed already or in the class
            if cols[(c & -c).bit_length() - 1] & ~placed == c:
                break
        else:
            raise RuntimeError("class order contains a cycle across distinct mutual classes")
        del classes[t]
        members = _bits(c)
        if any(rows[i] & c != c for i in members):
            raise RuntimeError("sandwich failure: diagonal block not inside relation")
        if any(rows[i] & placed for i in members):
            raise RuntimeError("sandwich failure: relation escapes block upper-triangular pattern")
        perm.extend(i + 1 for i in members)
        sizes.append(len(members))
        placed |= c
    # pairs of the block upper-triangular pattern: sum of ka * kb over a <= b
    count_upper = (rho.n ** 2 + sum(k * k for k in sizes)) // 2
    return BlockTriangularization(tuple(perm), tuple(sizes), len(rho.pairs) == count_upper)


def rank_one_density(rho: QuasiOrder) -> bool:
    """Whether rank-one non-nilpotents are dense among the rank-one matrices of
    the algebra of rho.

    The defining criterion quantifies over pairs of subsets S, T with
    S x T inside rho; it collapses to the maximal T for each S:  with
    T_max(S) = intersection of rho(i) over i in S, a witness k in T_max(S)
    covering T_max(S) (that is, T_max(S) inside rho(k)) also covers every
    smaller T.  The values T_max(S) over all nonempty S are exactly the rows
    of rho and their intersections, so they are built as the closure of the
    bitmask rows under AND, and each distinct member is checked once.  The
    closure has at most 2^n - 1 members, one per subset at worst, and far
    fewer on most patterns.  The test suite checks this reduction against a
    direct scan over all (S, T) pairs and against the scan over all S.
    """
    n = rho.n
    if n > 24:
        raise ValueError("rank-one density is capped at n=24")
    rows = rho.rows
    meets = set()
    for r in rows:
        meets |= {t & r for t in meets}
        meets.add(r)
    return all(
        t == 0 or any(t & ~rows[k] == 0 for k in _bits(t)) for t in meets
    )


def _extensions(rows, m):
    """Row tuples of the preorders on m + 1 points (0-based, new point m) that
    restrict to the preorder with bitmask `rows` on the first m points.

    The new point's image U must be up-closed and its preimage D down-closed
    (the complement of an up-closed set), and d -> m -> u forces U inside
    rows[d] for every d in D.
    """
    full = (1 << m) - 1
    # union and intersection of the rows over each subset S of [0, m)
    join, meet = [0] * (1 << m), [full] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        r = rows[low.bit_length() - 1]
        join[s] = join[s ^ low] | r
        meet[s] = meet[s ^ low] & r
    ups = [s for s in range(1 << m) if join[s] == s]
    bit = 1 << m
    for down in (full ^ s for s in ups):
        grown = tuple(r | bit if down >> i & 1 else r for i, r in enumerate(rows))
        for up in ups:
            if up & ~meet[down] == 0:
                yield grown + (up | bit,)


def all_preorders(n: int):
    """Yield every quasi-order on [1, n] (1, 4, 29, 355, 6942, 209527 for n = 1..6).

    The preorders on m + 1 points are built from those on m points by
    `_extensions`, on bitmask rows.  They are yielded in increasing order of
    the off-diagonal bitmask over the pairs (i, j), i != j, taken row-major:
    that is the lexicographic order of the reversed row tuples.  Each is built
    through the validating constructor only when it is yielded.  The list of
    the last level is held in memory (209527 row tuples at n=6); the count
    grows about 30x per point.
    """
    n = integer(n, "n", least=1)
    level = [()]
    for m in range(n):
        level = [ext for rows in level for ext in _extensions(rows, m)]
    level.sort(key=lambda rows: rows[::-1])
    for rows in level:
        yield QuasiOrder(n, frozenset(
            (i + 1, j + 1) for i, r in enumerate(rows) for j in _bits(r)))


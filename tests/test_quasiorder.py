import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smalg.quasiorder import (
    BlockTriangularization,
    Partition,
    QuasiOrder,
    all_preorders,
    block_triangular_permutation,
    closure,
    components,
    condition_i,
    image,
    is_symmetric,
    is_two_free,
    neighborhood,
    preimage,
    rank_one_density,
)

from generators import random_preorder
from lemmas import upper_triangular


@st.composite
def preorders(draw, max_n=5):
    n = draw(st.integers(1, max_n))
    pairs = draw(st.sets(
        st.tuples(st.integers(1, n), st.integers(1, n)), max_size=n * n))
    return closure(n, pairs)


def diag(n):
    return QuasiOrder.diagonal(n)


def rank_one_density_naive(rho):
    """Direct scan over all nonempty S, T with S x T inside rho (small n only):
    the reference that `rank_one_density` is checked against."""
    n = rho.n
    if n > 12:
        raise ValueError("naive scan capped at n=12")
    rows = rho.rows
    idx = range(n)
    for s_mask in range(1, 1 << n):
        for t_mask in range(1, 1 << n):
            if any(s_mask >> i & 1 and t_mask & ~rows[i] for i in idx):
                continue
            ok = any(
                all(rows[i] >> k & 1 for i in idx if s_mask >> i & 1)
                and all(rows[k] >> j & 1 for j in idx if t_mask >> j & 1)
                for k in idx
            )
            if not ok:
                return False
    return True


def rank_one_density_subset_scan(rho):
    """The T_max(S) check run over every nonempty subset S (2^n of them):
    the second reference for `rank_one_density`, usable up to n of about 18."""
    n = rho.n
    rows = rho.rows
    full = (1 << n) - 1
    for s_mask in range(1, 1 << n):
        tmax = full
        m = s_mask
        while m:
            k = (m & -m).bit_length() - 1
            tmax &= rows[k]
            m &= m - 1
        if tmax and not any(tmax >> k & 1 and tmax & ~rows[k] == 0 for k in range(n)):
            return False
    return True


def bipartite(n, arcs):
    """Preorder with arcs from source points to sink points only (already closed)."""
    return QuasiOrder(n, frozenset((i, i) for i in range(1, n + 1)) | frozenset(arcs))


@st.composite
def bipartite_preorders(draw, max_n=7):
    """Arcs from points 1..s to points s+1..n: dense rank one fails exactly when
    two sources share two sinks, so these draws give both verdicts."""
    n = draw(st.integers(2, max_n))
    s = draw(st.integers(1, n - 1))
    arcs = draw(st.sets(st.tuples(st.integers(1, s), st.integers(s + 1, n))))
    return bipartite(n, arcs)


def crown(k):
    """Sources 1..k and sinks k+1..2k with i -> k+j for every j != i: the
    intersections of the source rows are the 2^k sink sets, and for k >= 4 some
    of them hold two sinks that no point covers."""
    return bipartite(2 * k, {(i, k + j) for i in range(1, k + 1)
                         for j in range(1, k + 1) if j != i})


class TestConstruction:
    def test_reflexivity_enforced(self):
        with pytest.raises(ValueError, match="reflexive"):
            QuasiOrder(2, frozenset({(1, 1)}))

    def test_transitivity_enforced(self):
        with pytest.raises(ValueError, match="transitive"):
            QuasiOrder(3, frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)}))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            closure(3, {(1, 4)})

    def test_closure_of_empty_is_diagonal(self):
        assert closure(3, set()) == diag(3)

    def test_closure_forces_composite(self):
        rho = closure(3, {(1, 2), (2, 3)})
        assert rho.pairs == diag(3).pairs | {(1, 2), (2, 3), (1, 3)}

    def test_already_closed_unchanged(self, cocycle7):
        assert closure(7, cocycle7.pairs) == cocycle7

    @given(preorders())
    def test_closure_idempotent(self, rho):
        assert closure(rho.n, rho.pairs) == rho


class TestDerivedData:
    def test_rows_and_cols_match_pairs(self, cocycle7):
        for i in range(1, 8):
            assert {j for j in range(1, 8) if cocycle7.rows[i - 1] >> (j - 1) & 1} \
                == {j for (a, j) in cocycle7.pairs if a == i}
            assert {j for j in range(1, 8) if cocycle7.cols[i - 1] >> (j - 1) & 1} \
                == {j for (j, b) in cocycle7.pairs if b == i}

    @given(preorders(max_n=8))
    def test_bitmask_reads_match_pair_scans(self, rho):
        n, pairs = rho.n, rho.pairs
        for i in range(1, n + 1):
            assert image(rho, i) == {j for (a, j) in pairs if a == i}
            assert preimage(rho, i) == {j for (j, b) in pairs if b == i}
        nb = {i: image(rho, i) | preimage(rho, i) for i in range(1, n + 1)}
        bad = [(i, j) for (i, j) in sorted(rho.off_diagonal) if len(nb[i] & nb[j]) < 3]
        assert condition_i(rho) == ((False, bad[0]) if bad else (True, None))
        assert is_symmetric(rho) == all((j, i) in pairs for (i, j) in pairs)
        linked = closure(n, pairs | {(j, i) for (i, j) in pairs})
        assert set(components(rho).blocks) == {image(linked, i) for i in range(1, n + 1)}

    def test_numpy_integer_pairs(self, cocycle7):
        rho = QuasiOrder(7, {(np.int64(i), np.int64(j)) for i, j in cocycle7.pairs})
        assert rho == cocycle7 and rho.rows == cocycle7.rows
        assert all(type(r) is int for r in rho.rows + rho.cols)
        assert condition_i(rho) == condition_i(cocycle7)

    def test_mask_is_cached_and_read_only(self, fan4):
        mask = fan4.mask
        assert mask is fan4.mask
        assert mask.dtype == bool and mask.shape == (4, 4)
        assert {(i + 1, j + 1) for i, j in zip(*mask.nonzero())} == fan4.pairs
        with pytest.raises(ValueError):
            mask[0, 1] = True
        assert not fan4.mask[0, 1]

    def test_off_diagonal_is_cached(self, fan4):
        off = fan4.off_diagonal
        assert off is fan4.off_diagonal
        assert off == {(i, j) for i, j in fan4.pairs if i != j}

    def test_classes_are_built_once_per_order(self, two_blocks6, monkeypatch):
        # components, is_two_free and central_idempotents share one Partition
        import smalg.quasiorder as qo
        from smalg.jordan import central_idempotents

        built = []

        def counted(*args):
            built.append(Partition(*args))
            return built[-1]

        monkeypatch.setattr(qo, "Partition", counted)
        first = components(two_blocks6)
        assert is_two_free(two_blocks6)
        assert len(central_idempotents(two_blocks6)) == 4
        assert components(two_blocks6) is first and built == [first]

    def test_cached_data_keeps_value_semantics(self, cocycle7):
        used = closure(7, cocycle7.pairs)
        used.mask, used.off_diagonal, components(used)
        fresh = closure(7, cocycle7.pairs)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert len({used, fresh}) == 1

    def test_analysis_of_all_four_point_preorders_pinned(self):
        # sha256 captured before the derived data moved onto QuasiOrder
        h = hashlib.sha256()
        count = 0
        for rho in all_preorders(4):
            holds, witness = condition_i(rho)
            bt = block_triangular_permutation(rho)
            # the classes of i ~ j iff (i, j) and (j, i) lie in rho, by smallest member
            mutual = sorted({tuple(j for j in range(1, 5) if {(i, j), (j, i)} <= rho.pairs)
                             for i in range(1, 5)})
            h.update(json.dumps([
                sorted(rho.pairs), holds, witness,
                [sorted(c) for c in components(rho).blocks],
                mutual,
                is_symmetric(rho), bt.perm, bt.sizes, bt.upper_exact,
            ]).encode() + b"\n")
            count += 1
        assert count == 355
        assert h.hexdigest() == "1ddf72aa41d392d9985df8ab53c8469aca22055c9c2f93136a1cfb5e0fc86639"


class TestImagePreimage:
    def test_cocycle7_neighborhood(self, cocycle7):
        assert neighborhood(cocycle7, 1) == {1, 3, 4, 5, 6, 7}

    def test_diagonal_image(self):
        assert image(diag(5), 3) == {3}
        assert preimage(diag(5), 3) == {3}

    def test_fan_image(self, fan4):
        assert image(fan4, 1) == {1, 3, 4}

    def test_out_of_range(self, fan4):
        with pytest.raises(ValueError):
            image(fan4, 5)


class TestComponents:
    def test_two_blocks(self, two_blocks6):
        assert set(components(two_blocks6).blocks) == {
            frozenset({1, 2, 3}), frozenset({4, 5, 6})}

    def test_diagonal_singletons(self):
        assert len(components(diag(4))) == 4

    def test_fan_single_class(self, fan4):
        assert components(fan4).blocks == (frozenset({1, 2, 3, 4}),)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition(3, ({1, 2}, {2, 3}))
        with pytest.raises(ValueError):
            Partition(3, ({1, 2},))


class TestPredicates:
    def test_t2_not_two_free(self):
        assert not is_two_free(closure(2, {(1, 2)}))

    def test_diagonal_two_free(self):
        assert is_two_free(diag(5))

    def test_cocycle7_two_free(self, cocycle7):
        assert is_two_free(cocycle7)

    def test_condition_cocycle7(self, cocycle7):
        assert condition_i(cocycle7) == (True, None)

    def test_condition_fan_witness(self, fan4):
        holds, witness = condition_i(fan4)
        assert not holds and witness == (1, 3)
        assert neighborhood(fan4, 1) & neighborhood(fan4, 3) == {1, 3}

    def test_condition_diagonal_vacuous(self):
        assert condition_i(diag(6)) == (True, None)

    def test_symmetric(self, two_blocks6, cocycle7):
        assert is_symmetric(two_blocks6)
        assert not is_symmetric(closure(2, {(1, 2)}))
        assert not is_symmetric(cocycle7)  # (1,3) in, (3,1) out

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_condition_holds_over_t_n(self, n):
        # the earlier theorems as special cases: every preorder containing the
        # total order T_n is T_n closed with some of the pairs (i+1, i), and
        # the criterion holds on each of the 2^(n-1), as Petek and Semrl need
        # n >= 3
        steps = [(i + 1, i) for i in range(1, n)]
        seen = set()
        for picked in itertools.product((False, True), repeat=n - 1):
            rho = closure(n, upper_triangular(n).pairs
                          | {p for p, on in zip(steps, picked) if on})
            assert condition_i(rho) == (True, None), sorted(rho.off_diagonal)
            seen.add(rho.pairs)
        assert len(seen) == 2 ** (n - 1)

    @pytest.mark.parametrize("rho", [QuasiOrder.full(2), upper_triangular(2)], ids=["M2", "T2"])
    def test_condition_fails_on_two_points(self, rho):
        assert condition_i(rho) == (False, (1, 2))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_condition_implies_two_free(self, n):
        for rho in all_preorders(n):
            if condition_i(rho)[0]:
                assert is_two_free(rho), sorted(rho.off_diagonal)


def conjugated(rho, perm):
    return frozenset(
        (perm.index(i) + 1, perm.index(j) + 1) for (i, j) in rho.pairs)


def check_sandwich(rho, bt):
    """Diagonal blocks inside the permuted relation, relation inside the block
    upper-triangular pattern."""
    perm, sizes = bt.perm, bt.sizes
    rel = conjugated(rho, list(perm))
    start = 1
    spans = []
    for k in sizes:
        spans.append(range(start, start + k))
        start += k
    for sp in spans:
        for t, u in itertools.product(sp, sp):
            assert (t, u) in rel
    block_of = {t: b for b, sp in enumerate(spans) for t in sp}
    for t, u in rel:
        assert block_of[t] <= block_of[u]
    full = sum(ka * kb for a, ka in enumerate(sizes)
               for b, kb in enumerate(sizes) if a <= b)
    assert bt.upper_exact == (len(rel) == full)


class TestBlockTriangular:
    def test_upper_pattern_identity(self, cocycle7):
        bt = block_triangular_permutation(cocycle7)
        assert bt.perm == (1, 2, 3, 4, 5, 6, 7)
        assert bt.sizes == (1,) * 7

    def test_two_blocks(self, two_blocks6):
        bt = block_triangular_permutation(two_blocks6)
        assert bt.perm == (1, 2, 3, 4, 5, 6)
        assert bt.sizes == (3, 3)
        assert not bt.upper_exact  # no cross block, so strictly smaller

    def test_reversed_pair_swaps(self):
        bt = block_triangular_permutation(closure(3, {(2, 1)}))
        assert bt.perm == (2, 1, 3)
        assert bt.sizes == (1, 1, 1)

    def test_full_matrix_exact(self):
        bt = block_triangular_permutation(QuasiOrder.full(3))
        assert bt.sizes == (3,) and bt.upper_exact

    def test_upper_triangular_exact(self):
        assert block_triangular_permutation(upper_triangular(4)).upper_exact

    @given(preorders())
    @settings(max_examples=60)
    def test_sandwich_always_holds(self, rho):
        check_sandwich(rho, block_triangular_permutation(rho))


class TestRankOneDensity:
    def test_fan_fails(self, fan4):
        assert not rank_one_density(fan4)

    def test_full_holds(self):
        assert rank_one_density(QuasiOrder.full(5))

    def test_upper_triangular_holds(self):
        assert rank_one_density(upper_triangular(3))

    def test_reduction_matches_naive_scan(self):
        for rho in all_preorders(4):
            assert rank_one_density(rho) == rank_one_density_naive(rho)

    def test_reduction_matches_naive_random_n6(self, rng):
        for k in range(25):
            rho = random_preorder(6, rng, p=0.25)
            assert rank_one_density(rho) == rank_one_density_naive(rho)

    @given(st.one_of(preorders(max_n=7), bipartite_preorders(max_n=7)))
    @example(bipartite(4, {(1, 3), (1, 4), (2, 3), (2, 4)}))
    @example(bipartite(7, {(1, 5), (1, 6), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7)}))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_scan_up_to_n7(self, rho):
        assert rank_one_density(rho) == rank_one_density_naive(rho)

    def test_matches_subset_scan_n13_to_18(self):
        rng = random.Random(5)
        verdicts = []
        for n in range(13, 19):
            s = n // 2
            sparse = bipartite(n, {(i, j) for i in range(1, s + 1)
                                   for j in range(s + 1, n + 1) if rng.random() < 0.2})
            for rho in (random_preorder(n, rng, p=0.1), sparse):
                dense = rank_one_density(rho)
                assert dense == rank_one_density_subset_scan(rho), sorted(rho.off_diagonal)
                verdicts.append(dense)
        assert set(verdicts) == {True, False}

    def test_crown_fails_like_subset_scan(self):
        for k in (4, 6):
            assert not rank_one_density(crown(k))
            assert not rank_one_density_subset_scan(crown(k))

    @pytest.mark.parametrize("rho, dense", [
        (QuasiOrder.full(24), True),
        (upper_triangular(24), True),
        (crown(12), False),
    ], ids=["full", "upper", "crown"])
    def test_n24_under_one_second(self, rho, dense):
        t0 = time.perf_counter()
        assert rank_one_density(rho) is dense
        assert time.perf_counter() - t0 < 1.0

    def test_size_guard(self):
        with pytest.raises(ValueError):
            rank_one_density(diag(25))


class TestCensus:
    def test_counts(self):
        assert len(list(all_preorders(1))) == 1
        assert len(list(all_preorders(2))) == 4
        assert len(list(all_preorders(3))) == 29
        assert len(list(all_preorders(4))) == 355

    def test_count_n6(self):
        assert sum(1 for _ in all_preorders(6)) == 209527

    def test_yield_order_n5_pinned(self):
        # sha256 of the yield sequence of the exhaustive off-diagonal-subset filter
        # that the one-point extension replaced: the order must not change
        h = hashlib.sha256()
        for rho in all_preorders(5):
            h.update(json.dumps(sorted(rho.pairs)).encode() + b"\n")
        assert h.hexdigest() == "0805c1baef610a13e5d012020c99c3916a9e5ef114e74727ae7da630ba3eb4b0"

    def test_all_valid_and_distinct(self):
        for n, count in [(3, 29), (5, 6942)]:
            seen = set()
            for rho in all_preorders(n):
                assert closure(n, rho.pairs) == rho
                assert rho.pairs not in seen
                seen.add(rho.pairs)
            assert len(seen) == count

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_n(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            list(all_preorders(n))

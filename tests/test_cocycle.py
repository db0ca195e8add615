import hashlib
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalg.quasiorder import QuasiOrder, closure
from smalg.matalg import _sma_stack, matrix_unit
from smalg.cocycle import (
    _LAW_TOL,
    Nontrivial,
    TransitiveMap,
    Trivial,
    coboundary,
    induced_auto,
    triviality,
    validate,
    walk_product,
)

import generators
from generators import random_preorder, random_transitive
from lemmas import upper_triangular


def cocycle7_map(rho):
    return TransitiveMap(rho, {
        p: (2.0 if p in {(2, 4), (2, 5)} else 1.0) for p in rho.off_diagonal})


class TestConstruction:
    def test_diagonal_implied(self, fan4):
        g = TransitiveMap(fan4, {p: 3.0 for p in fan4.off_diagonal})
        assert g(1, 1) == 1.0

    def test_coverage_enforced(self, fan4):
        with pytest.raises(ValueError, match="cover"):
            TransitiveMap(fan4, {(1, 3): 2.0})

    def test_zero_rejected(self, fan4):
        vals = {p: 1.0 for p in fan4.off_diagonal}
        vals[(1, 3)] = 0.0
        with pytest.raises(ValueError, match="nonzero"):
            TransitiveMap(fan4, vals)


def validate_loop(g):
    """The law checked one triple at a time in lexicographic (i, j, k) order:
    the oracle for `validate`."""
    by_first = {}
    for i, j in sorted(g.rho.pairs):
        by_first.setdefault(i, []).append(j)
    for i, j in sorted(g.rho.pairs):
        for k in by_first.get(j, ()):
            lhs = g(i, j) * g(j, k)
            rhs = g(i, k)
            if abs(lhs - rhs) > _LAW_TOL * abs(rhs):
                return False, ((i, j), (j, k))
    return True, None


@st.composite
def coboundary_maps(draw):
    """A coboundary on a closed preorder with n <= 10, and maybe one value
    multiplied by 1 + d, with |d| from far below to far above the tolerance,
    1e-11, 1e-10 and 1e-9 on either side of it and at it."""
    n = draw(st.integers(1, 10))
    off = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    rho = closure(n, draw(st.sets(st.sampled_from(off), max_size=3 * n)) if off else set())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.exp(rng.uniform(-3, 3, n) + 1j * rng.uniform(0, 2 * np.pi, n))
    g = coboundary(rho, {i: s[i - 1] for i in range(1, n + 1)})
    pairs = sorted(rho.off_diagonal)
    if pairs and draw(st.booleans()):
        p = draw(st.sampled_from(pairs))
        d = draw(st.sampled_from([1e-13, 1e-11, 1e-10, 1e-9, 1e-6, 1.0, -2.0]))
        values = dict(g.values)
        values[p] *= 1 + d * np.exp(1j * rng.uniform(0, 2 * np.pi))
        g = TransitiveMap(rho, values)
    return g


class TestValidate:
    @given(coboundary_maps())
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_oracle(self, g):
        assert validate(g) == validate_loop(g)

    def test_full_m32_under_20_ms(self):
        rho = QuasiOrder.full(32)
        rng = np.random.default_rng(0)
        g = coboundary(rho, {i: np.exp(1j * rng.uniform(0, 2 * np.pi)) for i in range(1, 33)})
        validate(g)  # warm up
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            assert validate(g) == (True, None)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.020

    def test_constant_one(self, cocycle7):
        assert validate(TransitiveMap.constant_one(cocycle7)) == (True, None)

    def test_cocycle7_map_transitive(self, cocycle7):
        assert validate(cocycle7_map(cocycle7)) == (True, None)

    def test_altered_value_caught(self, cocycle7):
        g = TransitiveMap(cocycle7, {
            p: (2.0 if p == (2, 4) else 1.0) for p in cocycle7.off_diagonal})
        ok, triple = validate(g)
        assert not ok
        assert triple == ((2, 4), (4, 5))  # 2*1 != g(2,5) = 1


class TestTriviality:
    def test_constant_one_trivial(self, cocycle7):
        verdict = triviality(TransitiveMap.constant_one(cocycle7))
        assert isinstance(verdict, Trivial)
        assert all(v == 1.0 for v in verdict.separator.values())

    def test_constructed_coboundary_trivial(self, cocycle7, rng):
        s = {i: np.exp(rng.standard_normal() + 1j * rng.standard_normal())
             for i in range(1, 8)}
        verdict = triviality(coboundary(cocycle7, s))
        assert isinstance(verdict, Trivial)
        # separator may differ by a per-component scale; check it reproduces g
        t = verdict.separator
        for (i, j) in cocycle7.pairs:
            assert np.isclose(t[i] / t[j], s[i] / s[j])

    def test_cocycle7_nontrivial_with_walk(self, cocycle7):
        g = cocycle7_map(cocycle7)
        verdict = triviality(g)
        assert isinstance(verdict, Nontrivial)
        assert abs(verdict.product - 1.0) > 0.4
        assert np.isclose(walk_product(g, verdict.walk), verdict.product)
        for (i, j), exp in verdict.walk:
            assert (i, j) in cocycle7.pairs and exp in (-1, 1)
        # walk is closed
        path = []
        for (i, j), exp in verdict.walk:
            path.append((i, j) if exp == 1 else (j, i))
        assert path[0][0] == path[-1][1]
        for a, b in zip(path, path[1:]):
            assert a[1] == b[0]

    def test_decision_matches_least_squares_oracle(self, rng):
        # positive-real maps: trivial iff log g lies in the image of the
        # coboundary matrix
        checked = 0
        for k in range(60):
            rho = random_preorder(4, rng, p=0.4)
            off = sorted(rho.off_diagonal)
            if not off or len(off) > 8:
                continue
            g = random_transitive(rho, seed=k)
            D = np.zeros((len(off), rho.n))
            for r, (i, j) in enumerate(off):
                D[r, i - 1] += 1
                D[r, j - 1] -= 1
            y = np.array([np.log(g(i, j).real) for (i, j) in off])
            sol, *_ = np.linalg.lstsq(D, y, rcond=None)
            solvable = np.linalg.norm(D @ sol - y) < 1e-8
            assert isinstance(triviality(g), Trivial) == solvable
            checked += 1
        assert checked > 20


class TestRandomTransitive:
    def test_diagonal_only_map(self):
        g = random_transitive(QuasiOrder.diagonal(4), 0)
        assert all(v == 1.0 for v in g.values.values())

    def test_nontrivial_exists_on_cocycle7(self, cocycle7):
        g = random_transitive(cocycle7, 3, want_nontrivial=True)
        assert g is not None
        assert isinstance(triviality(g), Nontrivial)

    def test_block_upper_triangular_has_none(self):
        t3 = upper_triangular(3)
        assert random_transitive(t3, 0, want_nontrivial=True) is None

    def test_outputs_always_validate(self, rng):
        for k in range(40):
            rho = random_preorder(5, rng, p=0.35)
            g = random_transitive(rho, seed=k)
            assert validate(g)[0]
            gn = random_transitive(rho, seed=k, want_nontrivial=True)
            if gn is not None:
                assert validate(gn)[0]
                assert isinstance(triviality(gn), Nontrivial)

    def test_seeded_determinism(self, cocycle7):
        a = random_transitive(cocycle7, 7)
        b = random_transitive(cocycle7, 7)
        assert a.values == b.values

    def test_full_m16_memory(self):
        # the m x m U factor of the full SVD alone would take over 100 MB here
        tracemalloc.start()
        try:
            g = random_transitive(QuasiOrder.full(16), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert validate(g)[0]
        assert peak < 20e6
        # values to 10 significant digits; they project a seeded vector onto the
        # solution space, so they do not depend on the BLAS thread count
        text = " ".join(f"{g.values[p].real:.9e}" for p in sorted(g.values))
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "9c4e8f189a3dd16b56c274e8ef2c497bf6612dda57efe139a0a0bfe83fc35b48"

    def test_values_ignore_nullspace_basis(self, cocycle7, monkeypatch):
        rng = np.random.default_rng(4)
        cases = [(QuasiOrder.full(8), False), (cocycle7, False), (cocycle7, True)]
        cases += [(random_preorder(6, rng, p=0.3), nt) for nt in (False, True) for _ in range(4)]
        want = [random_transitive(rho, 2, nt) for rho, nt in cases]
        nullspace = generators._nullspace

        def rotated_nullspace(M, rtol=1e-8):
            N = nullspace(M, rtol)
            Q, _ = np.linalg.qr(rng.standard_normal((N.shape[1], N.shape[1])))
            return N @ Q

        monkeypatch.setattr(generators, "_nullspace", rotated_nullspace)
        got = [random_transitive(rho, 2, nt) for rho, nt in cases]
        assert want[2] is not None  # the nontrivial branch is exercised
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert all(abs(a.values[p] - b.values[p]) <= 1e-12 for p in a.values)

    def test_values_match_full_svd_nullspace(self, cocycle7, monkeypatch):
        rng = np.random.default_rng(3)
        rhos = [QuasiOrder.full(8), upper_triangular(3), cocycle7]
        rhos += [random_preorder(6, rng, p=0.3) for _ in range(6)]
        args = [(0, False), (1, True)]
        got = [random_transitive(rho, seed, nt) for rho in rhos for seed, nt in args]

        def full_svd_nullspace(M, rtol=1e-8):
            if M.shape[0] == 0:
                return np.eye(M.shape[1])
            _, sv, Vh = np.linalg.svd(M)
            return Vh[int(np.sum(sv > rtol * (sv[0] if sv.size else 1.0))):].T

        monkeypatch.setattr(generators, "_nullspace", full_svd_nullspace)
        want = [random_transitive(rho, seed, nt) for rho in rhos for seed, nt in args]
        for a, b in zip(got, want):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.values.keys() == b.values.keys()
                assert all(abs(a.values[p] - b.values[p]) <= 1e-12 for p in a.values)


class TestInducedAuto:
    def test_constant_one_is_identity(self, cocycle7, rng):
        auto = induced_auto(TransitiveMap.constant_one(cocycle7))
        X = _sma_stack(cocycle7, rng.standard_normal((1, 2 * 7 * 7)))[0]
        assert np.array_equal(auto(X), X)

    def test_display_example(self, cocycle7):
        g = cocycle7_map(cocycle7)
        X = sum(matrix_unit(7, i, j) for (i, j) in [(1, 4), (1, 6), (2, 4), (2, 6)])
        want = (matrix_unit(7, 1, 4) + matrix_unit(7, 1, 6)
                + 2 * matrix_unit(7, 2, 4) + matrix_unit(7, 2, 6))
        got = induced_auto(g)(X)
        assert np.array_equal(got, want)
        assert np.linalg.matrix_rank(X) == 1
        assert np.linalg.matrix_rank(got) == 2  # rank-one is not preserved

    def test_multiplicative(self, cocycle7, rng):
        g = random_transitive(cocycle7, 9, want_nontrivial=True)
        auto = induced_auto(g)
        for _ in range(30):
            X, Y = _sma_stack(cocycle7, rng.standard_normal((2, 2 * 7 * 7)))
            assert np.max(np.abs(auto(X @ Y) - auto(X) @ auto(Y))) < 1e-12 * max(
                1.0, float(np.max(np.abs(auto(X) @ auto(Y)))))

    def test_trivial_equals_diag_conjugation(self, cocycle7, rng):
        s = {i: np.exp(rng.standard_normal()) for i in range(1, 8)}
        auto = induced_auto(coboundary(cocycle7, s))
        Ds = np.diag([s[i] for i in range(1, 8)]).astype(complex)
        Dinv = np.linalg.inv(Ds)
        for (i, j) in sorted(cocycle7.pairs):
            E = matrix_unit(7, i, j)
            assert np.allclose(auto(E), Ds @ E @ Dinv, atol=1e-12)

    def test_rejects_outside_algebra(self, cocycle7):
        auto = induced_auto(TransitiveMap.constant_one(cocycle7))
        with pytest.raises(ValueError, match="not in the algebra"):
            auto(matrix_unit(7, 7, 1))

    def test_stack_checks_each_matrix_with_its_own_cutoff(self, cocycle7):
        # a stack's membership is in_sma's, matrix by matrix: a large member
        # does not raise the cutoff of a small matrix that leaks out of rho
        from smalg.matalg import in_sma

        auto = induced_auto(TransitiveMap.constant_one(cocycle7))
        big = 1e12 * matrix_unit(7, 1, 4)
        leak = matrix_unit(7, 1, 4) + 1e-6 * matrix_unit(7, 7, 1)
        assert in_sma(big, cocycle7) and not in_sma(leak, cocycle7)
        assert in_sma(big + leak, cocycle7)
        with pytest.raises(ValueError, match="not in the algebra"):
            auto(np.stack([big, leak]))
        with pytest.raises(ValueError, match="non-finite"):
            auto(np.stack([big, np.full((7, 7), np.nan)]))
        assert np.array_equal(auto(np.stack([big, 2 * big])), np.stack([auto(big), auto(2 * big)]))

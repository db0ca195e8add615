import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalg import quasiorder
from smalg.quasiorder import QuasiOrder, closure, random_preorder
from smalg.matalg import (
    NearbyDiagonalizable,
    SmaDiagonalizationError,
    char_poly,
    diagonalize_in_sma,
    entry_pairs,
    flat,
    in_sma,
    lambda_matrix,
    matrix_unit,
    nearby_diagonalizable,
    permutation_matrix,
    permute_conjugate,
    project_sma,
    random_in_sma,
    rank_one_closure_member,
    sharp,
    support,
)


def fan_matrix():
    A = np.zeros((4, 4), dtype=complex)
    A[0, 2:] = 1
    A[1, 2:] = 1
    return A


class TestEntryPairs:
    @pytest.mark.parametrize("A", [
        np.array([[1, -2], [0, 3]]),
        np.array([[0.5, -0.0], [1e-300, -7.25]]),
        np.array([[complex(-0.0, -0.0), 1e308 - 2.5e-7j], [np.nan, complex(0.1, np.inf)]]),
        np.random.default_rng(0).standard_normal((5, 5, 2)) @ np.array([1, 1j]),
        (np.arange(36.0).reshape(6, 6) - 1j)[::2, 1::2],  # a strided view
        np.asfortranarray(np.arange(9.0).reshape(3, 3) * (1 + 2j)),
    ])
    def test_matches_entry_loop(self, A):
        # the per-entry form the JSON reports used before one tolist per matrix
        loop = [[[float(complex(z).real), float(complex(z).imag)] for z in row] for row in A]
        assert repr(entry_pairs(A)) == repr(loop)


class TestSupport:
    def test_matrix_unit(self):
        assert support(matrix_unit(4, 1, 3), tol=0.0) == {(1, 3)}

    def test_zero(self):
        assert support(np.zeros((3, 3)), tol=0.0) == frozenset()

    def test_fan_rectangle(self):
        assert support(fan_matrix()) == {(1, 3), (1, 4), (2, 3), (2, 4)}

    def test_relative_default_cut(self):
        A = np.eye(3, dtype=complex)
        A[0, 1] = 1e-12
        assert (1, 2) not in support(A)
        assert (1, 2) in support(A, tol=0.0)

    def test_rejects_nonfinite(self):
        A = np.eye(2, dtype=complex)
        A[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            support(A)


class TestMembership:
    def test_diagonal_in_everything(self, fan4):
        assert in_sma(lambda_matrix(4), fan4)

    def test_e21_not_in_t2(self):
        assert not in_sma(matrix_unit(2, 2, 1), QuasiOrder.upper_triangular(2))

    def test_fan_matrix_member(self, fan4):
        assert in_sma(fan_matrix(), fan4)

    def test_project(self, fan4, rng):
        Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        P = project_sma(Z, fan4)
        assert in_sma(P, fan4, tol=0.0)


class TestSharpFlat:
    @given(st.integers(0, 6))
    @settings(max_examples=30)
    def test_flat_sharp_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        A = rng.integers(-9, 10, (n, n)).astype(complex)
        S = sorted(rng.choice(np.arange(1, n + 3), size=int(rng.integers(0, 3)),
                              replace=False).tolist())
        assert np.array_equal(flat(sharp(A, S), S), A)

    def test_sharp_multiplicative_exact(self, rng):
        for _ in range(50):
            X = rng.integers(-9, 10, (4, 4)).astype(complex)
            Y = rng.integers(-9, 10, (4, 4)).astype(complex)
            S = [2, 5]
            assert np.array_equal(sharp(X @ Y, S), sharp(X, S) @ sharp(Y, S))

    def test_flat_multiplicative_on_corner_block(self, rng):
        # matrices supported in {1,2} x {1,2} inside 4x4: deletion of the rest
        # is multiplicative
        for _ in range(50):
            X = np.zeros((4, 4), dtype=complex)
            Y = np.zeros((4, 4), dtype=complex)
            X[:2, :2] = rng.integers(-9, 10, (2, 2))
            Y[:2, :2] = rng.integers(-9, 10, (2, 2))
            assert np.array_equal(flat(X @ Y, [3, 4]), flat(X, [3, 4]) @ flat(Y, [3, 4]))

    def test_sharp_injective(self, rng):
        A = rng.standard_normal((3, 3)).astype(complex)
        B = A.copy()
        B[1, 1] += 1
        assert not np.array_equal(sharp(A, [1]), sharp(B, [1]))

    def test_flat_rejects_everything(self):
        with pytest.raises(ValueError):
            flat(np.eye(2), [1, 2])


class TestCharPoly:
    def test_diag123(self):
        assert np.allclose(char_poly(lambda_matrix(3)), [1, -6, 11, -6])

    def test_nilpotent_unit(self):
        assert np.allclose(char_poly(matrix_unit(2, 1, 2)), [1, 0, 0])

    def test_against_eigensolver(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 8))
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            oracle = np.poly(np.linalg.eigvals(A))
            assert np.max(np.abs(char_poly(A) - oracle)) < 1e-8

    def test_similarity_invariance(self, rng):
        for _ in range(20):
            A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            while True:
                S = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
                if np.linalg.cond(S) < 1e3:
                    break
            B = S @ A @ np.linalg.inv(S)
            assert np.max(np.abs(char_poly(A) - char_poly(B))) < 1e-8


class TestPermutation:
    def test_r_pi_convention(self):
        # R_perm has a 1 at (k, perm(k)); conjugation reads entry (perm(t), perm(u))
        perm = (2, 3, 1)
        R = permutation_matrix(perm)
        assert R[0, 1] == 1 and R[1, 2] == 1 and R[2, 0] == 1
        A = np.arange(9, dtype=complex).reshape(3, 3)
        assert np.array_equal(permute_conjugate(A, perm), R @ A @ np.linalg.inv(R))

    def test_inverse_roundtrip(self, rng):
        A = rng.standard_normal((4, 4)).astype(complex)
        perm = (3, 1, 4, 2)
        assert np.array_equal(
            permute_conjugate(permute_conjugate(A, perm), perm, inverse=True), A)


class TestNearbyDiagonalizable:
    def test_distinct_diagonal_is_exact(self, fan4):
        A = np.diag(np.array([1, 2, 3, 4], dtype=complex))
        nd = nearby_diagonalizable(A, fan4, 1e-6)
        assert np.array_equal(nd.S, np.eye(4))
        assert np.array_equal(nd.eigenvalues, np.diag(A))
        assert nd.distance == 0.0

    def test_nilpotent_unit_in_t2(self):
        t2 = QuasiOrder.upper_triangular(2)
        nd = nearby_diagonalizable(matrix_unit(2, 1, 2), t2, 1e-3)
        assert abs(nd.eigenvalues[0] - nd.eigenvalues[1]) <= 2e-3
        assert nd.distance < 1e-3
        assert in_sma(nd.S, t2, tol=0.0)

    def test_postconditions_on_cocycle7(self, cocycle7, rng):
        A = random_in_sma(cocycle7, rng)
        nd = nearby_diagonalizable(A, cocycle7, 1e-6)
        assert nd.distance < 1e-6
        assert in_sma(nd.S, cocycle7, tol=0.0)
        lam = nd.eigenvalues
        assert len({complex(z) for z in lam}) == 7
        recon = nd.S @ np.diag(lam) @ np.linalg.inv(nd.S)
        assert np.linalg.norm(A - recon) < 1e-6

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_convergence(self, two_blocks6, eps):
        rng = np.random.default_rng(5)
        A = random_in_sma(two_blocks6, rng)
        nd = nearby_diagonalizable(A, two_blocks6, eps)
        assert nd.distance < eps

    def test_rejects_bad_eps(self, fan4):
        with pytest.raises(ValueError):
            nearby_diagonalizable(np.zeros((4, 4)), fan4, 0.0)

    def test_block_form_computed_once_per_rho(self, cocycle7, rng, monkeypatch):
        calls = []
        real = quasiorder._triangularize
        monkeypatch.setattr(quasiorder, "_triangularize",
                            lambda rho: calls.append(rho) or real(rho))
        rho = closure(7, cocycle7.pairs)
        for _ in range(2):
            nearby_diagonalizable(random_in_sma(rho, rng), rho, 1e-6)
        assert calls == [rho]

    def test_rejects_nonmember(self, fan4):
        with pytest.raises(ValueError, match="not in the algebra"):
            nearby_diagonalizable(matrix_unit(4, 3, 1), fan4, 1e-3)


class TestDiagonalizeInSma:
    def test_diagonal_family_gives_identity(self, fan4):
        F = [np.diag([1, 2, 3, 4]).astype(complex), np.diag([4, 3, 2, 1]).astype(complex)]
        assert np.array_equal(diagonalize_in_sma(F, fan4), np.eye(4))

    def test_t2_example(self):
        t2 = QuasiOrder.upper_triangular(2)
        M = matrix_unit(2, 1, 1) + 2 * matrix_unit(2, 2, 2) + matrix_unit(2, 1, 2)
        S = diagonalize_in_sma([M], t2)
        assert np.allclose(S, np.eye(2) + matrix_unit(2, 1, 2))
        D = np.linalg.inv(S) @ M @ S
        assert np.allclose(D, np.diag([1, 2]))

    def test_commuting_pair_postconditions(self, cocycle7):
        from smalg.preservers import gen_commuting_pair

        X, Y = gen_commuting_pair(cocycle7, 11)
        S = diagonalize_in_sma([X, Y], cocycle7)
        assert in_sma(S, cocycle7, tol=0.0)
        Sinv = np.linalg.inv(S)
        for M in (X, Y):
            D = Sinv @ M @ S
            off = D - np.diag(np.diag(D))
            assert np.linalg.norm(off) < 1e-8 * max(1.0, np.linalg.norm(M))

    def test_rejects_noncommuting(self, fan4):
        A = matrix_unit(4, 1, 3) + np.diag([1, 2, 3, 4])
        B = matrix_unit(4, 1, 4) + np.diag([4, 1, 2, 3])
        with pytest.raises(ValueError, match="commuting"):
            diagonalize_in_sma([A, B], fan4)

    def test_rejects_nondiagonalizable(self):
        t2 = QuasiOrder.upper_triangular(2)
        with pytest.raises(ValueError, match="diagonalizable"):
            diagonalize_in_sma([matrix_unit(2, 1, 2)], t2)

    def test_rejects_nonmember(self, fan4):
        with pytest.raises(ValueError, match="not in the algebra"):
            diagonalize_in_sma([matrix_unit(4, 3, 1)], fan4)


class TestRankOneClosure:
    def test_fan_matrix_excluded(self, fan4):
        assert rank_one_closure_member(fan_matrix(), fan4) == (False, None)

    def test_units_always_members(self, rng):
        for k in range(20):
            rho = random_preorder(5, rng, p=0.3)
            for (i, j) in sorted(rho.pairs):
                ok, pivot = rank_one_closure_member(matrix_unit(5, i, j), rho)
                assert ok and pivot is not None

    def test_single_row_member(self, fan4):
        A = np.zeros((4, 4), dtype=complex)
        A[0, 2], A[0, 3] = 2.0, 3.0j
        ok, pivot = rank_one_closure_member(A, fan4)
        assert ok and pivot == 1

    def test_single_column_member(self, fan4):
        A = np.zeros((4, 4), dtype=complex)
        A[0, 2], A[1, 2] = 1.0, -1.0
        ok, pivot = rank_one_closure_member(A, fan4)
        assert ok and pivot == 3

    def test_zero_matrix(self, fan4):
        assert rank_one_closure_member(np.zeros((4, 4)), fan4) == (True, None)

    def test_rank_two_rejected(self, fan4):
        A = matrix_unit(4, 1, 3) + matrix_unit(4, 2, 4)
        with pytest.raises(ValueError, match="rank"):
            rank_one_closure_member(A, fan4)

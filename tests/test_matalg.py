import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smalg.matalg import (
    DEFAULT_REL_TOL,
    _in_sma_stack,
    entry_pairs,
    in_sma,
    lambda_matrix,
    matrix_unit,
    rank_one_closure_member,
)

from generators import random_preorder
from lemmas import flat, sharp, support, upper_triangular


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
        assert not in_sma(matrix_unit(2, 2, 1), upper_triangular(2))

    def test_fan_matrix_member(self, fan4):
        assert in_sma(fan_matrix(), fan4)


class TestTolerance:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -5e-324])
    def test_bad_tol_raises(self, tol):
        # a NaN cutoff left support empty
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            support(np.ones((3, 3)), tol=tol)

    def test_zero_tol_is_exact_support(self):
        A = np.eye(3, dtype=complex)
        A[0, 1] = 5e-324
        assert support(A, tol=-0.0) == {(1, 1), (1, 2), (2, 2), (3, 3)}


def relative_cutoff_membership(A, rho):
    """_in_sma_stack's reference: every off-rho |A_ij| against the cutoff."""
    absA = np.abs(A)
    cut = DEFAULT_REL_TOL * absA.max(axis=(1, 2), initial=0.0)
    return ~np.any(np.where(rho.mask, 0.0, absA) > np.reshape(cut, (-1, 1, 1)), axis=(1, 2))


@st.composite
def edge_stacks(draw):
    """A stack on a random rho whose entries off rho are exact zeros of
    either sign, subnormals, or sit one ulp either side of the default
    cutoff of the largest entry on rho."""
    n = draw(st.integers(1, 4))
    rho = random_preorder(n, np.random.default_rng(draw(st.integers(0, 2 ** 16))), p=0.4)
    B = draw(st.integers(1, 3))
    top = draw(st.sampled_from([1.0, 3.5, 1e-300, 1e300, 5e-324, 0.0]))
    cut = DEFAULT_REL_TOL * top
    near = [cut, np.nextafter(cut, np.inf), np.nextafter(cut, 0.0)]
    off = st.sampled_from([5e-324, -5e-324, 2.0 ** -1030] + near + [-c for c in near])
    on = st.sampled_from([top, -top, 0.0, -0.0, 1e-3 * top])
    zero = st.sampled_from([0.0, -0.0])
    # off rho, a signed zero, or a value in the real part, the imaginary
    # part or both; half the stacks are exactly zero off rho
    where = st.sampled_from(["", "", "re", "im", "both"])
    zero_off = draw(st.booleans())
    A = np.empty((B, n, n), dtype=complex)
    for b in range(B):
        for i in range(n):
            for j in range(n):
                if rho.mask[i, j]:
                    A[b, i, j] = complex(draw(on), draw(on))
                    continue
                at = "" if zero_off else draw(where)
                A[b, i, j] = complex(draw(off if at in ("re", "both") else zero),
                                     draw(off if at in ("im", "both") else zero))
    return A, rho


class TestStackMembership:
    @pytest.mark.kernel  # two forms compared in one process hold on any kernel
    @settings(max_examples=300, deadline=None)
    @given(edge_stacks())
    # off rho: an imaginary part alone, then a subnormal beside a -0.0
    @example((np.array([[[1.0, 0.0], [1e-3j, 1.0]]]), upper_triangular(2)))
    @example((np.array([[[1.0, 0.0], [complex(-0.0, 5e-324), 0.0]]]), upper_triangular(2)))
    def test_matches_relative_cutoff(self, case):
        A, rho = case
        got = _in_sma_stack(A, rho)
        assert got.dtype == bool and got.shape == (len(A),)
        assert np.array_equal(got, relative_cutoff_membership(A, rho))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("on_rho", [True, False])
    def test_rejects_nonfinite(self, bad, on_rho):
        # a stack that is zero off rho, or not, raises either way
        rho = upper_triangular(3)
        A = np.zeros((2, 3, 3), dtype=complex)
        A[1, 0, 2] = 1.0
        A[(1, 0, 1) if on_rho else (1, 2, 0)] = bad
        with pytest.raises(ValueError, match="non-finite"):
            _in_sma_stack(A, rho)


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

import warnings

import numpy as np
import pytest

from smalg.quasiorder import QuasiOrder, closure
from smalg.matalg import _sma_stack, matrix_unit
from smalg.cocycle import TransitiveMap, Trivial, coboundary, induced_auto, triviality
from smalg.jordan import (
    CentralIdempotent,
    JordanSpec,
    RecoveryError,
    build_embedding,
    central_idempotents,
    recover_form,
    validate_spec,
    verify_antimultiplicative,
    verify_jordan,
    verify_multiplicative,
)
from smalg.preservers import MapUnderTest, _units, counterexample
from generators import random_invertible, random_preorder, random_transitive
from lemmas import upper_triangular
from test_preservers import unitary
from test_spec_verbs import SHAPES, seeded_spec


def is_central(P, rho):
    """Literal check that P commutes with every matrix unit of the algebra."""
    D = np.diag(P.diag_bits).astype(complex)
    return all(np.array_equal(D @ matrix_unit(rho.n, i, j), matrix_unit(rho.n, i, j) @ D)
               for i, j in rho.pairs)


def block_spec(two_blocks6):
    P = CentralIdempotent((1, 1, 1, 0, 0, 0))
    return JordanSpec(two_blocks6, np.eye(6, dtype=complex),
                      TransitiveMap.constant_one(two_blocks6), P)


class TestCentralIdempotents:
    def test_diagonal_count(self):
        assert len(central_idempotents(QuasiOrder.diagonal(3))) == 8

    def test_two_blocks(self, two_blocks6):
        ids = central_idempotents(two_blocks6)
        assert len(ids) == 4
        assert {p.diag_bits for p in ids} == {
            (0,) * 6, (1,) * 6, (1, 1, 1, 0, 0, 0), (0, 0, 0, 1, 1, 1)}

    def test_single_class_only_trivial(self, cocycle7):
        ids = central_idempotents(cocycle7)
        assert {p.diag_bits for p in ids} == {(0,) * 7, (1,) * 7}

    def test_all_commute_with_units_exactly(self, fan4):
        for P in central_idempotents(fan4):
            assert is_central(P, fan4)

    def test_completeness_bruteforce_small_n(self):
        # every central diagonal 0/1 idempotent is class-constant: cross-check
        # by scanning all 2^n diagonals
        for rho in [closure(4, {(1, 3), (1, 4), (2, 3), (2, 4)}),
                    closure(3, {(1, 2), (2, 1)}),
                    QuasiOrder.full(4)]:
            listed = {P.diag_bits for P in central_idempotents(rho)}
            scanned = set()
            for mask in range(1 << rho.n):
                bits = tuple(mask >> k & 1 for k in range(rho.n))
                if is_central(CentralIdempotent(bits), rho):
                    scanned.add(bits)
            assert listed == scanned

    def test_class_guard(self):
        with pytest.raises(ValueError, match="classes"):
            central_idempotents(QuasiOrder.diagonal(21))


class TestBuildEmbedding:
    def test_identity_spec(self, fan4, rng):
        spec = JordanSpec(fan4, np.eye(4, dtype=complex),
                          TransitiveMap.constant_one(fan4),
                          CentralIdempotent((1, 1, 1, 1)))
        phi = build_embedding(spec)
        X = _sma_stack(fan4, rng.standard_normal((1, 2 * 4 * 4)))[0]
        assert np.array_equal(phi(X), X)

    def test_two_block_transposition(self, two_blocks6, rng):
        phi = build_embedding(block_spec(two_blocks6))
        X = _sma_stack(two_blocks6, rng.standard_normal((1, 2 * 6 * 6)))[0]
        want = np.zeros((6, 6), dtype=complex)
        want[:3, :3] = X[:3, :3]
        want[3:, 3:] = X[3:, 3:].T
        assert np.allclose(phi(X), want)

    def test_scaling_by_transitive_map(self, cocycle7, rng):
        g = TransitiveMap(cocycle7, {
            p: (2.0 if p in {(2, 4), (2, 5)} else 1.0) for p in cocycle7.off_diagonal})
        spec = JordanSpec(cocycle7, np.eye(7, dtype=complex), g,
                          CentralIdempotent((1,) * 7))
        phi = build_embedding(spec)
        auto = induced_auto(g)
        X = _sma_stack(cocycle7, rng.standard_normal((1, 2 * 7 * 7)))[0]
        assert np.allclose(phi(X), auto(X))

    def test_validate_rejects_noncentral(self, fan4):
        with pytest.raises(ValueError, match="central"):
            validate_spec(JordanSpec(fan4, np.eye(4, dtype=complex),
                                     TransitiveMap.constant_one(fan4),
                                     CentralIdempotent((1, 0, 0, 0))))

    def test_validate_rejects_singular(self, fan4):
        S = np.zeros((4, 4), dtype=complex)
        with pytest.raises(ValueError, match="invertible"):
            validate_spec(JordanSpec(fan4, S, TransitiveMap.constant_one(fan4),
                                     CentralIdempotent((1, 1, 1, 1))))

    def test_jordan_square_identity(self, rng):
        # squared images match images of squares across random specs
        for k in range(6):
            rho = random_preorder(5, rng, p=0.35)
            S = random_invertible(5, rng, max_cond=50)
            g = random_transitive(rho, seed=k)
            ids = central_idempotents(rho)
            P = ids[int(rng.integers(0, len(ids)))]
            phi = build_embedding(JordanSpec(rho, S, g, P))
            for _ in range(40):
                X = _sma_stack(rho, rng.standard_normal((1, 2 * 5 * 5)))[0]
                fX = phi(X)
                assert np.linalg.norm(phi(X @ X) - fX @ fX) < 1e-8 * max(
                    1.0, float(np.linalg.norm(fX)) ** 2)

    def test_range_orthogonality_exact(self, two_blocks6, rng):
        # the P-part and the transposed complement annihilate each other
        spec = block_spec(two_blocks6)
        Pm = np.diag(spec.P.diag_bits).astype(complex)
        Qm = np.eye(6) - Pm
        auto = induced_auto(spec.g)
        for _ in range(25):
            X, Y = _sma_stack(two_blocks6, rng.standard_normal((2, 2 * 6 * 6)))
            left = Pm @ auto(X)
            right = Qm @ auto(Y).T
            assert not np.any(left @ right)


class TestVerification:
    def test_identity_passes(self, fan4):
        rep = verify_jordan(MapUnderTest(fan4, lambda X: np.array(X), "phi"), n_samples=200)
        assert rep.all_pass and not any(v.witnesses for v in rep._verdicts().values())

    def test_two_block_jordan_but_no_product_rule(self, two_blocks6):
        mut = MapUnderTest(two_blocks6, build_embedding(block_spec(two_blocks6)), "phi")
        rep = verify_jordan(mut, n_samples=300, tol=1e-8, seed=0)
        assert rep.all_pass
        mul = verify_multiplicative(mut, seed=1).multiplicative
        anti = verify_antimultiplicative(mut, seed=2).antimultiplicative
        assert not mul.ok and mul.witnesses[0] is not None
        assert not anti.ok and anti.witnesses[0] is not None

    def test_identity_is_multiplicative(self, fan4):
        mut = MapUnderTest(fan4, lambda X: np.array(X), "phi")
        assert verify_multiplicative(mut).multiplicative.ok

    def test_transpose_is_antimultiplicative(self):
        mut = MapUnderTest(QuasiOrder.full(4), lambda X: np.array(X).T, "phi")
        assert verify_antimultiplicative(mut).antimultiplicative.ok
        assert not verify_multiplicative(mut).multiplicative.ok

    def test_stacked_map_grades_like_its_callable(self, two_blocks6):
        phi = build_embedding(block_spec(two_blocks6))
        mut = MapUnderTest(two_blocks6, phi, "phi", stacked=True)
        per_matrix = MapUnderTest(two_blocks6, phi, "phi")
        for check in (verify_jordan, verify_multiplicative, verify_antimultiplicative):
            assert check(mut, n_samples=50).to_dict() == check(per_matrix, n_samples=50).to_dict()

    def test_kink_map_fails_additivity_with_witness(self, fan4):
        from smalg.preservers import counterexample

        mut = counterexample(fan4)
        rep = verify_jordan(mut, n_samples=300, seed=0)
        assert not rep.additivity.ok
        assert rep.additivity.witnesses
        # the canonical broken sum
        E11, E13 = matrix_unit(4, 1, 1), matrix_unit(4, 1, 3)
        assert np.array_equal(mut.eval(2 * E11 + E13), 2 * E11 + 0.5 * E13)
        assert not np.array_equal(
            mut.eval(2 * E11 + E13) + mut.eval(E13), mut.eval(2 * E11 + 2 * E13))


# the round-trip errors and the embedding recovery reads follow the kernel
@pytest.mark.kernel
class TestRecovery:
    def test_identity_recovers_cleanly(self, two_blocks6):
        rec = recover_form(MapUnderTest(two_blocks6, lambda X: np.array(X), "phi"))
        assert np.allclose(rec.spec.S, np.eye(6), atol=1e-10)
        assert all(np.isclose(v, 1.0) for v in rec.spec.g.values.values())
        assert rec.spec.P.diag_bits == (1,) * 6
        assert rec.rho_m == two_blocks6

    def test_two_block_split(self, two_blocks6):
        phi = build_embedding(block_spec(two_blocks6))
        rec = recover_form(MapUnderTest(two_blocks6, phi, "phi"))
        assert rec.spec.P.diag_bits == (1, 1, 1, 0, 0, 0)
        assert {p for p in rec.rho_a.off_diagonal} == {
            (i, j) for i in range(4, 7) for j in range(4, 7) if i != j}

    def test_round_trip_random_specs(self, cocycle7):
        for seed in range(6):
            srng = np.random.default_rng((99, seed))
            S = random_invertible(7, srng, max_cond=50)
            g = random_transitive(cocycle7, seed)
            P = CentralIdempotent((1,) * 7 if seed % 2 else (0,) * 7)
            phi = build_embedding(JordanSpec(cocycle7, S, g, P))
            rec = recover_form(MapUnderTest(cocycle7, phi, "phi"), seed=seed)
            assert rec.max_unit_error < 1e-8
            assert rec.max_sample_error < 1e-8

    # recovery reads S^-1 and g from the unit images, with no conjugation, so
    # phi's rounding is not multiplied by cond(S): unit errors stay near eps
    # and the recovered g meets the cocycle law on every OpenBLAS kernel
    @pytest.mark.parametrize("c", [1e3, 3e3, 1e4, 1e5, 1e6, 1e8])
    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("shape", ["full", "upper"])
    def test_ill_conditioned_s_recovers(self, c, n, shape):
        # S = U diag(geomspace(1, 1/c)) V, cond(S) = c: full M_n with P = I, T_n with P = 0
        rng = np.random.default_rng(7)
        S = unitary(rng, n) @ np.diag(np.geomspace(1.0, 1.0 / c, n)) @ unitary(rng, n)
        full = shape == "full"
        rho = QuasiOrder.full(n) if full else upper_triangular(n)
        P = CentralIdempotent((int(full),) * n)
        phi = build_embedding(JordanSpec(rho, S, TransitiveMap.constant_one(rho), P))
        rec = recover_form(MapUnderTest(rho, phi, "phi", stacked=True))
        assert rec.max_unit_error <= 1e-8 and rec.max_sample_error <= 1e-8
        diag = QuasiOrder.diagonal(n)
        assert rec.spec.P == P
        assert (rec.rho_m, rec.rho_a) == ((rho, diag) if full else (diag, rho))
        assert isinstance(triviality(rec.spec.g), Trivial)

    def test_spread_g_recovers(self):
        # S = I and a coboundary whose separator spans 1 to 1e-8: g(8,1) = 1e-8,
        # an image far below any absolute cutoff, is read as it is
        rho = QuasiOrder.full(8)
        s = np.geomspace(1.0, 1e-8, 8)
        g = coboundary(rho, {i: s[i - 1] for i in range(1, 9)})
        spec = JordanSpec(rho, np.eye(8, dtype=complex), g, CentralIdempotent((1,) * 8))
        rec = recover_form(MapUnderTest(rho, build_embedding(spec), "phi", stacked=True))
        assert rec.max_unit_error <= 1e-8 and rec.max_sample_error <= 1e-8
        assert (rec.rho_m, rec.spec.P) == (rho, spec.P)
        pairs = sorted(rho.off_diagonal)
        assert np.allclose([rec.spec.g.values[p] for p in pairs],
                           [g.values[p] for p in pairs], rtol=1e-12, atol=0)

    def test_criterion_failing_order_recovers_embeddings_only(self, fan4):
        # the fan fails the neighborhood criterion at (1, 3): its identity
        # embedding recovers all the same, and its non-additive preserver,
        # exact on the units, is told apart by the round trip on samples
        rec = recover_form(MapUnderTest(fan4, lambda X: np.array(X), "phi"))
        assert rec.spec.P.diag_bits == (1,) * 4 and rec.rho_m == fan4
        assert rec.max_unit_error == rec.max_sample_error == 0.0
        with pytest.raises(RecoveryError, match=r"^rebuilt map disagrees with phi "
                                                r"\(unit error 0\.000e\+00, "):
            recover_form(counterexample(fan4))

    def test_spectrum_violation_reported(self, two_blocks6):
        with pytest.raises(RecoveryError, match=r"phi\(E_\{1,1\}\) has trace 6\+0j, not 1 "
                                                r"\(spectrum not preserved\?\)"):
            recover_form(MapUnderTest(two_blocks6, lambda X: np.eye(6, dtype=complex), "phi"))

    def test_degenerate_unit_image_reported(self, two_blocks6):
        # keeping only the diagonal kills every off-diagonal unit
        with pytest.raises(RecoveryError, match=r"^phi\(E_\{1,2\}\) is zero$"):
            recover_form(MapUnderTest(two_blocks6, lambda X: np.diag(np.diag(X)), "phi"))

    def test_unit_fitting_neither_orientation_reported(self):
        # E_12 maps to E_12 + E_21, which is g S_1 T_2 for no g, nor g S_2 T_1
        def phi(X):
            out = np.array(X, dtype=complex)
            out[1, 0] += X[0, 1]
            return out

        with pytest.raises(RecoveryError, match=r"^phi\(E_\{1,2\}\) fits neither orientation "
                                                r"\(unit error 7\.071e-01\)$"):
            recover_form(MapUnderTest(QuasiOrder.full(3), phi, "phi"))


    @pytest.mark.parametrize("stacked", [False, True])
    def test_nan_on_samples_fails(self, stacked):
        # exact on the units, NaN on about a third of the samples: a NaN
        # round-trip error must fail the recovery
        full3 = QuasiOrder.full(3)

        def phi(X):
            out = np.array(X, dtype=complex)
            bad = (np.abs(out[..., 0, 0]) > 1.5) & (np.count_nonzero(out, axis=(-2, -1)) > 3)
            out[bad] = np.nan
            return out

        mut = MapUnderTest(full3, phi, "phi", stacked=stacked)
        with pytest.raises(RecoveryError, match="sample error nan"):
            recover_form(mut, seed=0)

    def test_infinite_samples_fail_without_warning(self):
        # exact on the units, infinite on some samples: the error divides by
        # the image's norm, and inf / inf would be NaN with a RuntimeWarning
        full3 = QuasiOrder.full(3)

        def phi(X):
            out = np.array(X, dtype=complex)
            out[(np.abs(out[..., 0, 0]) > 1.5) & (np.count_nonzero(out, axis=(-2, -1)) > 3)] = np.inf
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RecoveryError, match="sample error inf"):
                recover_form(MapUnderTest(full3, phi, "phi", stacked=True))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_unit_image_reported(self, bad):
        # named, and fitted without a warning
        full3 = QuasiOrder.full(3)

        def phi(X):
            out = np.array(X, dtype=complex)
            if out[0, 1] != 0:
                out[0, 1] = bad
            return out

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RecoveryError, match=r"phi\(E_\{1,2\}\) is not finite"):
                recover_form(MapUnderTest(full3, phi, "phi"))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_non_finite_diagonal_image_reported(self, stacked):
        # checked before S is formed from the images of the diagonal units,
        # where the NaN would spread into S
        full3 = QuasiOrder.full(3)

        def phi(X):
            out = np.array(X, dtype=complex)
            out[np.all(out == np.diag([0, 1, 0]), axis=(-2, -1)), 0, 0] = np.nan
            return out

        mut = MapUnderTest(full3, phi, "phi", stacked=stacked)
        with pytest.raises(RecoveryError, match=r"phi\(E_\{2,2\}\) is not finite"):
            recover_form(mut)

    def test_non_finite_diagonal_image_reported_before_traces(self):
        # the diagonal units of M_3 are one stack, checked for finiteness as
        # it is read: E_22's NaN is named before E_11's trace of 2 is read
        full3 = QuasiOrder.full(3)

        def phi(X):
            out = np.array(X, dtype=complex)
            out[np.all(out == np.diag([0, 1, 0]), axis=(-2, -1)), 1, 1] = np.nan
            out[..., 0, 0] *= 2
            return out

        mut = MapUnderTest(full3, phi, "phi", stacked=True)
        with pytest.raises(RecoveryError, match=r"phi\(E_\{2,2\}\) is not finite"):
            recover_form(mut)


def bits(A):
    """The complex entries of A as uint64 pairs, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(A, dtype=complex).view(np.uint64)


def random_spec(rho, seed, P):
    S = random_invertible(rho.n, np.random.default_rng((99, seed)), max_cond=50)
    return JordanSpec(rho, S, random_transitive(rho, seed), P)


@pytest.mark.kernel  # two forms compared in one process hold on any kernel
class TestStackedRecovery:
    """recover_form reads a stacked map a stack at a time and any other one
    matrix at a time, to the same bits."""

    def assert_same_recovery(self, spec):
        phi = build_embedding(spec)
        calls, stacks = [], []

        def per_matrix(X):
            calls.append(np.ndim(X))
            return phi(X)

        def stacked(X):
            stacks.append(np.shape(X))
            return phi(X)

        a = recover_form(MapUnderTest(spec.rho, stacked, "phi", stacked=True), seed=3)
        b = recover_form(MapUnderTest(spec.rho, per_matrix, "phi"), seed=3)
        assert np.array_equal(bits(a.spec.S), bits(b.spec.S))
        pairs = sorted(spec.rho.off_diagonal)
        assert np.array_equal(bits([a.spec.g.values[p] for p in pairs]),
                              bits([b.spec.g.values[p] for p in pairs]))
        assert a.spec.P == b.spec.P and (a.rho_m, a.rho_a) == (b.rho_m, b.rho_a)
        errs = np.array([[r.max_unit_error, r.max_sample_error] for r in (a, b)])
        assert np.array_equal(errs[0].view(np.uint64), errs[1].view(np.uint64))
        # one call per matrix: on each unit and on each sample, once
        assert set(calls) == {2}
        assert len(calls) == spec.rho.n + len(spec.rho.off_diagonal) + 100
        # the stacked map sees the same matrices, in fewer calls
        assert {len(shape) for shape in stacks} == {3}
        assert sum(shape[0] for shape in stacks) == len(calls) > len(stacks)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_seeded_specs(self, n, shape):
        self.assert_same_recovery(seeded_spec(n, shape))

    def test_full_m24(self):
        # 552 off-diagonal units in 40 stacks of 14
        self.assert_same_recovery(seeded_spec(24, "full"))

    @pytest.mark.parametrize("seed", range(4))
    def test_fixtures(self, cocycle7, two_blocks6, seed):
        bit = seed % 2
        self.assert_same_recovery(random_spec(cocycle7, seed, CentralIdempotent((bit,) * 7)))
        P = CentralIdempotent((bit,) * 3 + (1 - bit,) * 3)
        self.assert_same_recovery(random_spec(two_blocks6, seed, P))

    def test_peak_memory_bounded_at_n32(self):
        import tracemalloc

        spec = seeded_spec(32, "full")
        mut = MapUnderTest(spec.rho, build_embedding(spec), "embedding", stacked=True)
        tracemalloc.start()
        try:
            rec = recover_form(mut)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.max_sample_error < 1e-8
        assert peak < 3e6, f"peak {peak / 1e6:.1f} MB"


def four_matmul_embedding(spec):
    """build_embedding's map as S (P Y + (I-P) Y^t) S^-1 with its two
    diagonal matmuls, the form row selection replaced: the reference."""
    S0 = np.asarray(spec.S, dtype=complex)
    e = np.frexp(np.max(np.abs(S0)))[1]
    S = np.empty_like(S0)
    S.real, S.imag = np.ldexp(S0.real, -e), np.ldexp(S0.imag, -e)
    Sinv = np.linalg.inv(S)
    Pm = np.diag(spec.P.diag_bits).astype(complex)
    Qm = np.eye(spec.rho.n, dtype=complex) - Pm
    gstar = induced_auto(spec.g)

    def phi(X):
        Y = gstar(X)
        return S @ (Pm @ Y + Qm @ Y.swapaxes(-1, -2)) @ Sinv

    return phi


def blas_keeps_zero_sign(n):
    """Whether this BLAS's n x n complex matmul can sum exact zeros to -0.0.
    OpenBLAS's AVX-512 kernels do at n = 2, 3, 5, 6 and 7; its Prescott,
    Sandybridge and Haswell kernels always give +0.0."""
    Y = np.full((n, n), complex(-0.0, 0.0))
    return bool(np.signbit((np.eye(n, dtype=complex) @ Y).real).any())


def selection_order(n, shape):
    """Full M_n, or the sum of M_{n//2} and T_{n - n//2}: two component
    classes, so a mixed central idempotent exists."""
    if shape == "full":
        return QuasiOrder.full(n)
    h = n // 2
    return QuasiOrder(n, frozenset((i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                                   if (i <= h and j <= h) or (h < i <= j)))


@pytest.mark.kernel  # two forms compared in one process hold on any kernel
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 24])
@pytest.mark.parametrize("dense", [True, False], ids=["dense-S", "diagonal-S"])
@pytest.mark.parametrize("shape, P", [("full", "ones"), ("full", "zeros"), ("sum", "ones"),
                                      ("sum", "zeros"), ("sum", "mixed")])
def test_row_selection_is_the_four_matmul_form(n, dense, shape, P):
    rng = np.random.default_rng([n, dense, len(shape), len(P)])
    rho = selection_order(n, shape)
    bit = {"ones": lambda i: 1, "zeros": lambda i: 0, "mixed": lambda i: int(i <= n // 2)}[P]
    if dense:
        S = random_invertible(n, rng, max_cond=50)
    else:
        S = np.diag(np.exp(rng.uniform(-1, 1, n) + 1j * rng.uniform(0, 2 * np.pi, n)))
    sep = np.exp(rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(0, 2 * np.pi, n))
    spec = JordanSpec(rho, S, coboundary(rho, {i: sep[i - 1] for i in range(1, n + 1)}),
                      CentralIdempotent(tuple(bit(i) for i in range(1, n + 1))))
    phi, reference = build_embedding(spec), four_matmul_embedding(spec)
    X = _sma_stack(rho, rng.standard_normal((16, 2 * n * n)))  # the harness's samples
    alpha = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    # alpha X carries -0.0 off rho, and g scales the zeros of a unit to -0.0
    for A in (_units(n, sorted(rho.pairs)), X, alpha[:, None, None] * X):
        got, want = phi(A), reference(A)
        if dense or not blas_keeps_zero_sign(n):
            assert np.array_equal(bits(got), bits(want))
        else:
            # a zero of the selection can reach the image alone through a
            # diagonal S, and such a BLAS keeps its sign where the diagonal
            # matmuls gave +0.0: every other bit agrees
            assert np.array_equal(bits(got + 0.0), bits(want + 0.0))
            assert np.array_equal(bits(got[got != 0]), bits(want[want != 0]))


class TestSamplingInput:
    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": -1.0}, {"tol": float("inf")}, {"n_samples": 0},
    ])
    def test_recovery_rejects_vacuous_settings(self, two_blocks6, kwargs):
        with pytest.raises(ValueError, match="n_samples|tol"):
            recover_form(MapUnderTest(two_blocks6, lambda X: np.array(X), "phi"), **kwargs)

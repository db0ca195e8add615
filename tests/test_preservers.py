import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalg.quasiorder import QuasiOrder, all_preorders, closure, condition_i
from smalg.matalg import _sma_stack, matrix_unit
from smalg.cocycle import TransitiveMap, coboundary
from smalg.jordan import CentralIdempotent, JordanSpec, RecoveryError, build_embedding, recover_form
from smalg.preservers import (
    GALLERY_KINDS,
    CounterexampleMap,
    MapUnderTest,
    counterexample,
    identity_map,
    remark_gallery,
    transpose_map,
    verify_preserver,
    _commuting_pairs,
)

from generators import random_invertible, random_preorder, random_transitive
from lemmas import (case2_kink, classify_unit_action, commutes_criterion, spectrum_error_lu,
                    upper_triangular)

complexes = st.complex_numbers(allow_nan=False, allow_infinity=False,
                               min_magnitude=0.0, max_magnitude=1e6)


class TestCommutingPairs:
    def test_diagonal_algebra(self):
        X, Y = _commuting_pairs(QuasiOrder.diagonal(5),
                                np.random.default_rng(0).standard_normal((1, 2 * 25 + 4 * 5)))
        X, Y = X[0], Y[0]
        assert np.array_equal(X, np.diag(np.diag(X)))
        assert np.linalg.norm(X @ Y - Y @ X) < 1e-14

    def test_membership_exact_and_commutator_small(self, cocycle7):
        # one row of normals from each seed's generator
        Z = np.concatenate([np.random.default_rng(seed).standard_normal((1, 2 * 49 + 4 * 7))
                            for seed in range(200)])
        for X, Y in zip(*_commuting_pairs(cocycle7, Z)):
            assert not X[~cocycle7.mask].any() and not Y[~cocycle7.mask].any()
            scale = max(1.0, float(np.linalg.norm(X)) * float(np.linalg.norm(Y)))
            assert np.linalg.norm(X @ Y - Y @ X) < 1e-10 * scale


class TestKink:
    def test_pinned_values(self):
        assert case2_kink(0, 1 + 0j) == 1
        assert case2_kink(-2, 1) == 0.5
        assert case2_kink(0, 5j) == 5j

    @given(complexes, complexes, st.floats(1e-6, 1e6))
    @settings(max_examples=300)
    def test_homogeneous_and_contractive(self, u, v, t):
        f = case2_kink(u, v)
        assert abs(f) <= abs(v) * (1 + 1e-12)
        ft = case2_kink(t * u, t * v)
        assert abs(ft - t * f) <= 1e-9 * max(1.0, abs(t * f))

    @given(complexes, complexes, complexes)
    @settings(max_examples=200)
    def test_injective_sections(self, u, v, w):
        if abs(v - w) < 1e-9 * max(1.0, abs(v), abs(w)):
            return
        fv, fw = case2_kink(u, v), case2_kink(u, w)
        assert fv != fw


class TestCounterexample:
    def test_refuses_good_patterns(self, cocycle7):
        with pytest.raises(ValueError, match="Jordan embedding"):
            counterexample(cocycle7)

    def test_fan_case2(self, fan4):
        mut = counterexample(fan4)
        assert (mut.case, mut.r, mut.s) == (2, 1, 3)
        E11, E13 = matrix_unit(4, 1, 1), matrix_unit(4, 1, 3)
        assert np.array_equal(mut.eval(2 * E11 + E13), 2 * E11 + 0.5 * E13)
        assert np.array_equal(mut.eval(E13), E13)
        assert np.array_equal(mut.eval(2 * E11 + 2 * E13), 2 * E11 + 2 * E13)

    def test_sympair_case1_witness(self, sympair3):
        mut = counterexample(sympair3)
        assert (mut.case, mut.r, mut.s) == (1, 1, 2)
        E12, E21 = matrix_unit(3, 1, 2), matrix_unit(3, 2, 1)
        # f(0) = -1 and f(1) = i
        assert np.allclose(mut.eval(E12), -E12)
        assert np.array_equal(mut.eval(E21), E21)
        assert np.allclose(mut.eval(E12 + E21), 1j * E12 - 1j * E21)
        assert np.linalg.norm(
            mut.eval(E12) + mut.eval(E21) - mut.eval(E12 + E21)) > 1

    def test_full_2x2_block_is_whole_algebra(self):
        # n = 2: the twisted block is the entire matrix, nothing to carry along
        rho = QuasiOrder.full(2)
        mut = counterexample(rho)
        assert mut.case == 1 and (mut.r, mut.s) == (1, 2)
        E12 = matrix_unit(2, 1, 2)
        assert np.allclose(mut.eval(E12), -E12)
        rep = verify_preserver(mut, n_samples=200, tol=1e-8, seed=0)
        assert rep.spectrum.ok and rep.commutativity.ok and not rep.additivity.ok

    def test_case2_spectrum_identity_exact(self, fan4, rng):
        # the redrawn entry never enters the characteristic polynomial
        mut = counterexample(fan4)
        for _ in range(200):
            X = _sma_stack(fan4, rng.standard_normal((1, 2 * 4 * 4)))[0]
            assert np.max(np.abs(np.poly(mut.eval(X)) - np.poly(X))) < 1e-12 * max(
                1.0, float(np.max(np.abs(np.poly(X)))))

    def test_case1_spectrum_and_commutativity(self, sympair3):
        mut = counterexample(sympair3)
        rep = verify_preserver(mut, n_samples=500, tol=1e-8, seed=0)
        assert rep.commutativity.ok and rep.injectivity.ok
        assert verify_preserver(mut, n_samples=500, tol=1e-12, seed=0).spectrum.ok
        assert not rep.additivity.ok and rep.additivity.witnesses

    def test_every_failing_preorder_n3(self):
        for rho in all_preorders(3):
            holds, _ = condition_i(rho)
            if holds:
                continue
            mut = counterexample(rho)
            rep = verify_preserver(mut, n_samples=100, tol=1e-8, seed=0)
            assert rep.spectrum.ok and rep.commutativity.ok
            assert not rep.additivity.ok, sorted(rho.off_diagonal)


class TestCommutesCriterion:
    def test_self_commutes(self, fan4, rng):
        X = _sma_stack(fan4, rng.standard_normal((1, 2 * 4 * 4)))[0]
        assert commutes_criterion(X, X, fan4, 1, 3)

    def test_agrees_with_direct_commutator(self, fan4, rng):
        mismatches = 0
        for k in range(10_000):
            if k % 3 == 0:
                Z = np.random.default_rng(k).standard_normal((1, 2 * 4 * 4 + 4 * 4))
                X, Y = (A[0] for A in _commuting_pairs(fan4, Z))
            else:
                X, Y = _sma_stack(fan4, rng.standard_normal((2, 2 * 4 * 4)))
            direct = np.linalg.norm(X @ Y - Y @ X) <= 1e-9 * max(
                1.0, float(np.linalg.norm(X)) * float(np.linalg.norm(Y)))
            if commutes_criterion(X, Y, fan4, 1, 3) != direct:
                mismatches += 1
        assert mismatches == 0

    def test_known_noncommuting_pair(self, fan4):
        X = 2 * matrix_unit(4, 1, 1) + matrix_unit(4, 1, 3)
        Y = matrix_unit(4, 1, 3)
        assert not commutes_criterion(X, Y, fan4, 1, 3)
        assert np.linalg.norm(X @ Y - Y @ X) > 1

    def test_structural_precondition(self, sympair3, rng):
        X = _sma_stack(sympair3, rng.standard_normal((1, 2 * 3 * 3)))[0]
        with pytest.raises(ValueError, match="isolate"):
            commutes_criterion(X, X, sympair3, 1, 2)


class TestClassifyUnits:
    def test_identity(self, fan4):
        rm, ra = classify_unit_action(MapUnderTest(fan4, lambda X: np.array(X), "phi"))
        assert rm == fan4
        assert ra == QuasiOrder.diagonal(4)

    def test_transpose_on_symmetric(self, two_blocks6):
        rm, ra = classify_unit_action(MapUnderTest(two_blocks6, lambda X: np.array(X).T, "phi"))
        assert rm == QuasiOrder.diagonal(6)
        assert ra == two_blocks6

    def test_block_embedding_split_is_quasiorder(self, two_blocks6):
        P = CentralIdempotent((1, 1, 1, 0, 0, 0))
        phi = build_embedding(JordanSpec(
            two_blocks6, np.eye(6, dtype=complex),
            TransitiveMap.constant_one(two_blocks6), P))
        rm, ra = classify_unit_action(MapUnderTest(two_blocks6, phi, "phi"))
        block1 = {(i, j) for i in range(1, 4) for j in range(1, 4) if i != j}
        block2 = {(i, j) for i in range(4, 7) for j in range(4, 7) if i != j}
        assert rm.off_diagonal == frozenset(block1)
        assert ra.off_diagonal == frozenset(block2)

    def test_built_embeddings_always_split_into_quasiorders(self, rng):
        from smalg.jordan import central_idempotents

        done = 0
        for k in range(40):
            rho = random_preorder(5, rng, p=0.35)
            if not condition_i(rho)[0]:
                continue
            idems = central_idempotents(rho)
            spec = JordanSpec(rho, random_invertible(5, rng, max_cond=50),
                              random_transitive(rho, k),
                              idems[int(rng.integers(0, len(idems)))])
            # psi = S^{-1} phi S keeps unit images parallel to units
            phi = build_embedding(spec)
            Sinv = np.linalg.inv(spec.S)
            psi = MapUnderTest(rho, lambda X: Sinv @ phi(X) @ spec.S, "psi")
            rm, ra = classify_unit_action(psi)
            assert rm.pairs | ra.pairs == rho.pairs
            assert rm.pairs & ra.pairs == QuasiOrder.diagonal(5).pairs
            done += 1
        assert done > 5

    def test_non_parallel_image_rejected(self, fan4):
        def phi(X):
            out = np.array(X, dtype=complex)
            out[0, 2] += out[0, 3]  # smear E_14 onto (1,3)
            out[0, 3] = out[0, 2]
            return out

        with pytest.raises(ValueError, match="parallel"):
            classify_unit_action(MapUnderTest(fan4, phi, "phi"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected(self, bad):
        def phi(X):
            out = np.array(X, dtype=complex)
            if out[0, 1] != 0:
                out[0, 1] = bad
            return out

        with pytest.raises(ValueError, match=r"phi\(E_\{1,2\}\) is not finite"):
            classify_unit_action(MapUnderTest(QuasiOrder.full(3), phi, "phi"))

    @pytest.mark.parametrize("stacked", [False, True])
    def test_first_failing_unit_in_sorted_order(self, stacked):
        # E_13 is not finite and E_12 concentrates elsewhere: E_12 comes first
        def phi(X):
            out = np.array(X, dtype=complex)
            out[..., 0, 2] = np.where(out[..., 0, 2] != 0, np.inf, 0)
            out[..., 2, 1] += out[..., 0, 1]
            out[..., 0, 1] = 0
            return out

        mut = MapUnderTest(QuasiOrder.full(3), phi, "phi", stacked=stacked)
        with pytest.raises(ValueError, match=r"phi\(E_\{1,2\}\) concentrates at \(3, 2\)"):
            classify_unit_action(mut)

    def test_misplaced_image_names_plain_indices(self, fan4):
        def phi(X):
            out = np.diag(np.diag(X)).astype(complex)
            out[1, 1] += X[0, 2] + X[0, 3]  # E_13 and E_14 land on E_22
            return out

        with pytest.raises(ValueError, match=r"concentrates at \(2, 2\), not at \(1,3\)"):
            classify_unit_action(MapUnderTest(fan4, phi, "phi"))


class TestGallery:
    def test_scaling_breaks_spectrum_only(self, fan4):
        rep = verify_preserver(remark_gallery(fan4, "scaling"), n_samples=200, seed=0)
        assert not rep.spectrum.ok and rep.spectrum.witnesses
        assert rep.commutativity.ok and rep.injectivity.ok
        assert rep.additivity.ok and rep.homogeneity.ok

    def test_det_twist_breaks_commutativity(self):
        t3 = upper_triangular(3)
        rep = verify_preserver(remark_gallery(t3, "det_twist"),
                               n_samples=300, seed=0)
        assert rep.spectrum.ok
        assert not rep.commutativity.ok and rep.commutativity.witnesses
        assert rep.injectivity.ok

    def test_diag_shift_linear_spectrum_preserver(self):
        d4 = QuasiOrder.diagonal(4)
        mut = remark_gallery(d4, "diag_shift")
        rep = verify_preserver(mut, n_samples=300, seed=0)
        assert rep.spectrum.ok and rep.injectivity.ok
        assert rep.additivity.ok and rep.homogeneity.ok
        assert not rep.commutativity.ok
        # linear but not Jordan: squares disagree
        X = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        fX = mut.eval(X)
        assert np.linalg.norm(mut.eval(X @ X) - fX @ fX) > 0.1

    def test_noninjective_jordan_on_t2(self):
        t2 = upper_triangular(2)
        mut = remark_gallery(t2, "noninjective_jordan")
        assert not np.any(mut.eval(matrix_unit(2, 1, 2)))
        rep = verify_preserver(mut, n_samples=300, seed=0)
        assert rep.spectrum.ok and rep.commutativity.ok
        assert not rep.injectivity.ok and rep.injectivity.witnesses
        assert rep.additivity.ok

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_recovery_rejects_noninjective_jordan(self, n):
        # truncation keeps every unit of a mutual pair and zeroes the first
        # strict one, the unit recovery names
        orders = [rho for rho in all_preorders(n) if any(
            (j, i) not in rho.pairs for i, j in rho.off_diagonal)]
        assert len(orders) == {2: 2, 3: 24, 4: 340}[n]
        for rho in orders:
            i, j = next(p for p in sorted(rho.off_diagonal) if p[::-1] not in rho.pairs)
            msg = f"phi(E_{{{i},{j}}}) is zero"
            with pytest.raises(RecoveryError, match=f"^{re.escape(msg)}$"):
                recover_form(remark_gallery(rho, "noninjective_jordan"), n_samples=1)

    @pytest.mark.parametrize("n, place", [(11, 73), (14, 133)])
    def test_noninjective_jordan_past_the_probes(self, n, place):
        # full on {1..n-2} plus the strict pair (n-1, n), which truncation
        # collapses: the last of the off-diagonal pairs, past the 64 probes
        # and, at n = 14, past the 128 samples of a batch
        rho = closure(n, {(i, j) for i in range(1, n - 1) for j in range(1, n - 1)}
                      | {(n - 1, n)})
        assert sorted(rho.off_diagonal).index((n - 1, n)) + 1 == place == len(rho.off_diagonal)
        rep = verify_preserver(remark_gallery(rho, "noninjective_jordan"),
                               n_samples=1000, seed=0)
        assert not rep.injectivity.ok and not rep.all_pass
        X, Y, _ = rep.injectivity.witnesses[0]
        assert [tuple(p) for p in np.argwhere(X != Y) + 1] == [(n - 1, n)]

    def test_every_control_fails_at_one_sample(self):
        # each control fails its property on the probes and one sample, on
        # every preorder with 2 to 4 points where it builds, and on two mutual
        # 3-blocks joined by (1, 4) under 20 seeds: a map that kills E_ij but
        # keeps E_ii must fail the injectivity probe (2E_ii, 2E_ii + E_ij)
        broken = {"scaling": "spectrum", "det_twist": "commutativity",
                  "diag_shift": "commutativity", "noninjective_jordan": "injectivity"}
        blocks6 = closure(6, {(i, j) for i in range(1, 4) for j in range(1, 4)}
                          | {(i, j) for i in range(4, 7) for j in range(4, 7)} | {(1, 4)})
        runs = [(rho, 0) for n in (2, 3, 4) for rho in all_preorders(n)]
        runs += [(blocks6, seed) for seed in range(20)]
        graded = dict.fromkeys(broken, 0)
        for rho, seed in runs:
            for kind, prop in broken.items():
                try:
                    mut = remark_gallery(rho, kind)
                except ValueError:
                    continue
                rep = verify_preserver(mut, n_samples=1, seed=seed)
                assert not getattr(rep, prop).ok, (kind, sorted(rho.off_diagonal), seed)
                graded[kind] += 1
        # 388 preorders, 366 of them not symmetric, and the 6-point order 20 times
        assert graded == {"scaling": 408, "det_twist": 405, "diag_shift": 2,
                          "noninjective_jordan": 386}

    def test_every_four_point_counterexample_at_one_sample(self):
        # each of the 179 maps breaks additivity on a unit probe, so one
        # sample and any seed give the expected verdict
        failing = [rho for rho in all_preorders(4) if not condition_i(rho)[0]]
        assert len(failing) == 179
        for seed in range(20):
            for rho in failing:
                rep = verify_preserver(counterexample(rho), n_samples=1, seed=seed)
                assert (rep.spectrum.ok and rep.commutativity.ok and rep.injectivity.ok
                        and not rep.additivity.ok), (sorted(rho.off_diagonal), seed)

    @pytest.mark.parametrize("kind,rho_builder", [
        ("det_twist", lambda: QuasiOrder.diagonal(4)),
        ("diag_shift", lambda: upper_triangular(3)),
        ("noninjective_jordan", lambda: QuasiOrder.full(3)),
    ])
    def test_inapplicable_kinds_raise(self, kind, rho_builder):
        with pytest.raises(ValueError):
            remark_gallery(rho_builder(), kind)

    def test_unknown_kind(self, fan4):
        with pytest.raises(ValueError, match="unknown"):
            remark_gallery(fan4, "nonsense")


class TestHarness:
    def test_identity_all_pass(self, cocycle7):
        rep = verify_preserver(identity_map(cocycle7), n_samples=200, seed=0)
        assert rep.all_pass
        for verdict in rep._verdicts().values():
            assert verdict.checked > 0 and not verdict.witnesses

    def test_transpose_passes_on_symmetric(self, two_blocks6):
        rep = verify_preserver(transpose_map(two_blocks6), n_samples=200, seed=0)
        assert rep.all_pass

    def test_determinism(self, fan4):
        a = verify_preserver(counterexample(fan4), n_samples=150, seed=3).to_dict()
        b = verify_preserver(counterexample(fan4), n_samples=150, seed=3).to_dict()
        assert a == b

    def test_report_serializes(self, fan4):
        import json

        rep = verify_preserver(counterexample(fan4), n_samples=100, seed=0)
        blob = json.dumps(rep.to_dict(), sort_keys=True)
        assert "additivity" in blob and not rep.all_pass


# sha256 of jsonio.dump_json(report.to_dict()), recorded before the harness
# became table driven; any change to draws, checks or encoding shows here.
# scaling-fan4 was re-recorded when spectrum moved to the determinant check,
# again when the circle's radius came from X alone, and again when the
# determinants came from rho's mutual-class blocks: each time only the `err`
# of its three spectrum witnesses changed.
PINNED_REPORTS = [
    ("fan4", lambda rho: verify_preserver(counterexample(rho), n_samples=150, seed=3),
     "ca6acba69a8fba040766e0e40ab70ea9400e5c4add48014145e444ded486fd1e"),
    ("sympair3", lambda rho: verify_preserver(counterexample(rho)),
     "25a14fe5ad6fa25a14ebe59f020a9b81acfe37a9643a5ca5c0878491f9187e8d"),
    ("fan4", lambda rho: verify_preserver(remark_gallery(rho, "scaling")),
     "45ea751d0299449af543c9674cc7ae3ade7fc71f540bc04e0a81b7f2b93f9cdd"),
    ("cocycle7", lambda rho: verify_preserver(identity_map(rho)),
     "7434cae9cf557960724991a838bf52aacc544cf4e45aee74cd44a5b0523db935"),
]


@pytest.mark.kernel  # witness bytes and their order
@pytest.mark.parametrize("fixture,grade,digest", PINNED_REPORTS,
                         ids=["counterexample-fan4-seed3", "counterexample-sympair3",
                              "scaling-fan4", "identity-cocycle7"])
def test_report_bytes_pinned(request, fixture, grade, digest):
    import hashlib

    from smalg import jsonio

    report = grade(request.getfixturevalue(fixture))
    assert hashlib.sha256(jsonio.dump_json(report.to_dict()).encode()).hexdigest() == digest


# one sha256 over the report bytes of the counterexample on every
# criterion-failing 4-point preorder (100 samples), in all_preorders order, at
# seed 0 and then at seed 5; recorded before the harness graded stacked samples
SWEEP4_DIGEST = "c1033593cac5fc0df961c22326575fef6ed36b67fd22fafb1de3c059963825e2"


@pytest.mark.kernel  # witness bytes and their order
def test_four_point_sweep_bytes_pinned():
    import hashlib

    from smalg import jsonio

    failing = [rho for rho in all_preorders(4) if not condition_i(rho)[0]]
    assert len(failing) == 179
    digest = hashlib.sha256()
    for seed in (0, 5):
        for rho in failing:
            report = verify_preserver(counterexample(rho), n_samples=100, seed=seed)
            digest.update(jsonio.dump_json(report.to_dict()).encode())
    assert digest.hexdigest() == SWEEP4_DIGEST


@pytest.mark.parametrize("cond", [1.0, 1e2, 1e4])
def test_conjugated_sweep_stays_as_expected(cond):
    # S phi(X) S^-1 leaves the algebra, so its spectrum takes the LUs where
    # phi's own takes the blocks; every counterexample of the 4-point sweep
    # keeps its verdict either way
    rng = np.random.default_rng(4)
    S = unitary(rng, 4) @ np.diag(np.geomspace(1.0, 1.0 / cond, 4)) @ unitary(rng, 4)
    Sinv = np.linalg.inv(S)
    failing = [rho for rho in all_preorders(4) if not condition_i(rho)[0]]
    for seed in (0, 5):
        for rho in failing:
            phi = counterexample(rho)
            mut = MapUnderTest(rho, lambda X, phi=phi: S @ phi.eval(X) @ Sinv, phi.label,
                               stacked=True)
            rep = verify_preserver(mut, n_samples=100, seed=seed)
            assert (rep.spectrum.ok and rep.commutativity.ok and rep.injectivity.ok
                    and not rep.additivity.ok), (rho.pairs, seed)


def unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def large_embedding(n, shape):
    """A Jordan embedding with cond(S) <= 50: an automorphism of the full
    algebra, or an anti-automorphism of the upper-triangular one."""
    rng = np.random.default_rng(n)
    rho = QuasiOrder.full(n) if shape == "full" else upper_triangular(n)
    sigma = np.exp(rng.uniform(0.0, np.log(50.0), n))
    S = unitary(rng, n) @ np.diag(sigma) @ unitary(rng, n)
    assert np.linalg.cond(S) <= 50.0 + 1e-9
    sep = dict(enumerate(np.exp(rng.uniform(-1.0, 1.0, n)), start=1))
    bit = 1 if shape == "full" else 0
    return rho, build_embedding(JordanSpec(rho, S, coboundary(rho, sep),
                                           CentralIdempotent((bit,) * n)))


@pytest.mark.kernel  # slogdet on the mutual-class blocks follows the kernel
class TestSpectrumOracle:
    @pytest.mark.parametrize("n", [24, 32])
    @pytest.mark.parametrize("shape", ["full", "upper"])
    def test_large_embeddings_pass_and_scaling_fails(self, n, shape):
        rho, phi = large_embedding(n, shape)
        rep = verify_preserver(MapUnderTest(rho, phi, "embedding"), n_samples=20, seed=0)
        assert rep.spectrum.ok and rep.spectrum.checked == 22
        scaled = verify_preserver(remark_gallery(rho, "scaling"), n_samples=20, seed=0)
        assert not scaled.spectrum.ok

    @pytest.mark.parametrize("c", [0.0, 1e6, 1e9, 1e12])
    def test_large_image_cannot_hide_a_spectrum_change(self, c):
        # phi(X) = 2X + c E_14 doubles every eigenvalue on T_4; a circle whose
        # radius followed |phi(X)|_F would shrink the error to about 1/c
        t4 = upper_triangular(4)
        E14 = matrix_unit(4, 1, 4)
        mut = MapUnderTest(t4, lambda X: 2.0 * X + c * E14, "doubling-shift")
        rep = verify_preserver(mut, n_samples=50, seed=0)
        assert not rep.spectrum.ok
        assert min(float(err) for _, _, err in rep.spectrum.witnesses) > 0.1

    def test_non_finite_map_fails_every_property(self, fan4):
        def phi(X):
            return np.full(X.shape, np.nan, dtype=complex)

        verdicts = list(verify_preserver(MapUnderTest(fan4, phi, "nan"),
                                         n_samples=20)._verdicts().values())
        assert len(verdicts) == 5
        assert not any(v.ok for v in verdicts)
        assert all(v.checked > 0 and v.witnesses for v in verdicts)


# preorders whose mutual classes have sizes 1, 2 and 3, contiguous or not
BLOCK_PREORDERS = {
    "classes-1-2-3": closure(6, {(2, 3), (3, 2), (4, 5), (5, 6), (6, 4), (1, 2), (3, 4)}),
    "scattered-8": closure(8, {(1, 5), (5, 1), (2, 4), (4, 7), (7, 2), (3, 1), (1, 2),
                               (6, 8), (3, 6)}),
    "upper-8": upper_triangular(8),
    "diagonal-5": QuasiOrder.diagonal(5),
    "full-4": QuasiOrder.full(4),
}


@pytest.mark.kernel  # slogdet on the mutual-class blocks follows the kernel
class TestBlockSpectrum:
    """preservers._spectrum_error against the all-LU error of lemmas."""

    @staticmethod
    def images(rho, kind, rng):
        """(X, phi(X)): X in the algebra, and phi(X) in it, off it, or rows of
        both kinds in one stack."""
        n = rho.n
        X = _sma_stack(rho, rng.standard_normal((12, 2 * n * n)))
        d = rng.uniform(0.5, 2.0, n)
        inside = d[:, None] * X / d  # D X D^-1: in the algebra, same spectrum
        S = random_invertible(n, rng)
        outside = S @ X @ np.linalg.inv(S)
        fX = {"inside": inside, "outside": outside, "doubled": 2.0 * X,
              "shifted": X + 1e-3 * np.eye(n)}.get(kind)
        if kind == "mixed":  # in, off, doubled, shifted, in turn
            fX = np.stack([inside, outside, 2.0 * X, X + 1e-3 * np.eye(n)], axis=1)
            fX = fX[np.arange(len(X)), np.arange(len(X)) % 4]
        return X, fX

    @staticmethod
    def assert_matches(rho, X, fX):
        from smalg.preservers import _spectrum_classes, _spectrum_error

        run = SimpleNamespace(tol=1e-8, classes=_spectrum_classes(rho))
        failed, (_, _, err) = _spectrum_error(run, X, fX)
        ref_failed, (_, _, ref) = spectrum_error_lu(1e-8, X, fX)
        assert np.array_equal(failed, ref_failed)
        assert np.array_equal(np.isnan(err), np.isnan(ref))
        finite = ~np.isnan(ref)
        assert np.all(np.abs(err - ref)[finite] <= 1e-12 * np.fmax(1.0, ref[finite]))
        if len(rho.pairs) == rho.n ** 2:  # one class: exactly the reference's LUs
            assert np.array_equal(err, ref, equal_nan=True)
        return failed

    @pytest.mark.parametrize("kind", ["inside", "outside", "doubled", "shifted", "mixed"])
    @pytest.mark.parametrize("name", list(BLOCK_PREORDERS))
    def test_matches_lu_reference(self, name, kind):
        rho = BLOCK_PREORDERS[name]
        X, fX = self.images(rho, kind, np.random.default_rng(len(name)))
        failed = self.assert_matches(rho, X, fX)
        assert failed.any() == (kind in ("doubled", "shifted", "mixed"))

    @pytest.mark.parametrize("name", list(BLOCK_PREORDERS))
    def test_nan_on_rho_fails(self, name):
        # NaN on a diagonal entry, and on each pair of rho in turn: a pair
        # between two classes is in no block, and must still fail
        rho = BLOCK_PREORDERS[name]
        X, fX = self.images(rho, "inside", np.random.default_rng(1))
        pairs = [(0, 0)] + sorted((i - 1, j - 1) for i, j in rho.off_diagonal)
        for b, (i, j) in enumerate(pairs[:len(X)]):
            fX[b, i, j] = np.nan
        failed = self.assert_matches(rho, X, fX)
        assert np.array_equal(failed, np.arange(len(X)) < len(pairs))

    @pytest.mark.parametrize("name", [name for name, rho in BLOCK_PREORDERS.items()
                                      if len(rho.pairs) < rho.n ** 2])
    def test_subnormal_off_rho_takes_lu(self, monkeypatch, name):
        # phi(X) = X plus 5e-324 at one entry off rho: that row alone goes
        # through the n shifted n x n LUs
        from smalg import preservers

        rho = BLOCK_PREORDERS[name]
        X, fX = self.images(rho, "inside", np.random.default_rng(2))
        i, j = np.argwhere(~rho.mask)[0]
        fX[3, i, j] += 5e-324
        shapes, inner = [], preservers._shifted_slogdet
        monkeypatch.setattr(preservers, "_shifted_slogdet",
                            lambda A, z, buf: shapes.append(A.shape) or inner(A, z, buf))
        assert not self.assert_matches(rho, X, fX).any()
        assert [shape for shape in shapes if shape[-1] == rho.n] == [(1, rho.n, rho.n)]


class TestSamplingInput:
    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0}, {"n_samples": -5},
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0}, {"tol": -1e-8},
    ])
    def test_vacuous_settings_rejected(self, fan4, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            verify_preserver(remark_gallery(fan4, "scaling"), **kwargs)

    def test_numpy_integer_seed_is_the_int_seed(self, fan4):
        from smalg import jsonio

        def report(seed):
            return jsonio.dump_json(verify_preserver(counterexample(fan4), n_samples=150,
                                                     seed=seed).to_dict())

        assert report(np.int64(3)) == report(3)

    def test_numpy_integer_sample_count_is_the_int_count(self, fan4):
        from smalg import jsonio

        def report(n_samples):
            return jsonio.dump_json(verify_preserver(counterexample(fan4), n_samples=n_samples,
                                                     seed=3).to_dict())

        assert report(np.int64(3)) == report(3)

    @pytest.mark.parametrize("seed", [-1, 3.0, True, np.random.default_rng(3)],
                             ids=["negative", "float", "bool", "generator"])
    def test_bad_seed_rejected(self, fan4, seed):
        from smalg.jordan import recover_form

        with pytest.raises(ValueError, match="^seed must be >= 0 and an integer"):
            verify_preserver(counterexample(fan4), n_samples=10, seed=seed)
        with pytest.raises(ValueError, match="^seed must be >= 0 and an integer"):
            recover_form(identity_map(upper_triangular(4)), seed=seed)

    def test_unchecked_verdict_is_not_ok(self):
        from smalg.preservers import PropertyVerdict

        assert not PropertyVerdict().ok
        assert PropertyVerdict(checked=1).ok

    @pytest.mark.parametrize("pairs, count", [({(1, 3), (1, 4), (2, 3), (2, 4)}, 88),
                                              ({(1, 2), (2, 1), (1, 3), (4, 3)}, 96)],
                             ids=["fan4", "mixed"])
    def test_phi_runs_once_per_input(self, pairs, count):
        rho, inputs = closure(4, pairs), []

        def phi(X):
            inputs.append(X)  # keeps every input alive, so ids stay distinct
            return np.array(X, dtype=complex)

        n_samples = 10
        rep = verify_preserver(MapUnderTest(rho, phi, "counted"), n_samples=n_samples, seed=0)
        assert rep.all_pass
        assert len({id(X) for X in inputs}) == len(inputs)
        # 2 spectrum probes and 4 unit probes per pair (2E_ii, 2E_ii + E_ij,
        # E_ij and 2E_ii + 2E_ij), 2 more per pair whose (j, i) is in rho
        # (E_ji and E_ij + E_ji; the fan has none), then 7 per sample
        flips = sum((j, i) in rho.pairs for i, j in rho.off_diagonal)
        assert len(inputs) == 2 + 4 * len(rho.off_diagonal) + 2 * flips + 7 * n_samples == count

    @pytest.mark.parametrize("pairs", [{(1, 3), (1, 4), (2, 3), (2, 4)},
                                       {(1, 2), (2, 1), (1, 3), (4, 3)}])
    def test_stacked_phi_sees_each_input_once(self, pairs):
        # the stacked twin of the test above: the inputs of the per-matrix
        # calls, each once, in stacks; the second rho has pairs with and
        # without their flip (j, i), so its unit probes split into two families
        rho = closure(4, pairs)
        singles, rows = [], []

        def phi(X):
            singles.append(X.copy())
            return np.array(X, dtype=complex)

        def stacked_phi(X):
            assert X.ndim == 3
            rows.extend(X)
            return np.array(X, dtype=complex)

        n_samples = 10
        one = verify_preserver(MapUnderTest(rho, phi, "counted"), n_samples=n_samples, seed=0)
        rep = verify_preserver(MapUnderTest(rho, stacked_phi, "counted", stacked=True),
                               n_samples=n_samples, seed=0)
        assert rep.all_pass and rep.to_dict() == one.to_dict()
        assert len(singles) >= 2 + 3 * len(rho.off_diagonal) + 7 * n_samples
        assert sorted(X.tobytes() for X in rows) == sorted(X.tobytes() for X in singles)

    @pytest.mark.parametrize("case, n_samples, chunks", [
        ("fan4", 100, 1), ("full4", 256, 1), ("full6", 1000, 5), ("upper24", 20, 6)],
        ids=["fan4", "full4", "full6", "upper24"])
    def test_stacked_phi_called_once_per_chunk(self, fan4, case, n_samples, chunks):
        # the probed pairs and then the samples are graded _stack_step(n)
        # units at a time, and a stacked map gets one call per chunk: fan4's
        # 4 pairs and 100 samples fit in one chunk of 512, as do full M_4's 12
        # pairs and 256 samples; full M_6's 30 pairs and 1000 samples fill five
        # chunks of 227; T_24 probes 64 of its 276 pairs, which with 20
        # samples fill six chunks of 14
        if case == "fan4":
            mut = counterexample(fan4)
        elif case.startswith("full"):
            mut = identity_map(QuasiOrder.full(int(case[4:])))
        else:
            rho, phi = large_embedding(24, "upper")
            mut = MapUnderTest(rho, phi, "embedding", stacked=True)
        calls, inner = [], mut.eval

        def counted(X):
            calls.append(len(X))
            return inner(X)

        mut.eval = counted
        rep = verify_preserver(mut, n_samples=n_samples, seed=0)
        assert rep.all_pass == (case != "fan4")
        assert len(calls) == chunks

    @pytest.mark.parametrize("stacked", [False, True], ids=["per_matrix", "stacked"])
    def test_peak_memory_bounded_at_n32(self, stacked):
        # samples are graded 8 at a time at n = 32, the 2^13 entries of
        # _stack_step, so the spectrum check's shift stack is 4 MB and the
        # traced peak of a full-M_32 embedding stays below 8 MB over 100
        # samples, whether the map takes one matrix per call or, as for
        # `verify --spec`, a chunk's stack
        import tracemalloc

        rho, phi = large_embedding(32, "full")
        mut = MapUnderTest(rho, phi, "embedding", stacked=stacked)
        tracemalloc.start()
        try:
            rep = verify_preserver(mut, n_samples=100, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.all_pass
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.kernel  # witness bytes and their order
class TestStackSize:
    """The harness grades probes and samples _stack_step(n) at a time; no
    report byte depends on that size."""

    @pytest.mark.parametrize("n, n_samples", [(4, 600), (8, 150), (24, 20)])
    def test_report_bytes_do_not_depend_on_it(self, monkeypatch, n, n_samples):
        # at n = 4 the default chunk spans several generator batches of 128
        import json

        from smalg import jsonio, preservers

        assert preservers._stack_step(n) == {4: 512, 8: 128, 24: 14}[n]
        rho, phi = large_embedding(n, "upper")
        maps = [MapUnderTest(rho, phi, "embedding", stacked=True),
                remark_gallery(rho, "scaling"), remark_gallery(rho, "det_twist")]

        def reports():
            return [jsonio.dump_json(verify_preserver(mut, n_samples=n_samples, seed=7).to_dict())
                    for mut in maps]

        default = reports()
        assert [json.loads(rep)["all_pass"] for rep in default] == [True, False, False]
        for size in (1, 3):
            monkeypatch.setattr(preservers, "_stack_step", lambda n: size)
            assert reports() == default

    def test_mixed_order_bytes_do_not_depend_on_it(self, monkeypatch):
        # only some pairs have their flip here, so a chunk's unit probes split
        # into two families; the block twist breaks additivity on the flip
        # probe E_12 + E_21
        import json

        from smalg import jsonio, preservers

        mut = counterexample(closure(4, {(1, 2), (2, 1), (3, 4)}))
        assert (mut.case, mut.r, mut.s) == (1, 1, 2)

        def report():
            return jsonio.dump_json(verify_preserver(mut, n_samples=150, seed=7).to_dict())

        default = report()
        props = json.loads(default)["properties"]
        assert [name for name, v in props.items() if not v["ok"]] == ["additivity"]
        X, Y, _ = props["additivity"]["witnesses"][0]
        assert np.array_equal(np.array(X)[..., 0], matrix_unit(4, 1, 2).real)
        assert np.array_equal(np.array(Y)[..., 0], matrix_unit(4, 2, 1).real)
        for size in (1, 3):
            monkeypatch.setattr(preservers, "_stack_step", lambda n: size)
            assert report() == default


class TestStacks:
    @pytest.mark.parametrize("n", [3, 4, 8, 32])
    def test_norms_match_numpy_bit_for_bit(self, n):
        from smalg.preservers import _norms

        rng = np.random.default_rng(n)
        A = rng.standard_normal((64, n, n)) + 1j * rng.standard_normal((64, n, n))
        assert np.array_equal(_norms(A), [np.linalg.norm(a) for a in A])

    def test_stacked_pairs_are_sequential_pairs(self, cocycle7):
        # one block of normals for four samples gives the pairs that four
        # sample-by-sample calls draw from the same generator
        n = cocycle7.n
        X, Y = _commuting_pairs(cocycle7, np.random.default_rng(5).standard_normal(
            (4, 2 * n * n + 4 * n)))
        rng = np.random.default_rng(5)
        for k in range(4):
            x, y = _commuting_pairs(cocycle7, rng.standard_normal((1, 2 * n * n + 4 * n)))
            assert np.array_equal(x[0], X[k]) and np.array_equal(y[0], Y[k])


# every map smalg builds, on a rho it applies to; the embeddings are the ones
# `cli._build_map` wraps
STACKED_MAPS = {
    "identity": lambda: identity_map(upper_triangular(4)),
    "transpose": lambda: transpose_map(closure(4, {(1, 2), (2, 1), (3, 4), (4, 3)})),
    "case1": lambda: counterexample(closure(3, {(1, 2), (2, 1)})),
    "case2": lambda: counterexample(closure(4, {(1, 3), (1, 4), (2, 3), (2, 4)})),
    "scaling": lambda: remark_gallery(QuasiOrder.full(4), "scaling"),
    "det_twist": lambda: remark_gallery(upper_triangular(4), "det_twist"),
    "diag_shift": lambda: remark_gallery(QuasiOrder.diagonal(4), "diag_shift"),
    "truncation": lambda: remark_gallery(upper_triangular(4), "noninjective_jordan"),
    "embedding-8": lambda: MapUnderTest(*large_embedding(8, "full"), "embedding", stacked=True),
    "embedding-32": lambda: MapUnderTest(*large_embedding(32, "upper"), "embedding",
                                         stacked=True),
}


def edge_stack(mut, rng, B=64):
    """Random elements of the algebra at mixed scales, plus the rows where
    the maps branch: zero matrices, and for the counterexamples b == 0
    (case 1), u == 0 and |u| == |v| (case 2)."""
    rho, n = mut.domain, mut.domain.n
    A = rng.standard_normal((B, n, n)) + 1j * rng.standard_normal((B, n, n))
    A *= 10.0 ** rng.uniform(-3, 3, (B, 1, 1))
    A = np.where(rho.mask, A, 0.0)
    A[:4] = 0.0
    if isinstance(mut, CounterexampleMap):
        r, s = mut.r - 1, mut.s - 1
        A[4:8, r, s] = A[4:8, s, r] = 0.0
        A[8:12, s, s] = A[8:12, r, r]
        u = A[12:24, s, s] - A[12:24, r, r]
        A[12:24, r, s] = np.concatenate([u[:4], -u[4:8], 1j * u[8:].conj()])
    return A


# `embed` and `recover` read the units through a spec's stacked map
@pytest.mark.kernel
@pytest.mark.parametrize("name", list(STACKED_MAPS))
def test_stacked_eval_is_per_matrix_eval(name):
    mut = STACKED_MAPS[name]()
    assert mut.stacked
    A = edge_stack(mut, np.random.default_rng(len(name)))
    got = mut.eval(A)
    want = np.stack([mut.eval(a) for a in A])
    assert got.shape == want.shape == A.shape
    assert np.array_equal(bits(got), bits(want))
    if name == "case2":
        # case2_kink is the scalar reference of the stacked kink
        r, s = mut.r - 1, mut.s - 1
        kink = [case2_kink(a[s, s] - a[r, r], a[r, s]) for a in A]
        assert np.array_equal(bits(got[:, r, s]), bits(np.array(kink, dtype=complex)))


# maps on full M_3 whose images have the wrong shape, with that shape: numpy
# would broadcast a per-matrix scalar or row into a full image, and a stacked
# map's scalar or single matrix fails deep inside the grading or the recovery
WRONG_SHAPES = {
    "per-matrix-scalar": (False, lambda X: np.trace(X), "()"),
    "per-matrix-row": (False, lambda X: np.array(X)[0], "(3,)"),
    "stacked-scalar": (True, lambda X: 1.0, "()"),
    "stacked-matrix": (True, lambda X: np.array(X)[0], "(3, 3)"),
}


@pytest.mark.parametrize("entry", ["verify_preserver", "classify_unit_action", "recover_form"])
@pytest.mark.parametrize("case", list(WRONG_SHAPES))
def test_wrong_image_shape_reported(entry, case):
    full3 = QuasiOrder.full(3)
    stacked, eval_, shape = WRONG_SHAPES[case]
    mut = MapUnderTest(full3, eval_, "bad-shape", stacked=stacked)
    call, error = {
        "verify_preserver": (lambda: verify_preserver(mut, n_samples=10), ValueError),
        "classify_unit_action": (lambda: classify_unit_action(mut), ValueError),
        "recover_form": (lambda: recover_form(mut), RecoveryError),
    }[entry]
    with pytest.raises(error) as exc:
        call()
    want = re.escape(f"map 'bad-shape' returned an image of shape {shape} for an input of shape (")
    assert exc.type is error
    assert re.fullmatch(want + (r"\d+, 3, 3\)" if stacked else r"3, 3\)"), str(exc.value))


def bits(A):
    """The complex entries of A as uint64 pairs, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(A).view(np.uint64)

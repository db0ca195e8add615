"""Acceptance battery.

One test per acceptance criterion, each at its stated tolerance and time
budget, printing one [PASS]/[FAIL] line (run with `pytest -s` to see them all).
"""

import collections
import time

import numpy as np
import pytest

from smalg.quasiorder import (
    QuasiOrder,
    all_preorders,
    block_triangular_permutation,
    closure,
    condition_i,
    is_two_free,
)
from smalg.matalg import _sma_stack, in_sma, matrix_unit, rank_one_closure_member
from smalg.cocycle import Nontrivial, TransitiveMap, induced_auto, triviality, validate
from smalg.jordan import (
    CentralIdempotent,
    JordanSpec,
    RecoveryError,
    build_embedding,
    central_idempotents,
    recover_form,
)
from smalg.preservers import (MapUnderTest, _block_twist, _commuting_pairs, _kink,
                              counterexample, verify_preserver)
from smalg import jsonio

from generators import random_invertible, random_preorder, random_transitive
from lemmas import flat, sharp

# the counterexamples' spectrum is held to tol = 1e-12, and every 4-point
# order recovers its embeddings and rejects its counterexample, on each kernel
pytestmark = pytest.mark.kernel


def announce(name, t0, failed=False):
    status = "FAIL" if failed else "PASS"
    print(f"[{status}] {name} ({time.time() - t0:.2f}s)")


def fan_pattern():
    return jsonio.quasiorder_from_dict(
        {"n": 4, "pairs": [[i, i] for i in range(1, 5)]
         + [[1, 3], [1, 4], [2, 3], [2, 4]]})


def test_acceptance_fan_pattern_reproduction():
    """Loader accepts the 4x4 fan; rank-one closure excludes the displayed
    matrix; the criterion fails with a witness; all under one second."""
    t0 = time.time()
    rho, added = fan_pattern()
    assert added == []
    A = np.zeros((4, 4), dtype=complex)
    A[0, 2:] = 1
    A[1, 2:] = 1
    assert in_sma(A, rho)
    member, _ = rank_one_closure_member(A, rho)
    assert member is False
    holds, witness = condition_i(rho)
    assert holds is False and witness == (1, 3)
    assert time.time() - t0 < 1.0
    announce("fan pattern reproduction (< 1 s)", t0)


def test_acceptance_seven_point_pattern_reproduction():
    """Criterion holds; the 2-valued map is transitive and nontrivial; the
    induced automorphism hits the displayed matrix exactly and doubles rank."""
    t0 = time.time()
    pairs = {(i, j) for i in range(1, 4) for j in range(4, 8)}
    pairs |= {(1, 3), (4, 5), (6, 7)}
    rho = closure(7, pairs)
    assert len(rho.pairs) == 22  # input already closed
    holds, _ = condition_i(rho)
    assert holds
    g = TransitiveMap(rho, {p: (2.0 if p in {(2, 4), (2, 5)} else 1.0)
                            for p in rho.off_diagonal})
    assert validate(g) == (True, None)
    assert isinstance(triviality(g), Nontrivial)
    X = sum(matrix_unit(7, i, j) for (i, j) in [(1, 4), (1, 6), (2, 4), (2, 6)])
    got = induced_auto(g)(X)
    want = (matrix_unit(7, 1, 4) + matrix_unit(7, 1, 6)
            + 2 * matrix_unit(7, 2, 4) + matrix_unit(7, 2, 6))
    assert np.array_equal(got, want)
    assert np.linalg.svd(got, compute_uv=False)[1] > 0.3
    assert time.time() - t0 < 1.0
    announce("7-point nontrivial-cocycle reproduction (< 1 s)", t0)


def test_acceptance_two_block_embedding():
    """First-block idempotent gives a Jordan embedding that is neither
    multiplicative nor antimultiplicative: recovery (tol 1e-8, 1000 samples)
    keeps units in place and transposes others, and each product rule fails
    on a pair of units."""
    t0 = time.time()
    rho = closure(6, {(i, j) for i in range(1, 4) for j in range(1, 4)}
                  | {(i, j) for i in range(4, 7) for j in range(4, 7)})
    P = CentralIdempotent((1, 1, 1, 0, 0, 0))
    phi = build_embedding(JordanSpec(rho, np.eye(6, dtype=complex),
                                     TransitiveMap.constant_one(rho), P))
    rec = recover_form(MapUnderTest(rho, phi, "phi"), n_samples=1000, tol=1e-8, seed=0)
    kept, flipped = sorted(rec.rho_m.off_diagonal), sorted(rec.rho_a.off_diagonal)
    assert kept and flipped
    # a transposed pair breaks phi(XY) = phi(X)phi(Y), a kept one the reverse
    for (i, j), reverse in ((next(p for p in flipped if p[::-1] in rho.pairs), False),
                            (next(p for p in kept if p[::-1] in rho.pairs), True)):
        E, F = matrix_unit(6, i, j), matrix_unit(6, j, i)
        want = phi(F) @ phi(E) if reverse else phi(E) @ phi(F)
        assert np.linalg.norm(phi(E @ F) - want) > 1e-8
    announce("two-block Jordan embedding, no product rule", t0)


def test_acceptance_strict_pair_counterexample():
    """The kink map on the fan: exact broken-sum witness, characteristic
    polynomials equal to 1e-12, commutators below 1e-8, additivity fails."""
    t0 = time.time()
    rho, _ = fan_pattern()
    mut = counterexample(rho)
    assert mut.case == 2 and (mut.r, mut.s) == (1, 3)
    E11, E13 = matrix_unit(4, 1, 1), matrix_unit(4, 1, 3)
    assert np.array_equal(mut.eval(2 * E11 + E13), 2 * E11 + 0.5 * E13)

    report = verify_preserver(mut, n_samples=1000, tol=1e-8, seed=0)
    assert report.commutativity.ok
    # spectrum to 1e-12, on the same samples: the draws do not depend on tol
    assert verify_preserver(mut, n_samples=1000, tol=1e-12, seed=0).spectrum.ok
    assert not report.additivity.ok
    # absolute commutator bound over seeded commuting pairs, one row of
    # normals from each seed's generator
    worst, n = 0.0, rho.n
    Z = np.concatenate([np.random.default_rng(seed).standard_normal((1, 2 * n * n + 4 * n))
                        for seed in range(1000)])
    for X, Y in zip(*_commuting_pairs(rho, Z)):
        fX, fY = mut.eval(X), mut.eval(Y)
        worst = max(worst, float(np.linalg.norm(fX @ fY - fY @ fX)))
    assert worst < 1e-8
    announce(f"strict-pair counterexample (worst commutator {worst:.1e})", t0)


def test_acceptance_symmetric_block_counterexample():
    """The 2x2 block twist: trace and determinant preserved to 1e-12,
    commutativity sampling clean, the unit-pair sum breaks additivity."""
    t0 = time.time()
    rho = closure(3, {(1, 2), (2, 1)})
    mut = counterexample(rho)
    assert mut.case == 1 and (mut.r, mut.s) == (1, 2)

    rng = np.random.default_rng(0)
    for _ in range(1000):
        X = _sma_stack(rho, rng.standard_normal((1, 2 * 3 * 3)))[0]
        fX = mut.eval(X)
        assert abs(np.trace(fX) - np.trace(X)) < 1e-12 * max(1.0, abs(np.trace(X)))
        dX, dfX = np.linalg.det(X), np.linalg.det(fX)
        assert abs(dfX - dX) < 1e-12 * max(1.0, abs(dX))

    report = verify_preserver(mut, n_samples=1000, tol=1e-8, seed=0)
    assert report.commutativity.ok
    # spectrum to 1e-12, on the same samples: the draws do not depend on tol
    assert verify_preserver(mut, n_samples=1000, tol=1e-12, seed=0).spectrum.ok

    E12, E21 = matrix_unit(3, 1, 2), matrix_unit(3, 2, 1)
    assert np.allclose(mut.eval(E12), -E12)           # f(0) = -1
    assert np.allclose(mut.eval(E12 + E21), 1j * (E12 - E21))  # f(1) = i
    assert np.linalg.norm(mut.eval(E12) + mut.eval(E21) - mut.eval(E12 + E21)) > 1
    assert not report.additivity.ok
    announce("symmetric-block counterexample", t0)


def transplants(n):
    """counterexample's two maps moved to every pair of every labeled preorder
    on n points where the criterion holds: the kink at each off-diagonal
    pair, and the block twist at each symmetric pair (r, s) with r < s."""
    for rho in all_preorders(n):
        if condition_i(rho)[0]:
            for r, s in sorted(rho.off_diagonal):
                yield _kink(rho, r, s)
                if r < s and (s, r) in rho.pairs:
                    yield _block_twist(rho, r, s)


@pytest.mark.parametrize("n,seeds,count", [(3, range(20), 57), (4, range(1), 1098)])
def test_acceptance_transplants_break_a_hypothesis(n, seeds, count):
    """Where the criterion holds, every preserver is a Jordan embedding, so no
    transplant of a counterexample keeps spectrum, commutativity and
    injectivity: each fails one of them at 1 sample, under every seed
    (15-second budget)."""
    t0 = time.time()
    maps = list(transplants(n))
    assert len(maps) == count
    for mut in maps:
        for seed in seeds:
            report = verify_preserver(mut, n_samples=1, seed=seed)
            assert not (report.spectrum.ok and report.commutativity.ok
                        and report.injectivity.ok), (sorted(mut.domain.off_diagonal), mut.label,
                                                     seed)
    assert time.time() - t0 < 15.0
    announce(f"{n}-point transplants: {count} maps x {len(seeds)} seeds break a hypothesis", t0)


def test_acceptance_three_point_block_triangular_equivalence():
    """Over all 29 preorders on 3 points (count verified), excluding the
    diagonal: the criterion holds iff some permutation makes the pattern a full
    block upper-triangular one."""
    t0 = time.time()
    preorders = list(all_preorders(3))
    assert len(preorders) == 29
    diagonal = QuasiOrder.diagonal(3)
    checked = 0
    for rho in preorders:
        if rho == diagonal:
            continue
        holds, _ = condition_i(rho)
        assert holds == block_triangular_permutation(rho).upper_exact, \
            sorted(rho.off_diagonal)
        checked += 1
    assert checked == 28
    assert time.time() - t0 < 5.0
    announce(f"3-point equivalence over {len(preorders)} preorders (< 5 s)", t0)


def test_acceptance_four_point_exhaustive_counterexamples():
    """Every preorder on 4 points failing the criterion admits a constructed
    map passing spectrum and commutativity sampling and failing additivity
    (200 samples per map, 10-minute budget), and recovery rejects each map:
    it is no Jordan embedding.  162 maps fail the round trip on samples, and
    the other 17 already give a g that breaks the cocycle law."""
    t0 = time.time()
    failing = [rho for rho in all_preorders(4) if not condition_i(rho)[0]]
    assert len(failing) == 179
    messages = collections.Counter()
    for rho in failing:
        mut = counterexample(rho)
        report = verify_preserver(mut, n_samples=200, tol=1e-8, seed=0)
        assert report.spectrum.ok, sorted(rho.off_diagonal)
        assert report.commutativity.ok, sorted(rho.off_diagonal)
        assert not report.additivity.ok, sorted(rho.off_diagonal)
        with pytest.raises(RecoveryError) as caught:
            recover_form(mut)
        messages[str(caught.value).split(" (")[0]] += 1  # the message up to its numbers
    assert messages == {
        "rebuilt map disagrees with phi": 162,
        "the g read from phi's unit images breaks the cocycle law at": 17,
    }
    assert time.time() - t0 < 600.0
    announce(f"4-point exhaustive: {len(failing)} counterexamples (< 10 min)", t0)


def test_acceptance_four_point_criterion_failing_embeddings_recover():
    """Every Jordan embedding has the (S, g, P) form whether or not the
    criterion holds: on each 4-point preorder failing it, with every central
    P, a fixed S and g = 1, recovery round trips to 1e-8 and returns the
    spec's P on every index that an off-diagonal pair touches."""
    t0 = time.time()
    rng = np.random.default_rng(4)
    S = 2 * np.eye(4) + (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 4
    trips = 0
    for rho in all_preorders(4):
        if condition_i(rho)[0]:
            continue
        touched = sorted({k - 1 for pair in rho.off_diagonal for k in pair})
        for P in central_idempotents(rho):
            spec = JordanSpec(rho, S, TransitiveMap.constant_one(rho), P)
            rec = recover_form(MapUnderTest(rho, build_embedding(spec), "phi", stacked=True))
            assert rec.max_unit_error <= 1e-8 and rec.max_sample_error <= 1e-8
            assert (np.array(rec.spec.P.diag_bits)[touched]
                    == np.array(P.diag_bits)[touched]).all(), (sorted(rho.off_diagonal), P)
            trips += 1
    assert trips == 568
    announce(f"4-point criterion-failing embeddings: {trips} recovered", t0)


def test_acceptance_recovery_round_trip():
    """100 random embedding specs over 10 random criterion-satisfying
    quasi-orders (n <= 6): recovery reproduces the map on units to 1e-8."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    patterns = []
    attempts = 0
    while len(patterns) < 10 and attempts < 5000:
        attempts += 1
        n = int(rng.integers(3, 7))
        rho = random_preorder(n, rng, p=float(rng.choice([0.2, 0.35, 0.5])))
        if condition_i(rho)[0] and not any(r == rho for r in patterns):
            patterns.append(rho)
    assert len(patterns) == 10

    worst_unit = worst_sample = 0.0
    trips = 0
    for qi, rho in enumerate(patterns):
        idems = central_idempotents(rho)
        for k in range(10):
            seed = qi * 10 + k
            srng = np.random.default_rng((2024, seed))
            spec = JordanSpec(
                rho,
                random_invertible(rho.n, srng, max_cond=50),
                random_transitive(rho, seed),
                idems[int(srng.integers(0, len(idems)))],
            )
            mut = MapUnderTest(rho, build_embedding(spec), "phi")
            recovered = recover_form(mut, tol=1e-8, seed=seed)
            worst_unit = max(worst_unit, recovered.max_unit_error)
            worst_sample = max(worst_sample, recovered.max_sample_error)
            trips += 1
    assert trips == 100
    assert worst_unit < 1e-8 and worst_sample < 1e-8
    announce(f"recovery round trip x100 (worst unit err {worst_unit:.1e})", t0)


def test_acceptance_criterion_implies_two_free():
    """Across all 355 preorders on 4 points, the criterion implies 2-freeness
    with zero exceptions."""
    t0 = time.time()
    count = 0
    for rho in all_preorders(4):
        count += 1
        if condition_i(rho)[0]:
            assert is_two_free(rho), sorted(rho.off_diagonal)
    assert count == 355
    announce("criterion implies 2-free over all 4-point preorders", t0)


def test_acceptance_insertion_deletion_algebra_laws():
    """Zero-row/column insertion is multiplicative and deletion inverts it,
    exactly, over 1000 random integer triples."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        X = rng.integers(-9, 10, (n, n)).astype(complex)
        Y = rng.integers(-9, 10, (n, n)).astype(complex)
        k = int(rng.integers(0, 3))
        S = sorted(rng.choice(np.arange(1, n + k + 1), size=k, replace=False).tolist())
        assert np.array_equal(sharp(X @ Y, S), sharp(X, S) @ sharp(Y, S))
        assert np.array_equal(flat(sharp(X, S), S), X)
        assert np.array_equal(flat(sharp(Y, S), S), Y)
    announce("insertion/deletion algebra laws, exact x1000", t0)

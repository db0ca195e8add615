"""Bad input at each layer, one case per rejection path: each raises a
ValueError (a RecoveryError past recovery's own checks) whose message says
what is wrong."""

import numpy as np
import pytest

from smalg.quasiorder import QuasiOrder, closure
from smalg.matalg import in_sma, matrix_unit, rank_one_closure_member
from smalg.cocycle import TransitiveMap, coboundary
from smalg.jordan import CentralIdempotent, JordanSpec, RecoveryError, recover_form, validate_spec
from smalg.preservers import MapUnderTest

from lemmas import classify_unit_action, upper_triangular

T2 = upper_triangular(2)
T3 = upper_triangular(3)
FULL3 = QuasiOrder.full(3)
ONES3 = CentralIdempotent((1, 1, 1))
G5 = TransitiveMap(FULL3, {p: 5.0 if p == (1, 2) else 1.0 for p in FULL3.off_diagonal})


def spec(S=np.eye(3), g=TransitiveMap.constant_one(T3), P=ONES3, rho=T3):
    return JordanSpec(rho, S, g, P)


def swap_13(X):
    """The identity with the (1,3) and (3,1) entries swapped: E_13 and E_31
    flip, every other unit is kept, so the kept pairs are not transitive."""
    out = np.array(X, dtype=complex)
    out[..., [0, 2], [2, 0]] = out[..., [2, 0], [0, 2]]
    return out


def moved_13(X):
    """The identity with the (1,3) entry moved to (3,1): E_12 and E_23 are
    kept and E_13 is flipped, so the kept pairs are not transitive."""
    out = np.array(X, dtype=complex)
    out[..., 2, 0], out[..., 0, 2] = out[..., 0, 2], 0
    return out


def doubled_12(X):
    """The identity with the (1,2) entry doubled: g(1,2) g(2,1) = 2 != g(1,1)."""
    out = np.array(X, dtype=complex)
    out[..., 0, 1] *= 2
    return out


# path -> (call, exception, message)
CASES = {
    "quasiorder.pair_out_of_range": (
        lambda: QuasiOrder(2, {(1, 1), (2, 2), (1, 3)}), ValueError,
        r"^pair \(1,3\) out of range for n=2$"),
    "quasiorder.float_pair_entry": (
        lambda: QuasiOrder(2, {(1, 1), (2, 2), (1.5, 2)}), ValueError,
        r"^pairs must be pairs of integers, got \(1\.5, 2\)$"),
    "quasiorder.closure_float_pair_entry": (
        lambda: closure(3, {(1.5, 2)}), ValueError,
        r"^pairs must be pairs of integers, got \(1\.5, 2\)$"),
    "quasiorder.bool_pair_entry": (
        lambda: QuasiOrder(2, {(True, True), (2, 2)}), ValueError,
        r"^pairs must be pairs of integers, got \(True, True\)$"),
    "quasiorder.pair_of_three": (
        lambda: closure(3, [(1, 2, 3)]), ValueError,
        r"^pairs must be pairs of integers, got \(1, 2, 3\)$"),
    "matalg.non_square_matrix": (
        lambda: in_sma(np.ones((2, 3)), T3), ValueError,
        r"^expected a square matrix, got shape \(2, 3\)$"),
    "matalg.rank_one_member_outside_the_algebra": (
        lambda: rank_one_closure_member(matrix_unit(3, 2, 1), T3), ValueError,
        "^matrix is not in the algebra of rho$"),
    "matalg.rank_one_member_wrong_size": (
        lambda: rank_one_closure_member(matrix_unit(4, 1, 2), T3), ValueError,
        "^matrix size does not match the quasi-order$"),
    "cocycle.bool_key": (
        lambda: TransitiveMap(T2, {(True, 2): 3.0}), ValueError,
        "^index must be an integer, got True$"),
    "cocycle.float_key": (
        lambda: TransitiveMap(T2, {(1.0, 2): 3.0}), ValueError,
        "^index must be an integer, got 1.0$"),
    "cocycle.zero_separator": (
        lambda: coboundary(T3, {1: 1.0, 2: 0.0, 3: 1.0}), ValueError,
        "^separator values must be nonzero$"),
    "preservers.classification_not_a_quasiorder": (
        lambda: classify_unit_action(MapUnderTest(FULL3, swap_13, "swap-13")), ValueError,
        r"^unit classification is not a quasi-order: not transitive"),
    "jordan.recovered_classification_not_a_quasiorder": (
        lambda: recover_form(MapUnderTest(T3, moved_13, "moved-13")), RecoveryError,
        r"^unit classification is not a quasi-order: not transitive"),
    "jordan.idempotent_bit_not_0_or_1": (
        lambda: CentralIdempotent((2, 0)), ValueError, "^diagonal bits must be 0 or 1$"),
    "jordan.idempotent_fractional_bit": (
        lambda: CentralIdempotent((0.6, 1.9)), ValueError,
        "^idempotent bit must be an integer, got 0.6$"),
    "jordan.spec_S_wrong_shape": (
        lambda: validate_spec(spec(S=np.eye(2))), ValueError, "^S has the wrong shape$"),
    "jordan.spec_g_on_another_order": (
        lambda: validate_spec(spec(g=TransitiveMap.constant_one(FULL3))), ValueError,
        "^transitive map is defined on a different quasi-order$"),
    "jordan.spec_cocycle_violation": (
        lambda: validate_spec(spec(g=G5, rho=FULL3)), ValueError,
        r"^transitive map violates the cocycle law at \(\(1, 2\), \(2, 1\)\)$"),
    "jordan.spec_small_g_breaks_the_law": (
        lambda: validate_spec(spec(g=TransitiveMap(T3, {(1, 2): 1e-6, (2, 3): 1e-6,
                                                        (1, 3): 2e-12}))), ValueError,
        r"^transitive map violates the cocycle law at \(\(1, 2\), \(2, 3\)\)$"),
    "jordan.spec_idempotent_wrong_length": (
        lambda: validate_spec(spec(P=CentralIdempotent((1, 1)))), ValueError,
        "^idempotent has the wrong length$"),
    "jordan.recovered_g_breaks_the_law": (
        lambda: recover_form(MapUnderTest(FULL3, doubled_12, "doubled-12")), RecoveryError,
        r"^the g read from phi's unit images breaks the cocycle law at \(\(1, 2\), \(2, 1\)\), "
        r"so phi is not a Jordan embedding$"),
}


@pytest.mark.parametrize("path", sorted(CASES))
def test_rejected_with_its_message(path):
    call, exc, message = CASES[path]
    with pytest.raises(exc, match=message):
        call()

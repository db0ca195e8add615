"""The paper's lemma-level helpers that only the tests call: the upper
triangular quasi-order, supp(A), the zero row and column insertion and
deletion laws, the strict-pair kink f(u, v) as a scalar, the strict-pair
commutation criterion, the unit-action split and the all-LU spectrum error.
A helper module, not a test module: the tests import it, and pytest does not
collect it.
"""

import sys

import numpy as np

from smalg._checks import integer
from smalg.matalg import DEFAULT_REL_TOL, _as_square
from smalg.preservers import (MapUnderTest, _cabs, _eval_stack, _fails, _norms, _stack_step,
                              _units)
from smalg.quasiorder import QuasiOrder, image, preimage


def upper_triangular(n: int) -> QuasiOrder:
    n = integer(n, "n", least=1)
    return QuasiOrder(n, frozenset((i, j) for i in range(1, n + 1) for j in range(i, n + 1)))


def support(A, tol: float | None = None) -> frozenset:
    """Index pairs (1-based) where |A_ij| exceeds tol.

    tol=None applies the default cutoff relative to the largest entry; pass
    tol=0.0 for exact nonzero support.
    """
    A = _as_square(A)
    if tol is not None:
        if (isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating))
                or not 0 <= tol <= sys.float_info.max):
            raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
        cut = float(tol)
    else:
        cut = DEFAULT_REL_TOL * (np.max(np.abs(A)) if A.size else 0.0)
    ii, jj = np.nonzero(np.abs(A) > cut)
    return frozenset(zip((ii + 1).tolist(), (jj + 1).tolist()))


def sharp(A, positions) -> np.ndarray:
    """Insert zero rows and columns so they land at the given 1-based positions
    of the enlarged matrix; inverse (on its range) of `flat` at the same set."""
    A = _as_square(A)
    pos = sorted({integer(p, "positions", least=1) for p in positions})
    m = A.shape[0] + len(pos)
    if pos:
        integer(pos[-1], "positions", most=m)
    keep = [t for t in range(1, m + 1) if t not in set(pos)]
    out = np.zeros((m, m), dtype=complex)
    out[np.ix_([k - 1 for k in keep], [k - 1 for k in keep])] = A
    return out


def flat(A, positions) -> np.ndarray:
    """Delete the rows and columns at the given 1-based positions."""
    A = _as_square(A)
    n = A.shape[0]
    pos = sorted({integer(p, "positions", least=1, most=n) for p in positions})
    if len(pos) == n:
        raise ValueError("cannot delete every row and column")
    keep = [k - 1 for k in range(1, n + 1) if k not in set(pos)]
    return A[np.ix_(keep, keep)]


def case2_kink(u: complex, v: complex) -> complex:
    """Continuous homogeneous map with injective sections: v when |u| <= |v|,
    else v |v/u|.  The scalar reference of the strict-pair counterexample."""
    if abs(u) <= abs(v):
        return v
    return v * abs(v / u)


def commutes_criterion(X, Y, rho: QuasiOrder, r: int, s: int) -> bool:
    """Commutation test specialized to the strict-pair geometry: X and Y commute
    iff their (r,s)-punctured parts commute and
    (X_ss - X_rr) Y_rs = (Y_ss - Y_rr) X_rs, each to 1e-9 max(1, |X|_F |Y|_F),
    far above the n eps |X|_F |Y|_F rounding of a commuting pair's products."""
    if preimage(rho, r) != {r} or image(rho, s) != {s}:
        raise ValueError("pair (r,s) does not isolate row r / column s in rho")
    X, Y = np.asarray(X, dtype=complex), np.asarray(Y, dtype=complex)
    X0, Y0 = X.copy(), Y.copy()
    X0[r - 1, s - 1] = Y0[r - 1, s - 1] = 0.0
    limit = 1e-9 * max(1.0, float(np.linalg.norm(X)) * float(np.linalg.norm(Y)))
    base = np.linalg.norm(X0 @ Y0 - Y0 @ X0) <= limit
    lhs = (X[s - 1, s - 1] - X[r - 1, r - 1]) * Y[r - 1, s - 1]
    rhs = (Y[s - 1, s - 1] - Y[r - 1, r - 1]) * X[r - 1, s - 1]
    return bool(base and abs(lhs - rhs) <= limit)


def classify_unit_action(mut: MapUnderTest):
    """Split mut.domain into the pairs whose matrix unit maps parallel to itself
    versus to its transpose; both parts are returned as (verified) quasi-orders.

    Raises ValueError with a witness, the first failing unit in sorted order,
    when some image is not finite, numerically zero, or parallel to neither
    the unit nor its flip.  An image is zero when its top entry is at most
    1e-7, and parallel to no unit when its second exceeds 1e-7 times its top.
    """
    n = mut.domain.n
    units = sorted(mut.domain.off_diagonal)
    parts = (set(), set())  # pairs mapped parallel to the unit, to its flip
    step = _stack_step(n)
    for lo in range(0, len(units), step):
        chunk = units[lo:lo + step]
        A = _eval_stack(mut, _units(n, chunk))
        finite = np.all(np.isfinite(A), axis=(1, 2))
        absA = np.abs(A).reshape(len(A), n * n)
        k = np.argmax(absA, axis=1)
        top = _cabs(A.reshape(len(A), n * n)[np.arange(len(A)), k])
        second = np.partition(absA, -2, axis=1)[:, -2]
        (i, j), (p, q) = (np.array(chunk) - 1).T, np.divmod(k, n)
        flipped = (p == j) & (q == i)
        checks = (
            (~finite, "phi(E_{{{i},{j}}}) is not finite"),
            (top <= 1e-7, "phi(E_{{{i},{j}}}) is numerically zero"),
            (second > 1e-7 * top, "phi(E_{{{i},{j}}}) is parallel to no matrix unit "
                                  "(dominant at {at})"),
            (~(((p == i) & (q == j)) | flipped),
             "phi(E_{{{i},{j}}}) concentrates at {at}, not at ({i},{j}) or ({j},{i})"),
        )
        failed = np.any([bad for bad, _ in checks], axis=0)
        if failed.any():
            b = int(np.argmax(failed))
            msg = next(msg for bad, msg in checks if bad[b])
            raise ValueError(msg.format(i=chunk[b][0], j=chunk[b][1],
                                        at=(int(p[b]) + 1, int(q[b]) + 1)))
        for b, pair in enumerate(chunk):
            parts[bool(flipped[b])].add(pair)
    diag = frozenset((i, i) for i in range(1, n + 1))
    try:
        return tuple(QuasiOrder(n, diag | frozenset(part)) for part in parts)
    except ValueError as exc:
        raise ValueError(f"unit classification is not a quasi-order: {exc}") from exc


def spectrum_error_lu(tol, X, fX):
    """The spectrum error on n shifted n x n LU factorizations of both X and
    phi(X), whatever rho is: det(zI - X) against det(zI - phi(X)) at the n
    points z of the circle of radius 1 + 2|X|_F.  The reference of
    `preservers._spectrum_error`, which reads the determinants from rho's
    mutual-class blocks where it can."""
    B, n = X.shape[:2]
    radius = 1.0 + 2.0 * _norms(X)
    z = radius[:, None] * np.exp(2j * np.pi * np.arange(n) / n)
    shifted = np.empty((B, n, n, n), dtype=complex)  # zI - A for each sample and z
    diagonals = shifted.reshape(B, n, n * n)[:, :, :: n + 1]
    dets = []
    with np.errstate(all="ignore"):  # a non-finite phi(X) grades as a NaN error
        for A in (X, fX):
            np.negative(A[:, None], out=shifted)
            diagonals += z[:, :, None]
            dets.append(np.linalg.slogdet(shifted))
        (sign, logabs), (fsign, flogabs) = dets
        err = np.max(np.abs(fsign / sign * np.exp(flogabs - logabs) - 1.0), axis=-1)
    return _fails(err, tol), (X, fX, err)

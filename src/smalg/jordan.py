"""Jordan embeddings of structural matrix algebras.

Every Jordan embedding of the algebra of rho into M_n is conjugation by an
invertible S of a map that scales entries by a transitive map g and transposes
the part cut out by the complement of a central idempotent P:

    phi(X) = S (P g*(X) + (I - P) g*(X)^t) S^{-1}.

This module constructs such maps from their (S, g, P) data and recovers the
(S, g, P) data from a black-box Jordan embedding of any SMA: the form holds
whether or not rho meets the neighborhood-intersection criterion, so recovery
needs no criterion.  Recovery is how smalg decides whether phi is a Jordan
embedding, and of which kind: it reads S^{-1} and g from phi's images of the
matrix units, fitted as rank-one matrices, and checks the rebuilt map against
phi on samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import integer, tolerance
from .quasiorder import QuasiOrder, components
from .matalg import _sma_stack
from .cocycle import TransitiveMap, induced_auto, validate as validate_transitive
from .preservers import MapUnderTest, _cabs, _cmul, _eval_stack, _norms, _stack_step, _unit_images

__all__ = [
    "CentralIdempotent",
    "JordanSpec",
    "RecoveryError",
    "central_idempotents",
    "validate_spec",
    "build_embedding",
    "RecoveredForm",
    "recover_form",
]


class RecoveryError(RuntimeError):
    """The black-box map is not a Jordan embedding that recovery can read."""


class _BrokenLaw(ValueError):
    """validate_spec's rejection of a g that breaks the cocycle law at the pair
    of pairs args[0]; recovery names it as its own failure."""

    def __str__(self):
        return f"transitive map violates the cocycle law at {self.args[0]}"


@dataclass(frozen=True)
class CentralIdempotent:
    """Diagonal 0/1 matrix constant on the component classes of its quasi-order."""

    diag_bits: tuple

    def __post_init__(self):
        bits = tuple(integer(b, "idempotent bit") for b in self.diag_bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("diagonal bits must be 0 or 1")
        object.__setattr__(self, "diag_bits", bits)


def central_idempotents(rho: QuasiOrder) -> list:
    """All central idempotents of the algebra of rho: the 0/1 diagonals constant
    on component classes, 2^(number of classes) in total."""
    classes = components(rho).blocks
    if len(classes) > 20:
        raise ValueError("more than 20 component classes; enumeration refused")
    out = []
    for mask in range(1 << len(classes)):
        bits = [0] * rho.n
        for c, block in enumerate(classes):
            if mask >> c & 1:
                for i in block:
                    bits[i - 1] = 1
        P = CentralIdempotent(tuple(bits))
        # centrality is equivalent to constancy across each pair of rho
        assert all(bits[i - 1] == bits[j - 1] for i, j in rho.pairs)
        out.append(P)
    return out


@dataclass(frozen=True)
class JordanSpec:
    """Parameters (rho, S, g, P) of a Jordan embedding."""

    rho: QuasiOrder
    S: np.ndarray
    g: TransitiveMap
    P: CentralIdempotent


def validate_spec(spec: JordanSpec) -> None:
    S = np.asarray(spec.S, dtype=complex)
    n = spec.rho.n
    if S.shape != (n, n):
        raise ValueError("S has the wrong shape")
    if not np.all(np.isfinite(S)):
        i, j = np.argwhere(~np.isfinite(S))[0]
        raise ValueError(f"S has a non-finite entry {S[i, j]} at ({i + 1},{j + 1})")
    cond = np.linalg.cond(S)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError("S is not (numerically) invertible")
    if spec.g.rho != spec.rho:
        raise ValueError("transitive map is defined on a different quasi-order")
    ok, violation = validate_transitive(spec.g)
    if not ok:
        raise _BrokenLaw(violation)
    if len(spec.P.diag_bits) != n:
        raise ValueError("idempotent has the wrong length")
    bits = spec.P.diag_bits
    for i, j in spec.rho.pairs:
        if bits[i - 1] != bits[j - 1]:
            raise ValueError(f"idempotent is not central: bits differ on pair ({i},{j})")


def build_embedding(spec: JordanSpec):
    """The Jordan embedding X -> S (P g*(X) + (I-P) g*(X)^t) S^{-1}, on one
    matrix or a (B, n, n) stack; a stack's images are bit for bit its
    matrices' images.  P is a 0/1 diagonal, so P Y + (I-P) Y^t is row i of Y
    where P_ii = 1 and of Y^t elsewhere: rows are selected, not multiplied
    (README, "Report bytes and BLAS kernels", on the sign of a zero)."""
    validate_spec(spec)
    # phi is unchanged under S -> cS.  Scaling by the power of two c = 2^-e that
    # brings max|S| into [1/2, 1) is exact, and it keeps S^-1 and every product
    # in range when S is near the largest double.
    S0 = np.asarray(spec.S, dtype=complex)
    e = np.frexp(np.max(np.abs(S0)))[1]
    S = np.empty_like(S0)
    S.real, S.imag = np.ldexp(S0.real, -e), np.ldexp(S0.imag, -e)
    Sinv = np.linalg.inv(S)
    rows = np.array(spec.P.diag_bits, dtype=bool)[:, None]
    gstar = induced_auto(spec.g)

    def phi(X):
        Y = gstar(X)
        return S @ np.where(rows, Y, Y.swapaxes(-1, -2)) @ Sinv

    return phi


@dataclass
class RecoveredForm:
    """The (S, g, P) that `recover_form` read from phi, and how well it fits.

    rho_m holds the diagonal and the pairs whose unit phi keeps in place,
    rho_a the diagonal and the pairs whose unit phi transposes.  So phi is
    multiplicative iff rho_a has no off-diagonal pair, and antimultiplicative
    iff rho_m has none.  max_unit_error is the largest error of the rank-one
    fit of a unit's image, and max_sample_error the largest error of the
    rebuilt map against phi on a sample, each relative to max(1, |image|_F).
    """

    spec: JordanSpec
    rho_m: QuasiOrder
    rho_a: QuasiOrder
    max_unit_error: float
    max_sample_error: float


def recover_form(mut: MapUnderTest, tol: float = 1e-8,
                 n_samples: int = 100, seed: int = 0) -> RecoveredForm:
    """Recover (S, g, P) from a black-box Jordan embedding of any SMA.

    Write T = S^{-1}, S_k for column k of S and T_k for row k of T.  As
    E_kk^t = E_kk and g(k,k) = 1, phi(E_kk) = S_k T_k: its trace is 1, its
    largest column, scaled to unit 2-norm, is S_k, and T_k is its row where
    S_k is largest, divided by that entry.  An off-diagonal unit's image is
    g(i,j) S_a T_b, with (a, b) = (i, j) where phi keeps the unit in place and
    (j, i) where it transposes it.  Both orientations are fitted, with g read
    at the top entry of S_a T_b, and the one with the smaller residual is
    kept: that splits rho into the identity-like and transpose-like parts and
    yields g, and P marks the indices touched by the identity-like part.  No
    inverse and no conjugation is formed, so phi's rounding is not multiplied
    by cond(S).

    A unit's error is |g S_a T_b - phi(E_ij)|_F / max(1, |phi(E_ij)|_F), with
    g = 1 on the diagonal, and a sample's is |rebuilt(X) - phi(X)|_F /
    max(1, |phi(X)|_F); the traces are held to 1 within tol max(1, |phi(E_kk)|_F).
    A computed product AB errs by up to about n eps |A||B| (Higham, Accuracy
    and Stability of Numerical Algorithms, 2002, ch. 3), so phi's own rounding
    follows the size of its image, which reaches cond(S) on a unit, not the
    size of X.  Only bad arguments raise ValueError; past them, every
    failure raises RecoveryError: the first unit in sorted order whose image
    is not finite, is zero or errs by more than tol is named, a recovered g
    that breaks the cocycle law shows phi is no Jordan embedding, and another
    (S, g, P) that validate_spec rejects gets its message.  The units are
    read _stack_step(n) at a time, the diagonal ones first, and each stack is
    checked for finiteness as it is read: so a non-finite image is named
    before an earlier unit of its stack that is zero or errs, and a
    non-finite diagonal image before any trace is read.

    phi is `mut.eval` and rho is `mut.domain`.  Units and samples go through
    phi a stack at a time when `mut` sets `stacked`, and one matrix at a time
    otherwise; either way the result is the same to the bit.  phi sees each
    unit and each sample once.
    """
    n_samples = integer(n_samples, "n_samples", least=1)
    tol, seed = tolerance(tol, "tol"), integer(seed, "seed", least=0)
    rho = mut.domain
    n = rho.n

    def check(pairs, A, err):  # names the first failing unit of a stack
        checks = ((~np.any(A, axis=(1, 2)), "is zero"),
                  (~(err <= tol), "fits neither orientation (unit error {:.3e})"))
        failed = np.any([bad for bad, _ in checks], axis=0)
        if failed.any():
            b = int(np.argmax(failed))
            what = next(what for bad, what in checks if bad[b])
            raise RecoveryError(f"phi(E_{{{pairs[b][0]},{pairs[b][1]}}}) " + what.format(err[b]))

    try:
        diag = [(k, k) for k in range(1, n + 1)]
        D = np.concatenate([A for _, A in _unit_images(mut, diag)])
        for k, A in enumerate(D, 1):
            t = np.trace(A)
            if not abs(t - 1) <= tol * max(1.0, np.linalg.norm(A)):
                raise RecoveryError(
                    f"phi(E_{{{k},{k}}}) has trace {t:.6g}, not 1 (spectrum not preserved?)")
        # column k of S: the largest column of phi(E_kk), scaled to unit 2-norm
        # and turned so that its first significant entry is positive real
        V = D[np.arange(n), :, np.argmax(np.linalg.norm(D, axis=1), axis=1)]  # row k
        first = np.argmax(np.abs(V) > 1e-8 * np.abs(V).max(axis=1, keepdims=True), axis=1)
        z = V[np.arange(n), first]
        S = (V * (np.abs(z) / z / np.linalg.norm(V, axis=1))[:, None]).T
        # row k of T: row p of phi(E_kk) = S_k T_k over S[p, k], at the top entry
        # of S_k; _cabs and _cmul round alike on every CPU numpy dispatches to
        p = np.argmax(_cabs(S), axis=0)
        T = D[np.arange(n), p] / S[p, np.arange(n)][:, None]
        q = np.argmax(_cabs(T), axis=1)  # so the top entry of S_a T_b is (p[a], q[b])

        def fit(a, b, A):  # g read at the top entry of S_a T_b, and |g S_a T_b - A|_F
            g = A[np.arange(len(A)), p[a], q[b]] / _cmul(S[p[a], a], T[b, q[b]])
            return g, _norms(_cmul(_cmul(g[:, None], S[:, a].T)[:, :, None], T[b][:, None, :]) - A)

        unit_errs = [_norms(_cmul(S.T[:, :, None], T[:, None, :]) - D) / np.fmax(1.0, _norms(D))]
        check(diag, D, unit_errs[0])
        parts, gvals = (set(), set()), {}  # pairs mapped to the unit, to its flip
        for chunk, A in _unit_images(mut, sorted(rho.off_diagonal)):
            i, j = (np.array(chunk) - 1).T
            with np.errstate(all="ignore"):  # a fit that overflows is named by check
                (g, res), (g_t, res_t) = fit(i, j, A), fit(j, i, A)
                flipped = res_t < res
                unit_errs.append(np.where(flipped, res_t, res) / np.fmax(1.0, _norms(A)))
            check(chunk, A, unit_errs[-1])
            for b, pair in enumerate(chunk):
                parts[bool(flipped[b])].add(pair)
                gvals[pair] = g_t[b] if flipped[b] else g[b]
        try:
            rho_m, rho_a = (QuasiOrder(n, frozenset(diag) | part) for part in parts)
        except ValueError as exc:
            raise RecoveryError(f"unit classification is not a quasi-order: {exc}") from exc
        touched = {k for pair in rho_m.off_diagonal for k in pair}
        P = CentralIdempotent(tuple(int(k in touched) for k in range(1, n + 1)))
        spec = JordanSpec(rho, S, TransitiveMap(rho, gvals), P)
        rebuilt = build_embedding(spec)  # the one check of g's cocycle law
        rng, step = np.random.default_rng(seed), _stack_step(n)
        sample_errs = []
        for lo in range(0, n_samples, step):
            # one block of normals, 2 n^2 per sample, in sample order
            X = _sma_stack(rho, rng.standard_normal((min(step, n_samples - lo), 2 * n * n)))
            with np.errstate(all="ignore"):  # an image that overflows is graded, not warned of
                images = _eval_stack(mut, X)
                # an infinite image's error is inf
                sample_errs.append(_norms(rebuilt(X) - images)
                                   / np.fmax(1.0, np.nan_to_num(_norms(images))))
    except _BrokenLaw as exc:
        raise RecoveryError(f"the g read from phi's unit images breaks the cocycle law at "
                            f"{exc.args[0]}, so phi is not a Jordan embedding") from exc
    except ValueError as exc:  # a broken map contract, LinAlgError, or a rejected spec
        raise RecoveryError(str(exc)) from exc
    # np.max keeps a NaN error, and a NaN error is not <= tol
    unit_err = float(np.max(np.concatenate(unit_errs)))
    sample_err = float(np.max(np.concatenate(sample_errs)))
    if not sample_err <= tol:
        raise RecoveryError(
            f"rebuilt map disagrees with phi (unit error {unit_err:.3e}, "
            f"sample error {sample_err:.3e})")
    return RecoveredForm(spec, rho_m, rho_a, unit_err, sample_err)

"""Commutativity-and-spectrum preserver harness and explicit non-Jordan preservers.

When the neighborhood-intersection criterion fails at a pair (r,s), the algebra
of rho carries a continuous injective commutativity and spectrum preserver that
is not additive.  Two shapes occur: a full 2x2 central block at {r,s} twisted
by a phase map (the symmetric case), and a single strict pair (r,s) whose entry
is redrawn through the homogeneous kink f(u,v) = v min(1, |v/u|).  This module
builds those maps, a gallery of negative controls, and the seeded sampling
harness that grades any black-box map on the algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ._checks import integer, tolerance
from ._kinds import GALLERY_KINDS
from .quasiorder import (QuasiOrder, _bits, _mutual_masks, condition_i, image, is_symmetric,
                         neighborhood, preimage)
from .matalg import _sma_stack, entry_pairs, lambda_matrix

__all__ = [
    "MapUnderTest",
    "CounterexampleMap",
    "PropertyVerdict",
    "PreserverReport",
    "identity_map",
    "transpose_map",
    "counterexample",
    "remark_gallery",
    "verify_preserver",
    "GALLERY_KINDS",
]


@dataclass
class MapUnderTest:
    """A total map on the algebra of `domain`, tagged for reporting.

    `eval` maps an n x n matrix to its image, and the harness calls it once
    per input matrix.  A map that sets `stacked` also maps a (B, n, n) stack
    to the stack of its images, each bit for bit the image of that matrix
    alone, and gets stacks instead: one call per chunk of the sampling
    harness, and one per stack of units or samples in recovery.
    """

    domain: QuasiOrder
    eval: Callable[[np.ndarray], np.ndarray]
    label: str
    stacked: bool = field(default=False, kw_only=True)


@dataclass
class CounterexampleMap(MapUnderTest):
    r: int = 0
    s: int = 0
    case: int = 0  # 1 = full 2x2 central block, 2 = strict pair

    def as_expected(self, report: PreserverReport) -> bool:
        """Spectrum, commutativity and injectivity kept, additivity broken."""
        return (report.spectrum.ok and report.commutativity.ok and report.injectivity.ok
                and not report.additivity.ok)


def identity_map(rho: QuasiOrder) -> MapUnderTest:
    return MapUnderTest(rho, lambda X: np.array(X, dtype=complex), "identity", stacked=True)


def transpose_map(rho: QuasiOrder) -> MapUnderTest:
    return MapUnderTest(rho, lambda X: np.array(X, dtype=complex).swapaxes(-1, -2),
                        "transpose", stacked=True)


# numpy's array abs and array complex product can round differently from the
# scalar ones; the stacked maps use these two, which compute what the scalar
# forms compute, so that a stack's images are its matrices' images bit for bit

def _cabs(z):
    return np.hypot(z.real, z.imag)


def _cmul(a, b):
    """a * b for complex arrays that broadcast together."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _norms(A):
    """Frobenius norm of each matrix of a stack, bit for bit np.linalg.norm's:
    the dot products of the real and of the imaginary parts, added."""
    F = A.reshape(len(A), 1, A.shape[-2] * A.shape[-1])
    re, im = F.real, F.imag
    return np.sqrt((re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1))[:, 0, 0])


def _commuting_pairs(rho: QuasiOrder, Z):
    """A stack of commuting pairs X = S D1 S^{-1}, Y = S D2 S^{-1}, with S = I
    plus a small strictly-off-diagonal element of the algebra, from the
    standard normals Z: row b holds the 2n^2 + 4n normals of pair b.  Both
    outputs are projected to the algebra exactly, leaving a commutator at
    roundoff level."""
    n, k = rho.n, np.arange(rho.n)
    N = _sma_stack(rho, Z[:, : 2 * n * n])
    N[:, k, k] = 0.0
    norm = _norms(N)
    big = norm > 0
    N[big] *= (0.5 / norm[big])[:, None, None]
    S = np.eye(n, dtype=complex) + N
    Sinv = np.where(rho.mask, np.linalg.inv(S), 0.0)
    d = Z[:, 2 * n * n:].reshape(-1, 2, 2, n)  # D1 real, D1 imaginary, then D2
    D = np.zeros((len(Z), 2, n, n), dtype=complex)
    D[:, :, k, k] = d[:, :, 0] + 1j * d[:, :, 1]
    XY = np.where(rho.mask, S[:, None] @ D @ Sinv[:, None], 0.0)
    return XY[:, 0], XY[:, 1]


def _block_twist(rho: QuasiOrder, r: int, s: int) -> CounterexampleMap:
    """X with X_pq and X_qp, {p, q} = {r, s}, twisted by a phase of |X_qp / X_pq|."""
    p, q = min(r, s) - 1, max(r, s) - 1

    def eval_case1(X):
        # b = X_pq picks up f(|c/b|) = exp(i pi / (|c/b| + 1)) and c = X_qp
        # its conjugate, so bc is kept; nothing changes where b vanishes
        out = np.array(X, dtype=complex)
        b, c = out[..., p, q], out[..., q, p]  # views into out
        nz = b != 0
        fval = np.exp(1j * (np.pi / (_cabs(c[nz] / b[nz]) + 1.0)))
        b[nz], c[nz] = _cmul(b[nz], fval), _cmul(c[nz], np.conj(fval))
        return out

    return CounterexampleMap(rho, eval_case1, f"case1-block({r},{s})", r, s, 1, stacked=True)


def _kink(rho: QuasiOrder, r: int, s: int) -> CounterexampleMap:
    """X with X_rs redrawn as f(X_ss - X_rr, X_rs)."""

    def eval_case2(X):
        out = np.array(X, dtype=complex)
        u = out[..., s - 1, s - 1] - out[..., r - 1, r - 1]
        v = out[..., r - 1, s - 1]  # a view into out
        cut = ~(_cabs(u) <= _cabs(v))
        v[cut] = _cmul(v[cut], _cabs(v[cut] / u[cut]).astype(complex))
        return out

    return CounterexampleMap(rho, eval_case2, f"case2-kink({r},{s})", r, s, 2, stacked=True)


def counterexample(rho: QuasiOrder) -> CounterexampleMap:
    """A continuous injective commutativity and spectrum preserver on the
    algebra of rho that fails additivity; only exists (and is only built) when
    the neighborhood-intersection criterion fails.

    The witness pair is the lexicographically first violating (r,s); the map is
    the 2x2-block twist when (s,r) also lies in rho, else the strict-pair kink
    phi(X) = X off (r,s), with X_rs redrawn as f(X_ss - X_rr, X_rs), where
    f(u, v) = v when |u| <= |v|, else v |v/u|: continuous, homogeneous and
    injective in v.
    """
    ok, witness = condition_i(rho)
    if ok:
        raise ValueError("criterion holds: every such preserver is a Jordan embedding")
    r, s = witness
    if (s, r) in rho.pairs:
        for t in (r, s):
            if image(rho, t) != {r, s} or preimage(rho, t) != {r, s}:
                raise RuntimeError("violating symmetric pair is not a central 2x2 block")
        return _block_twist(rho, r, s)
    if preimage(rho, r) != {r} or image(rho, s) != {s}:
        raise RuntimeError("violating strict pair does not isolate row r / column s")
    return _kink(rho, r, s)


def _image(mut: MapUnderTest, A):
    """mut.eval(A), which must have the shape of A: numpy would broadcast a
    scalar or a row into a full image."""
    image = mut.eval(A)
    if np.shape(image) != A.shape:
        raise ValueError(f"map {mut.label!r} returned an image of shape {np.shape(image)} "
                         f"for an input of shape {A.shape}")
    return image


def _eval_stack(mut: MapUnderTest, A) -> np.ndarray:
    """The images of a (B, n, n) stack: one call for a stacked map, one call
    per matrix for any other.  An image of the wrong shape raises ValueError."""
    if mut.stacked:
        return np.asarray(_image(mut, A), dtype=complex)
    out = np.empty(A.shape, dtype=complex)
    for k, a in enumerate(A):
        out[k] = _image(mut, a)
    return out


def _units(n: int, pairs) -> np.ndarray:
    """The stack of matrix units E_ij, one per pair (i, j)."""
    E = np.zeros((len(pairs), n, n), dtype=complex)
    if pairs:
        i, j = (np.array(pairs) - 1).T
        E[np.arange(len(pairs)), i, j] = 1.0
    return E


def _stack_step(n: int) -> int:
    """n x n matrices evaluated as one stack: 2^13 entries, 128 KB, so 128 at
    n = 8, 32 at n = 16, 14 at n = 24 and 8 at n = 32.  `embed` and recovery
    stack their units this many at a time, recovery its samples too, and the
    sampling harness its probed pairs and samples."""
    return max(1, 2 ** 13 // (n * n))


def _unit_images(mut: MapUnderTest, pairs):
    """(chunk, images) over `pairs`, _stack_step(n) of them at a time: the
    images of the chunk's matrix units, evaluated as one stack with numpy's
    floating-point warnings off.  The first unit of a stack whose image is
    not finite raises ValueError naming it."""
    n = mut.domain.n
    step = _stack_step(n)
    for lo in range(0, len(pairs), step):
        chunk = pairs[lo:lo + step]
        with np.errstate(all="ignore"):
            A = _eval_stack(mut, _units(n, chunk))
        finite = np.isfinite(A).all(axis=(1, 2))
        if not finite.all():
            i, j = chunk[int(np.argmin(finite))]
            raise ValueError(f"phi(E_{{{i},{j}}}) is not finite")
        yield chunk, A


def remark_gallery(rho: QuasiOrder, kind: str) -> MapUnderTest:
    """Named negative controls showing each preserver hypothesis is needed:
    `scaling` breaks spectrum, `det_twist` breaks commutativity (diagonal-rich
    rho), `diag_shift` breaks commutativity on the diagonal algebra, and
    `noninjective_jordan` truncates to the mutual part of a non-symmetric rho.
    """
    n = rho.n
    if kind == "scaling":
        return MapUnderTest(rho, lambda X: 2.0 * np.asarray(X, dtype=complex), "scaling-2x",
                            stacked=True)

    if kind == "det_twist":
        anchors = [i for i in range(1, n + 1) if len(neighborhood(rho, i)) > 1]
        if not anchors:
            raise ValueError("det_twist needs an index with an off-diagonal neighbor")
        i0 = anchors[0] - 1

        def eval_twist(X):
            out = np.array(X, dtype=complex)
            t = 1.0 + _cabs(np.linalg.det(out))[..., None]  # continuous, finite and >= 1
            out[..., i0, :] *= t
            out[..., :, i0] /= t
            return out

        return MapUnderTest(rho, eval_twist, f"det-twist@{i0 + 1}", stacked=True)

    if kind == "diag_shift":
        if rho.off_diagonal or n < 3:
            raise ValueError("diag_shift is the diagonal-algebra control (n >= 3)")

        def eval_shift(X):
            out = np.array(X, dtype=complex)
            out[..., 1, n - 1] += out[..., 0, 0]
            return out

        return MapUnderTest(rho, eval_shift, "diag-shift", stacked=True)

    if kind == "noninjective_jordan":
        if is_symmetric(rho):
            raise ValueError("truncation is injective on a symmetric rho")
        mutual = rho.mask & rho.mask.T

        def eval_trunc(X):
            return np.where(mutual, np.asarray(X, dtype=complex), 0.0)

        return MapUnderTest(rho, eval_trunc, "mutual-block-truncation", stacked=True)

    raise ValueError(f"unknown gallery kind {kind!r}; choose from {GALLERY_KINDS}")


@dataclass
class PropertyVerdict:
    checked: int = 0
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Something was checked and nothing failed."""
        return self.checked > 0 and not self.witnesses


@dataclass
class PreserverReport:
    """Sampled verdicts for one map."""

    label: str
    seed: int
    samples: int
    spectrum: PropertyVerdict
    commutativity: PropertyVerdict
    injectivity: PropertyVerdict
    additivity: PropertyVerdict
    homogeneity: PropertyVerdict

    @property
    def all_pass(self) -> bool:
        return all(v.ok for v in self._verdicts().values())

    def _verdicts(self):
        return {name: getattr(self, name) for name in _PROPERTIES}

    def to_dict(self) -> dict:
        def enc(x):
            if isinstance(x, np.ndarray):
                return entry_pairs(x)
            if isinstance(x, complex):
                return [float(x.real), float(x.imag)]
            if isinstance(x, (list, tuple)):
                return [enc(y) for y in x]
            return x

        return {
            "label": self.label,
            "seed": self.seed,
            "samples": self.samples,
            "all_pass": self.all_pass,
            "properties": {name: {"ok": v.ok, "checked": v.checked,
                                  "witnesses": [enc(w) for w in v.witnesses]}
                           for name, v in self._verdicts().items()},
        }


def _fails(err, limit):
    return ~np.isfinite(err) | (err > limit)


# A property is (sampler, error function, probe).  The harness grades
# stacks of cases: a sampler builds one chunk of samples' cases, each a tuple
# of stacks whose rows are cases, and a probe returns the deterministic cases
# graded before the samples as groups (at, case), where at holds each row's
# position in the run's sequence of cases; every row is a case that counts.
# A sampler reads its normals with s.draw(name, width) from the stream of its
# property, so the table's order moves no draw.  An error function takes the
# run, the stacks of a case and then the images of its (B, n, n) stacks, and
# returns (failed, witness): a boolean per case and a tuple of stacks whose
# rows are the witnesses.  The run holds what the harness finds once per run:
# its one `tol`, and rho's mutual `classes` (see `_spectrum_classes`).

def _spectrum_classes(rho: QuasiOrder) -> SimpleNamespace:
    """What the spectrum check reads of rho: its singleton mutual classes as
    one index array, its larger classes as one (m, k) array of indices per
    class size k, a flat n * n weight that is 1 off rho and 0 on it, and the
    n-th roots of unity."""
    n, by_size = rho.n, {}
    for c in _mutual_masks(rho):
        members = _bits(c)
        by_size.setdefault(len(members), []).append(members)
    return SimpleNamespace(single=np.array(by_size.pop(1, []), dtype=int).reshape(-1),
                           blocks=[np.array(by_size[k]) for k in sorted(by_size)],
                           off=(~rho.mask).astype(complex).reshape(n * n),
                           roots=np.exp(2j * np.pi * np.arange(n) / n))


def _shifted_slogdet(A, z, buf):
    """slogdet of zI - A at each row's points z: A is a (B, ..., k, k) stack
    and z a (B, m) array, and sign and log have shape (B, m, ...).  The
    shifted matrices are built at the front of the flat complex array `buf`."""
    k = A.shape[-1]
    shape = (len(A), z.shape[1]) + A.shape[1:]
    shifted = buf[:math.prod(shape)].reshape(shape)
    np.copyto(shifted, -A[:, None])  # a broadcast copy is much faster than a broadcast negative
    diagonals = shifted.reshape(shifted.shape[:-2] + (k * k,))[..., :: k + 1]
    diagonals += z.reshape(z.shape + (1,) * (A.ndim - 2))
    return np.linalg.slogdet(shifted)


def _class_det(classes, A, z, buf):
    """det(zI - A) over rho's mutual classes for a stack A, at each row's
    points z, as (d, sign, logabs): d the product of z - A_ii over the
    singleton classes, and sign and log|.| of the product of det(zI - A[c, c])
    over the larger ones, from slogdet on the k x k blocks.  Each is a (B, m)
    array, 1, 1 and 0 where rho has no class of its kind."""
    s = classes.single
    d = np.prod(z[:, :, None] - A[:, None, s, s], axis=-1)
    sign, logabs = np.ones(z.shape, dtype=complex), np.zeros(z.shape)
    for C in classes.blocks:
        bsign, log = _shifted_slogdet(A[:, C[:, :, None], C[:, None, :]], z, buf)
        sign *= np.prod(bsign, axis=-1)
        logabs += np.sum(log, axis=-1)
    return d, sign, logabs


def _spectrum_error(run, X, fX):
    """Compare det(zI - X) with det(zI - phi(X)) at n points z on the circle
    of radius 1 + 2|X|_F: two monic degree-n polynomials that agree at n points
    are equal.  The circle encloses the spectrum of X, and so that of phi(X)
    whenever the two agree, and on it zI - X has condition number below 3, so
    the ratio stays within a small multiple of n * eps of 1 when the spectra
    agree.  The radius does not follow |phi(X)|_F: a large phi(X) with the
    wrong spectrum would otherwise push the circle out until the error d/R of
    a spectrum change d drops below the tolerance.

    X lies in the algebra, which is block upper triangular up to a
    permutation, with rho's mutual classes (`run.classes`) as its diagonal
    blocks, so `_class_det` reads det(zI - X) from them, and det(zI - phi(X))
    the same way.  On the rows where phi(X) is not exactly zero off rho, or
    not finite, phi(X)'s side is read instead from n shifted n x n LU
    factorizations.  On the full algebra the one class is the whole matrix,
    so both sides take those LUs.  Every row is read alone, so no row's error
    depends on the rows it shares a chunk with.  One buffer, sized for the
    largest, holds each stack of shifted matrices in turn."""
    classes, n = run.classes, X.shape[-1]
    z = (1.0 + 2.0 * _norms(X))[:, None] * classes.roots
    B, m = z.shape
    with np.errstate(all="ignore"):  # a non-finite phi(X) grades as a NaN error
        # the rows off the algebra or not finite: 0 * inf and 0 * NaN are NaN
        lu = np.flatnonzero(np.any(fX.reshape(B, -1) * classes.off, axis=1))
        buf = np.empty(max([B * m * C.size * C.shape[1] for C in classes.blocks]
                           + [len(lu) * m * n * n]), dtype=complex)
        d, sign, logabs = _class_det(classes, X, z, buf)
        fd, fsign, flogabs = _class_det(classes, fX, z, buf)
        if len(lu):
            fd[lu] = 1.0
            fsign[lu], flogabs[lu] = _shifted_slogdet(fX[lu], z[lu], buf)
        ratio = fd / d * (fsign / sign * np.exp(flogabs - logabs))
        err = np.max(np.abs(ratio - 1.0), axis=-1)
    return _fails(err, run.tol), (X, fX, err)


def _commuting_cases(s):
    """Conjugated diagonal pairs and (X, p(X)) pairs, alternately, from a row
    of 2n^2 + max(4n, 6) normals: an even sample's pair reads the first
    2n^2 + 4n, an odd sample's X the first 2n^2 and p's coefficients the next 6."""
    n, even = s.rho.n, s.t % 2 == 0
    Z = s.draw("commutativity", 2 * n * n + max(4 * n, 6))
    X, Y = (np.empty((len(s.t), n, n), dtype=complex) for _ in range(2))
    X[even], Y[even] = _commuting_pairs(s.rho, Z[even, : 2 * n * n + 4 * n])
    X[~even] = A = _sma_stack(s.rho, Z[~even, : 2 * n * n])
    c = Z[~even, 2 * n * n: 2 * n * n + 6].reshape(-1, 2, 3, 1, 1)
    c = c[:, 0] + 1j * c[:, 1]
    Y[~even] = np.where(s.rho.mask, c[:, 0] * np.eye(n) + c[:, 1] * A + c[:, 2] * A @ A, 0.0)
    return [(X, Y)]


def _commutator_error(run, X, Y, fX, fY):
    err = _norms(fX @ fY - fY @ fX)
    return _fails(err, run.tol * np.fmax(1.0, _norms(fX) * _norms(fY))), (X, Y, err)


def _injective_cases(s):
    """(X, Y), and X against X with pair off[t % |off|] perturbed."""
    cases = [(s.X, s.Y)]
    if len(s.off):
        i, j = s.off[s.t % len(s.off)].T
        XE = s.X.copy()
        XE[np.arange(len(s.t)), i, j] += s.draw("injectivity", 2).view(complex)[:, 0]
        cases.append((s.X, XE))
    return cases


def _separation_error(run, X, Y, fX, fY):
    sep = _norms(fX - fY)
    limit = run.tol * np.fmax(np.fmax(1.0, _norms(fX)), _norms(fY))
    return ~(sep > limit), (X, Y, sep)  # a NaN separation is not above it, so it fails


def _additive_probe(s):
    """P + F on every family, and then F + G on the pairs whose (j, i) is in rho,
    over the same F, so that no E_ij goes through phi twice."""
    return ([(f.at, (f.P, f.F, f.P + f.F)) for f in s.families]
            + [(f.at, (f.F, f.G, f.F + f.G)) for f in s.families if f.G is not None])


def _additive_error(run, X, Y, XY, fX, fY, fXY):
    err = _norms(fXY - fX - fY)
    return _fails(err, run.tol * np.fmax(1.0, _norms(fX) + _norms(fY))), (X, Y, err)


def _homogeneous_cases(s):
    alpha = s.draw("homogeneity", 2).view(complex)[:, 0]
    return [(s.X, alpha, alpha[:, None, None] * s.X)]


def _homogeneous_error(run, X, alpha, aX, fX, faX):
    err = _norms(faX - alpha[:, None, None] * fX)
    limit = run.tol * np.fmax(1.0, np.hypot(alpha.real, alpha.imag) * _norms(fX))
    return _fails(err, limit), (X, alpha, err)


_PROPERTIES = {
    "spectrum": (lambda s: [(s.X,)], _spectrum_error, lambda s: s.diagonals),
    "commutativity": (_commuting_cases, _commutator_error, None),
    "injectivity": (_injective_cases, _separation_error,
                    lambda s: [(f.at, (f.D, f.P)) for f in s.families]),
    "additivity": (lambda s: [(s.X, s.Y, s.X + s.Y)], _additive_error, _additive_probe),
    "homogeneity": (_homogeneous_cases, _homogeneous_error, None),
}


def _probe_cases(chunk, rho: QuasiOrder, pairs, at, diagonals):
    """Add to `chunk` each probing property's groups on `diagonals` and on the
    unit probes of `pairs`, at positions `at`.  The pairs split into two
    families, those whose flip (j, i) is in rho and the others; each holds
    its pairs' `at` and its stacks F = E_ij, D = 2E_ii and P = D + F; the
    flip family's G = E_ji, the other's None."""
    families = []
    for flip in (True, False):
        ks = [k for k, (i, j) in enumerate(pairs) if ((j, i) in rho.pairs) == flip]
        if ks:
            fam = [pairs[k] for k in ks]
            F, D = _units(rho.n, fam), 2.0 * _units(rho.n, [(i, i) for i, _ in fam])
            G = _units(rho.n, [(j, i) for i, j in fam]) if flip else None
            families.append(SimpleNamespace(at=at[ks], F=F, D=D, P=D + F, G=G))
    p = SimpleNamespace(diagonals=diagonals, families=families)
    for name, (*_, probe) in _PROPERTIES.items():
        chunk[name] += probe(p) if probe else []


def _sample_cases(chunk, rho: QuasiOrder, off, K, t, draw):
    """Add to `chunk` each property's groups on the samples t, counted over
    the run (s.t to the samplers), sample t at position K + t; `off` holds
    rho's off-diagonal pairs, 0-based, as an (m, 2) array, and draw(name,
    rows, width) reads the next rows of stream `name`."""
    n, at = rho.n, K + t
    s = SimpleNamespace(rho=rho, off=off, t=t, draw=lambda name, width: draw(name, len(t), width))
    XY = s.draw("inputs", 4 * n * n)
    s.X, s.Y = _sma_stack(rho, XY[:, : 2 * n * n]), _sma_stack(rho, XY[:, 2 * n * n:])
    for name, (sample, *_) in _PROPERTIES.items():
        chunk[name] += [(at, case) for case in sample(s)]


@np.errstate(all="ignore")  # an image that overflows, or is not finite, fails and never warns
def _grade_chunk(mut: MapUnderTest, verdicts, run, chunk):
    """Grade one chunk: `chunk` maps each property to its groups (at, case),
    where at holds each row's position in the run's sequence of cases.  phi
    maps every row of every input stack once, in one stack, and every row is
    a case that counts."""
    # every input stack once, by identity; holding them keeps their ids
    stacks = {id(A): A for groups in chunk.values() for _, case in groups
              for A in case if A.ndim == 3}
    out = _eval_stack(mut, np.concatenate(list(stacks.values())))
    images = dict(zip(stacks, np.split(out, np.cumsum([len(A) for A in stacks.values()])[:-1])))
    for name, (_, error, _) in _PROPERTIES.items():
        groups, verdict = chunk[name], verdicts[name]
        if not groups:
            continue
        stacked = [slot[0] if len(slot) == 1 else np.concatenate(slot) for slot in
                   zip(*(case + tuple(images[id(A)] for A in case if A.ndim == 3)
                         for _, case in groups))]
        failed, witness = error(run, *stacked)
        verdict.checked += len(failed)
        if not failed.any():
            continue
        # the first failing cases in the order of the cases: by position,
        # then by group
        at = np.concatenate([pos for pos, _ in groups])
        group = np.repeat(np.arange(len(groups)), [len(pos) for pos, _ in groups])
        order = np.lexsort((group, at))
        for k in order[failed[order]][:3 - len(verdict.witnesses)]:
            verdict.witnesses.append(tuple(w[k].copy() if w.ndim > 1 else w[k] for w in witness))


def verify_preserver(mut: MapUnderTest, n_samples: int = 1000, tol: float = 1e-8,
                     seed: int = 0) -> PreserverReport:
    """Grade a map on sampled spectrum/commutativity/injectivity/additivity/
    homogeneity preservation.

    Spectrum is compared on each sample X (and on the identity and diag(1..n))
    through det(zI - X) against det(zI - phi(X)) at n points of the circle of
    radius 1 + 2|X|_F, which encloses the spectrum of X (and of phi(X) when
    the two agree), so no characteristic polynomial is formed.  Up to a
    permutation the algebra is block upper triangular with rho's mutual
    classes as its diagonal blocks, so one class reader reads det(zI - X)
    from them, and det(zI - phi(X)) too: the product of z - X_ii over the
    singleton classes, and slogdet on each k x k block of a larger one.
    Where phi(X) is not exactly zero off rho, or not finite, its side is read
    instead from n shifted n x n LU factorizations.
    Commuting inputs alternate between conjugated diagonal pairs and
    (X, p(X)) pairs.
    Every property's error is held against the one `tol`, scaled as its error
    function states, and a non-finite output fails every property it enters,
    and never raises.  Deterministic probes run before the samples: the
    identity and diag(1..n) for spectrum, and per-pair unit combinations for
    injectivity and additivity.  Commutativity and homogeneity have no probe,
    and rest on the samples alone.  The unit probes cover the first 64
    off-diagonal pairs of rho in sorted order, so a structural failure at one
    of those pairs does not depend on sampling luck.  Past them it is left to
    the samples: for injectivity, sample t (counted over the run) compares its
    X with X perturbed at pair t mod K of the K off-diagonal pairs in sorted
    order, so n_samples >= K perturbs every pair.

    The probes and samples form one sequence of cases: the identity and
    diag(1..n) at positions -2 and -1, the K probed pairs at 0, ..., K - 1,
    and then sample t at K + t.  It is graded a chunk of B = _stack_step(n)
    units at a time, a unit being one probed pair or one sample: 512 at
    n = 4, 128 at n = 8, 14 at n = 24 and 8 at n = 32.  The chunk's probes and
    samplers run, phi maps all their input matrices in one stack, and each
    property's error function runs once, on the chunk's probe and sample
    cases together.
    The samples' X and Y, and each property that draws normals, read a
    stream of their own, keyed by the seed and the stream's name and read
    one fixed-width row per sample in sample order, so neither the chunk size
    nor the order of the properties changes a sample or a report byte.  phi
    sees each chunk's inputs once: one call per input matrix, at most seven
    per sample, or, for a map that sets `stacked`, one call per chunk.  Each
    input is part of a case that counts in `checked`: only the pairs whose
    (j, i) is in rho get E_ji and the probe E_ij + E_ji, and every
    injectivity case counts, the sampled ones too.  The spectrum check builds
    a stack of shifted n x n matrices only for the rows of phi(X) off the
    algebra, and on the full algebra, whose one class is the whole matrix,
    where X's side and phi(X)'s take turns in one stack; for all B rows of a
    chunk, which the first chunk extends by the identity and diag(1..n), it
    is about 128 KB * n.
    Witnesses are the first three failing cases: probes first, then samples
    in sample order; at one pair or sample, in the order of its groups.
    """
    n_samples = integer(n_samples, "n_samples", least=1)
    tol, seed = tolerance(tol, "tol"), integer(seed, "seed", least=0)
    rho, n = mut.domain, mut.domain.n
    off = sorted(rho.off_diagonal)
    verdicts = {name: PropertyVerdict() for name in _PROPERTIES}
    probed = off[:64]
    pairs = np.array(off, dtype=int).reshape(-1, 2) - 1
    K, step = len(probed), _stack_step(n)
    diagonals = [(np.array([-2, -1]), (np.stack([np.eye(n, dtype=complex), lambda_matrix(n)]),))]
    run = SimpleNamespace(tol=tol, classes=_spectrum_classes(rho))

    streams = {}  # each built on first use, keyed by the seed and its name's bytes

    def draw(name, rows, width):
        if name not in streams:
            streams[name] = np.random.default_rng((seed, int.from_bytes(name.encode(), "little")))
        return streams[name].standard_normal((rows, width))

    for lo in range(0, K + n_samples, step):
        # a new dict frees the last chunk's cases before this chunk's are built
        hi, chunk = min(lo + step, K + n_samples), {name: [] for name in _PROPERTIES}
        _probe_cases(chunk, rho, probed[lo:hi], np.arange(lo, min(hi, K)),
                     diagonals if lo == 0 else [])
        t = np.arange(max(lo, K), hi) - K  # the chunk's samples
        if len(t):
            _sample_cases(chunk, rho, pairs, K, t, draw)
        _grade_chunk(mut, verdicts, run, chunk)
    return PreserverReport(mut.label, seed, n_samples, **verdicts)

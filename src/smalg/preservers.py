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

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .quasiorder import QuasiOrder, condition_i, image, is_symmetric, neighborhood, preimage
from .matalg import lambda_matrix, matrix_unit, project_sma, random_in_sma

__all__ = [
    "MapUnderTest",
    "CounterexampleMap",
    "PropertyVerdict",
    "PreserverReport",
    "identity_map",
    "transpose_map",
    "gen_commuting_pair",
    "counterexample",
    "case2_kink",
    "commutes_criterion",
    "classify_unit_action",
    "remark_gallery",
    "verify_preserver",
    "GALLERY_KINDS",
]

GALLERY_KINDS = ("scaling", "det_twist", "diag_shift", "noninjective_jordan")


@dataclass
class MapUnderTest:
    """A total map on the algebra of `domain`, tagged for reporting."""

    domain: QuasiOrder
    eval: Callable[[np.ndarray], np.ndarray]
    label: str


@dataclass
class CounterexampleMap(MapUnderTest):
    r: int = 0
    s: int = 0
    case: int = 0  # 1 = full 2x2 central block, 2 = strict pair


def identity_map(rho: QuasiOrder) -> MapUnderTest:
    return MapUnderTest(rho, lambda X: np.array(X, dtype=complex), "identity")


def transpose_map(rho: QuasiOrder) -> MapUnderTest:
    return MapUnderTest(rho, lambda X: np.array(X, dtype=complex).T, "transpose")


def gen_commuting_pair(rho: QuasiOrder, seed=0):
    """A commuting pair X = S D1 S^{-1}, Y = S D2 S^{-1} with S = I plus a small
    strictly-off-diagonal element of the algebra; both outputs are projected to
    the algebra exactly, leaving a commutator at roundoff level."""
    rng = np.random.default_rng(seed)  # a Generator is passed through as is
    n = rho.n
    N = random_in_sma(rho, rng)
    np.fill_diagonal(N, 0.0)
    norm = np.linalg.norm(N)
    if norm > 0:
        N *= 0.5 / norm
    S = np.eye(n, dtype=complex) + N
    Sinv = project_sma(np.linalg.inv(S), rho)
    D1 = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    D2 = np.diag(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    X = project_sma(S @ D1 @ Sinv, rho)
    Y = project_sma(S @ D2 @ Sinv, rho)
    return X, Y


def case2_kink(u: complex, v: complex) -> complex:
    """Continuous homogeneous map with injective sections: v when |u| <= |v|,
    else v |v/u|."""
    if abs(u) <= abs(v):
        return v
    return v * abs(v / u)


def counterexample(rho: QuasiOrder) -> CounterexampleMap:
    """A continuous injective commutativity and spectrum preserver on the
    algebra of rho that fails additivity; only exists (and is only built) when
    the neighborhood-intersection criterion fails.

    The witness pair is the lexicographically first violating (r,s); the map is
    the 2x2-block twist when (s,r) also lies in rho, else the strict-pair kink
    phi(X) = X off (r,s), with X_rs redrawn through case2_kink(X_ss - X_rr, X_rs).
    """
    ok, witness = condition_i(rho)
    if ok:
        raise ValueError("criterion holds: every such preserver is a Jordan embedding")
    r, s = witness
    if (s, r) in rho.pairs:
        for t in (r, s):
            if image(rho, t) != {r, s} or preimage(rho, t) != {r, s}:
                raise RuntimeError("violating symmetric pair is not a central 2x2 block")
        p, q = min(r, s) - 1, max(r, s) - 1

        def eval_case1(X):
            # b = X_pq picks up f(|c/b|) = exp(i pi / (|c/b| + 1)) and c = X_qp
            # its conjugate, so bc is kept; nothing changes where b vanishes
            out = np.array(X, dtype=complex)
            b, c = out[p, q], out[q, p]
            if b != 0:
                fval = np.exp(1j * np.pi / (abs(c / b) + 1.0))
                out[p, q], out[q, p] = b * fval, c * np.conj(fval)
            return out

        return CounterexampleMap(rho, eval_case1, f"case1-block({r},{s})", r, s, 1)

    if preimage(rho, r) != {r} or image(rho, s) != {s}:
        raise RuntimeError("violating strict pair does not isolate row r / column s")

    def eval_case2(X):
        out = np.array(X, dtype=complex)
        out[r - 1, s - 1] = case2_kink(X[s - 1, s - 1] - X[r - 1, r - 1], X[r - 1, s - 1])
        return out

    return CounterexampleMap(rho, eval_case2, f"case2-kink({r},{s})", r, s, 2)


def commutes_criterion(X, Y, rho: QuasiOrder, r: int, s: int, tol: float = 1e-9) -> bool:
    """Commutation test specialized to the strict-pair geometry: X and Y commute
    iff their (r,s)-punctured parts commute and
    (X_ss - X_rr) Y_rs = (Y_ss - Y_rr) X_rs."""
    if preimage(rho, r) != {r} or image(rho, s) != {s}:
        raise ValueError("pair (r,s) does not isolate row r / column s in rho")
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    X0 = X.copy()
    X0[r - 1, s - 1] = 0.0
    Y0 = Y.copy()
    Y0[r - 1, s - 1] = 0.0
    scale = max(1.0, float(np.linalg.norm(X)) * float(np.linalg.norm(Y)))
    base = np.linalg.norm(X0 @ Y0 - Y0 @ X0) <= tol * scale
    lhs = (X[s - 1, s - 1] - X[r - 1, r - 1]) * Y[r - 1, s - 1]
    rhs = (Y[s - 1, s - 1] - Y[r - 1, r - 1]) * X[r - 1, s - 1]
    return bool(base and abs(lhs - rhs) <= tol * scale)


def _unit_action(phi, rho: QuasiOrder, rel_tol: float = 1e-7):
    """classify_unit_action, plus the dominant scalar of each unit's image."""
    n = rho.n
    parts = (set(), set())  # pairs mapped parallel to the unit, to its flip
    scalars = {}
    for i, j in sorted(rho.off_diagonal):
        A = np.asarray(phi(matrix_unit(n, i, j)), dtype=complex)
        p, q = np.unravel_index(np.argmax(np.abs(A)), A.shape)
        at, val = (int(p) + 1, int(q) + 1), A[p, q]
        if abs(val) <= rel_tol:
            raise ValueError(f"phi(E_{i}{j}) is numerically zero")
        if np.partition(np.abs(A), -2, axis=None)[-2] > rel_tol * abs(val):
            raise ValueError(f"phi(E_{i}{j}) is parallel to no matrix unit (dominant at {at})")
        if at not in ((i, j), (j, i)):
            raise ValueError(f"phi(E_{i}{j}) concentrates at {at}, not at ({i},{j}) or ({j},{i})")
        parts[at != (i, j)].add((i, j))
        scalars[i, j] = val
    diag = frozenset((i, i) for i in range(1, n + 1))
    try:
        rho_m, rho_a = (QuasiOrder(n, diag | frozenset(part)) for part in parts)
    except ValueError as exc:
        raise ValueError(f"unit classification is not a quasi-order: {exc}") from exc
    return rho_m, rho_a, scalars


def classify_unit_action(phi, rho: QuasiOrder, rel_tol: float = 1e-7):
    """Split rho into the pairs whose matrix unit maps parallel to itself versus
    to its transpose; both parts are returned as (verified) quasi-orders.

    Raises ValueError with a witness when some image is numerically zero or
    parallel to neither the unit nor its flip.
    """
    return _unit_action(phi, rho, rel_tol)[:2]


def remark_gallery(rho: QuasiOrder, kind: str) -> MapUnderTest:
    """Named negative controls showing each preserver hypothesis is needed:
    `scaling` breaks spectrum, `det_twist` breaks commutativity (diagonal-rich
    rho), `diag_shift` breaks commutativity on the diagonal algebra, and
    `noninjective_jordan` truncates to the mutual part of a non-symmetric rho.
    """
    n = rho.n
    if kind == "scaling":
        return MapUnderTest(rho, lambda X: 2.0 * np.asarray(X, dtype=complex), "scaling-2x")

    if kind == "det_twist":
        anchors = [i for i in range(1, n + 1) if len(neighborhood(rho, i)) > 1]
        if not anchors:
            raise ValueError("det_twist needs an index with an off-diagonal neighbor")
        i0 = anchors[0] - 1

        def eval_twist(X):
            out = np.array(X, dtype=complex)
            t = 1.0 + abs(np.linalg.det(out))  # continuous, finite and >= 1
            out[i0, :] *= t
            out[:, i0] /= t
            return out

        return MapUnderTest(rho, eval_twist, f"det-twist@{i0 + 1}")

    if kind == "diag_shift":
        if rho.off_diagonal or n < 3:
            raise ValueError("diag_shift is the diagonal-algebra control (n >= 3)")

        def eval_shift(X):
            out = np.array(X, dtype=complex)
            out[1, n - 1] += X[0, 0]
            return out

        return MapUnderTest(rho, eval_shift, "diag-shift")

    if kind == "noninjective_jordan":
        if is_symmetric(rho):
            raise ValueError("truncation is injective on a symmetric rho")
        mutual = rho.mask & rho.mask.T

        def eval_trunc(X):
            return np.where(mutual, np.asarray(X, dtype=complex), 0.0)

        return MapUnderTest(rho, eval_trunc, "mutual-block-truncation")

    raise ValueError(f"unknown gallery kind {kind!r}; choose from {GALLERY_KINDS}")


BATCH = 128  # samples per generator; generators are keyed by (seed, batch index)


@dataclass
class PropertyVerdict:
    checked: int = 0
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Something was checked and nothing failed."""
        return self.checked > 0 and not self.witnesses

    def fail(self, witness):
        if len(self.witnesses) < 3:  # the first failure is always kept
            self.witnesses.append(witness)


@dataclass
class PreserverReport:
    """Sampled verdicts for one map; a property that was not graded is None."""

    label: str
    seed: int
    samples: int
    spectrum: PropertyVerdict | None = None
    commutativity: PropertyVerdict | None = None
    injectivity: PropertyVerdict | None = None
    additivity: PropertyVerdict | None = None
    homogeneity: PropertyVerdict | None = None
    jordan: PropertyVerdict | None = None
    multiplicative: PropertyVerdict | None = None
    antimultiplicative: PropertyVerdict | None = None

    @property
    def all_pass(self) -> bool:
        return all(v.ok for v in self._verdicts().values())

    def _verdicts(self):
        return {name: v for name in _PROPERTIES if (v := getattr(self, name)) is not None}

    def to_dict(self) -> dict:
        def enc(x):
            if isinstance(x, np.ndarray):
                return [[[float(z.real), float(z.imag)] for z in row] for row in x]
            if isinstance(x, complex):
                return [float(x.real), float(x.imag)]
            if isinstance(x, (np.floating, np.integer)):
                return float(x)
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
    return not np.isfinite(err) or err > limit


# A property is (sampler, error function, tolerance name, probe).  A sampler
# draws the cases of one sample from s.rng, in a fixed order; a probe lists
# deterministic cases, graded before the seeded samples.  An error function
# grades one case as (failed, witness), or returns None when the case does not
# apply.

def _spectrum_error(f, tol, X):
    """Compare det(zI - X) with det(zI - phi(X)) at n points z on a circle
    enclosing both spectra: two monic degree-n polynomials that agree at n
    points are equal.  On that circle zI - A has condition number below 3, so
    the ratio stays within a small multiple of n * eps of 1 when the spectra
    agree, at any n."""
    fX = f(X)
    n = X.shape[0]
    radius = 1.0 + 2.0 * max(float(np.linalg.norm(X)), float(np.linalg.norm(fX)))
    shifts = radius * np.exp(2j * np.pi * np.arange(n) / n)[:, None, None] * np.eye(n)
    with np.errstate(all="ignore"):  # a non-finite phi(X) grades as a NaN error
        (sign, logabs), (fsign, flogabs) = (np.linalg.slogdet(shifts - A) for A in (X, fX))
        err = float(np.max(np.abs(fsign / sign * np.exp(flogabs - logabs) - 1.0)))
    return _fails(err, tol), (X, fX, err)


def _commuting_cases(s):
    """Conjugated diagonal pairs and (X, p(X)) pairs, alternately."""
    if s.t % 2 == 0:
        return [gen_commuting_pair(s.rho, s.rng)]
    X = random_in_sma(s.rho, s.rng)
    c = s.rng.standard_normal(3) + 1j * s.rng.standard_normal(3)
    return [(X, project_sma(c[0] * np.eye(s.rho.n) + c[1] * X + c[2] * X @ X, s.rho))]


def _commutator_error(f, tol, X, Y):
    fX, fY = f(X), f(Y)
    err = float(np.linalg.norm(fX @ fY - fY @ fX))
    scale = max(1.0, float(np.linalg.norm(fX)) * float(np.linalg.norm(fY)))
    return _fails(err, tol * scale), (X, Y, err)


def _injective_cases(s):
    if not s.off:
        return [(s.X, s.Y)]
    i, j = s.off[s.t % len(s.off)]
    c = complex(s.rng.standard_normal(), s.rng.standard_normal())
    return [(s.X, s.Y), (s.X, s.X + c * matrix_unit(s.rho.n, i, j))]


def _separation_error(f, tol, X, Y):
    if np.linalg.norm(X - Y) <= 1e-6:
        return None
    fX, fY = f(X), f(Y)
    sep = float(np.linalg.norm(fX - fY))
    limit = tol * max(1.0, float(np.linalg.norm(fX)), float(np.linalg.norm(fY)))
    return not sep > limit, (X, Y, sep)  # a NaN separation is not above it, so it fails


def _additive_probe(s):
    pairs = [pair for F, P, G in s.units for pair in [(P, F), (F, G)] if pair[1] is not None]
    return [(X, Y, X + Y) for X, Y in pairs]


def _additive_error(f, tol, X, Y, XY):
    fX, fY = f(X), f(Y)
    err = float(np.linalg.norm(f(XY) - fX - fY))
    return _fails(err, tol * max(1.0, np.linalg.norm(fX) + np.linalg.norm(fY))), (X, Y, err)


def _homogeneous_cases(s):
    alpha = complex(s.rng.standard_normal(), s.rng.standard_normal())
    return [(s.X, alpha, alpha * s.X)]


def _homogeneous_error(f, tol, X, alpha, aX):
    fX = f(X)
    err = float(np.linalg.norm(f(aX) - alpha * fX))
    return _fails(err, tol * max(1.0, abs(alpha) * float(np.linalg.norm(fX)))), (X, alpha, err)


def _square_error(f, tol, X, XX):
    fX = f(X)
    err = float(np.linalg.norm(f(XX) - fX @ fX))
    return _fails(err, tol * max(1.0, float(np.linalg.norm(fX)) ** 2)), (X, err)


def _product_error(reverse):
    def error(f, tol, X, Y, XY):
        want = f(Y) @ f(X) if reverse else f(X) @ f(Y)
        err = float(np.linalg.norm(f(XY) - want))
        return _fails(err, tol * max(1.0, float(np.linalg.norm(want)))), (X, Y, err)
    return error


# samplers run in table order, which fixes the order of the random draws
_PROPERTIES = {
    "spectrum": (lambda s: [(s.X,)], _spectrum_error, "spectrum_tol", lambda s: s.diagonals),
    "commutativity": (_commuting_cases, _commutator_error, "commutator_tol", None),
    "injectivity": (_injective_cases, _separation_error, "tol",
                    lambda s: [(P, F) for F, P, _ in s.units]),
    "additivity": (lambda s: [(s.X, s.Y, s.X + s.Y)], _additive_error, "tol", _additive_probe),
    "homogeneity": (_homogeneous_cases, _homogeneous_error, "tol", None),
    "jordan": (lambda s: [(s.X, s.X @ s.X)], _square_error, "tol", None),
    "multiplicative": (lambda s: [(s.X, s.Y, s.X @ s.Y)], _product_error(False), "tol", None),
    "antimultiplicative": (lambda s: [(s.X, s.Y, s.X @ s.Y)], _product_error(True), "tol", None),
}


def _check_sampling(n_samples, **tols):
    """Reject inputs that would make a sampled verdict pass vacuously."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    for name, value in tols.items():
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value}")


def _grade(mut: MapUnderTest, names, n_samples: int, tol: float, seed: int,
           sample_scale: float = 1.0, spectrum_tol: float | None = None,
           commutator_tol: float | None = None) -> PreserverReport:
    """The sampling harness: grade the named properties of the table on the
    probes, then on `n_samples` seeded samples."""
    tols = {"tol": tol, "spectrum_tol": tol if spectrum_tol is None else spectrum_tol,
            "commutator_tol": tol if commutator_tol is None else commutator_tol}
    _check_sampling(n_samples, **tols)
    rho, phi, n = mut.domain, mut.eval, mut.domain.n
    off = sorted(rho.off_diagonal)[:64]
    graded = {name: (prop, PropertyVerdict()) for name, prop in _PROPERTIES.items()
              if name in names}
    rep = PreserverReport(mut.label, seed if isinstance(seed, int) else -1, n_samples,
                          **{name: verdict for name, (_, verdict) in graded.items()})

    def grade(s, probe):
        images = {}  # id -> (input, phi(input)); holding the input keeps its id unique

        def f(A):
            hit = images.get(id(A))
            if hit is None:
                hit = images[id(A)] = (A, phi(A))
            return hit[1]

        for (sample, error, tol_name, probe_cases), verdict in graded.values():
            cases = probe_cases if probe else sample
            for case in cases(s) if cases else ():
                result = error(f, tols[tol_name], *case)
                if result is not None:
                    verdict.checked += 1
                    if result[0]:
                        verdict.fail(result[1])

    diagonals = [(np.eye(n, dtype=complex),), (lambda_matrix(n),)]
    grade(SimpleNamespace(diagonals=diagonals, units=[]), probe=True)
    for i, j in off:  # one pair per probe, so few probe images are alive at once
        unit = (matrix_unit(n, i, j), 2.0 * matrix_unit(n, i, i) + matrix_unit(n, i, j),
                matrix_unit(n, j, i) if (j, i) in rho.pairs else None)
        grade(SimpleNamespace(diagonals=[], units=[unit]), probe=True)
    for k in range(n_samples):
        b, t = divmod(k, BATCH)
        if t == 0:
            rng = np.random.default_rng((seed, b))
        X = random_in_sma(rho, rng, sample_scale)
        Y = random_in_sma(rho, rng, sample_scale)
        grade(SimpleNamespace(rho=rho, off=off, rng=rng, t=t, X=X, Y=Y), probe=False)
    return rep


def verify_preserver(mut: MapUnderTest, n_samples: int = 1000, tol: float = 1e-8,
                     seed: int = 0, sample_scale: float = 1.0,
                     spectrum_tol: float | None = None,
                     commutator_tol: float | None = None) -> PreserverReport:
    """Grade a map on sampled spectrum/commutativity/injectivity/additivity/
    homogeneity preservation.

    Spectrum is compared on each sample X (and on the identity and diag(1..n))
    through det(zI - X) against det(zI - phi(X)) at n points of a circle that
    encloses both spectra, so no characteristic polynomial is formed; commuting
    inputs alternate between conjugated diagonal pairs and (X, p(X)) pairs.
    A non-finite output fails every property it enters, and never raises.
    Deterministic probes (the identity, diag(1..n), per-pair unit
    combinations) run before the seeded batches, so structural failures do not
    depend on sampling luck.  Batches
    use independent generators keyed by (seed, batch index) and are merged in
    batch order; they carry no shared state and may run in parallel.
    """
    return _grade(mut, ("spectrum", "commutativity", "injectivity", "additivity", "homogeneity"),
                  n_samples, tol, seed, sample_scale, spectrum_tol, commutator_tol)

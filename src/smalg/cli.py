"""Command-line front end over the JSON wire formats.

Exit codes: 0 when the requested properties hold, 2 when some check fails,
1 on usage errors or malformed input.  All randomness flows through --seed,
so reports are byte-identical across runs for fixed inputs.

`analyze` needs only the quasi-order layer.  The other verbs import numpy and
the matrix layers when they run, so `analyze` never loads them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from importlib import resources

from .quasiorder import (
    QuasiOrder,
    all_preorders,
    block_triangular_permutation,
    components,
    condition_i,
    is_symmetric,
    is_two_free,
    rank_one_density,
)
from . import jsonio
from ._checks import integer, tolerance
from ._kinds import GALLERY_KINDS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(obj, pretty):
    print(jsonio.dump_json(obj, pretty=pretty))


def _unloadable(what, path, exc):
    """Exit 1 with one line naming the file and what is wrong with it."""
    reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    print(f"error: cannot load {what} from {path}: {reason}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _load_quasiorder(path):
    try:
        return jsonio.load_quasiorder(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _unloadable("quasi-order", path, exc)


# verify, counterexample, embed and recover take n <= 32, the domain their
# verdicts are checked on; at n = 1024 the spectrum check alone would take
# 48 GiB for two samples
MATRIX_MAX_N = 32


def _matrix_domain(n, path):
    """Exit 1 with one line, before any n x n matrix is built, if n > MATRIX_MAX_N."""
    if n > MATRIX_MAX_N:
        print(f"error: {path} has n = {n}, and the matrix verbs take n <= {MATRIX_MAX_N}",
              file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def cmd_analyze(args):
    rho, added = _load_quasiorder(args.quasiorder)
    holds, witness = condition_i(rho)
    bt = block_triangular_permutation(rho)
    report = {
        "n": rho.n,
        "pair_count": len(rho.pairs),
        "added_by_closure": [list(p) for p in added],
        "classes": [sorted(c) for c in components(rho).blocks],
        "two_free": is_two_free(rho),
        "condition_i": {"holds": holds, "witness": list(witness) if witness else None},
        "symmetric": is_symmetric(rho),
        "semisimple": is_symmetric(rho),
        "block_triangular": {
            "perm": list(bt.perm),
            "sizes": list(bt.sizes),
            "upper_exact": bt.upper_exact,
        },
        "rank_one_dense": rank_one_density(rho) if rho.n <= 24 else None,
        "all_preservers_jordan": "YES" if holds else "NO",
    }
    _emit(report, args.pretty)
    if args.pretty:
        print(f"all preservers Jordan: {report['all_preservers_jordan']}")
    return EXIT_OK


def _spec_map(path):
    """The embedding of the spec in `path`, evaluated a stack at a time; exits
    1 on a bad or missing spec."""
    from .jordan import build_embedding
    from .preservers import MapUnderTest

    try:
        spec = jsonio.load_jordan_spec(path)
        _matrix_domain(spec.rho.n, path)
        return MapUnderTest(spec.rho, build_embedding(spec), "embedding", stacked=True)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        _unloadable("spec", path, exc)


def cmd_embed(args):
    from .preservers import _unit_images

    mut = _spec_map(args.spec)
    images = (item for chunk, A in _unit_images(mut, sorted(mut.domain.pairs))
              for item in zip(chunk, A))
    # the whole report is rendered before a byte of it is printed
    try:
        report = jsonio._embed_report(mut.domain.n, images, args.pretty)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report)
    return EXIT_OK


def _build_map(args):
    from .preservers import counterexample, identity_map, remark_gallery, transpose_map

    if args.spec:
        return _spec_map(args.spec)
    rho, _ = _load_quasiorder(args.quasiorder)
    _matrix_domain(rho.n, args.quasiorder)
    kind = args.kind
    if kind == "identity":
        return identity_map(rho)
    if kind == "transpose":
        return transpose_map(rho)
    if kind == "counterexample":
        return counterexample(rho)
    if kind in GALLERY_KINDS:
        return remark_gallery(rho, kind)
    raise ValueError(f"unknown map kind {kind!r}")


def cmd_verify(args):
    from .preservers import verify_preserver

    given = (bool(args.spec), bool(args.kind), bool(args.quasiorder))
    if given not in ((True, False, False), (False, True, True)):
        print("error: provide --spec FILE or --kind NAME --quasiorder FILE", file=sys.stderr)
        return EXIT_USAGE
    try:
        mut = _build_map(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = verify_preserver(mut, n_samples=args.samples, tol=args.tol, seed=args.seed)
    _emit(report.to_dict(), args.pretty)
    return EXIT_OK if report.all_pass else EXIT_FAIL


def cmd_counterexample(args):
    from .preservers import counterexample, verify_preserver

    rho, _ = _load_quasiorder(args.quasiorder)
    _matrix_domain(rho.n, args.quasiorder)
    try:
        mut = counterexample(rho)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    report = verify_preserver(mut, n_samples=args.samples, tol=args.tol, seed=args.seed)
    as_expected = mut.as_expected(report)
    _emit({
        "witness": [mut.r, mut.s],
        "case": mut.case,
        "as_expected": as_expected,
        "report": report.to_dict(),
    }, args.pretty)
    return EXIT_OK if as_expected else EXIT_FAIL


def cmd_recover(args):
    from .jordan import RecoveryError, recover_form

    mut = _spec_map(args.spec)
    try:
        rec = recover_form(mut, tol=args.tol, n_samples=args.samples, seed=args.seed)
    except RecoveryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit({
        "recovered": jsonio.jordan_spec_to_dict(rec.spec),
        "rho_m": jsonio.quasiorder_to_dict(rec.rho_m),
        "rho_a": jsonio.quasiorder_to_dict(rec.rho_a),
        "max_unit_error": rec.max_unit_error,
        "max_sample_error": rec.max_sample_error,
    }, args.pretty)
    return EXIT_OK


def _golden(name):
    return resources.files("smalg").joinpath("golden", name)


def _selftest_checks():
    import numpy as np

    from .matalg import matrix_unit, rank_one_closure_member
    from .cocycle import Nontrivial, TransitiveMap, induced_auto, triviality, validate, walk_product
    from .jordan import (CentralIdempotent, JordanSpec, RecoveryError, build_embedding,
                         central_idempotents, recover_form)
    from .preservers import MapUnderTest, counterexample, verify_preserver

    def load_q(name):
        with _golden(name).open() as fh:
            return jsonio.quasiorder_from_dict(json.load(fh))

    def check_fan():
        rho, added = load_q("fan_2x2.json")
        if added:
            return f"closure added {added}, expected the file to be closed"
        holds, witness = condition_i(rho)
        if holds or witness != (1, 3):
            return f"criterion verdict ({holds}, {witness}), expected (False, (1,3))"
        with _golden("fan_2x2_rank_one.json").open() as fh:
            A = jsonio.matrix_from_dict(json.load(fh))
        member, _ = rank_one_closure_member(A, rho)
        if member:
            return "rank-one closure membership: got True, expected False"
        mut = counterexample(rho)
        if (mut.case, mut.r, mut.s) != (2, 1, 3):
            return f"counterexample shape {(mut.case, mut.r, mut.s)}, expected (2, 1, 3)"
        X = 2 * matrix_unit(4, 1, 1) + matrix_unit(4, 1, 3)
        want = 2 * matrix_unit(4, 1, 1) + 0.5 * matrix_unit(4, 1, 3)
        got = mut.eval(X)
        if not np.array_equal(got, want):
            return f"kink image mismatch: got {got.tolist()}, want {want.tolist()}"
        return None

    def check_cocycle7():
        rho, added = load_q("nontrivial_cocycle_7.json")
        if added:
            return f"closure added {added}, expected the file to be closed"
        holds, witness = condition_i(rho)
        if not holds:
            return f"criterion should hold, got witness {witness}"
        want = ({(i, i) for i in range(1, 8)} | {(1, 3), (4, 5), (6, 7)}
                | {(i, j) for i in (1, 2, 3) for j in range(4, 8)})
        if rho.pairs != want:
            return (f"pattern mismatch: missing pairs {sorted(want - rho.pairs)}, "
                    f"extra pairs {sorted(rho.pairs - want)}")
        g = TransitiveMap(rho, {
            p: (2.0 if p in {(2, 4), (2, 5)} else 1.0) for p in rho.off_diagonal
        })
        ok, violation = validate(g)
        if not ok:
            return f"transitivity law violated at {violation}"
        verdict = triviality(g)
        if not isinstance(verdict, Nontrivial):
            return f"expected a nontrivial map, got {verdict!r}"
        if abs(verdict.product - 1.0) < 1e-9 or abs(walk_product(g, verdict.walk) - verdict.product) > 1e-12:
            return f"nontriviality walk product {verdict.product} is not a certificate"
        X = sum(matrix_unit(7, i, j) for i, j in [(1, 4), (1, 6), (2, 4), (2, 6)])
        want = (matrix_unit(7, 1, 4) + matrix_unit(7, 1, 6)
                + 2 * matrix_unit(7, 2, 4) + matrix_unit(7, 2, 6))
        got = induced_auto(g)(X)
        if not np.array_equal(got, want):
            return "entrywise automorphism image mismatch"
        sv = np.linalg.svd(got, compute_uv=False)
        if not sv[1] > 0.3:
            return f"second singular value {sv[1]:.4f} <= 0.3 (rank should jump to 2)"
        return None

    def check_two_blocks():
        rho, added = load_q("two_blocks_3x3.json")
        if added:
            return f"closure added {added}, expected the file to be closed"
        ids = central_idempotents(rho)
        if len(ids) != 4:
            return f"{len(ids)} central idempotents, expected 4"
        P = CentralIdempotent((1, 1, 1, 0, 0, 0))
        spec = JordanSpec(rho, np.eye(6, dtype=complex), TransitiveMap.constant_one(rho), P)
        mut = MapUnderTest(rho, build_embedding(spec), "embedding", stacked=True)
        try:
            rec = recover_form(mut)
        except RecoveryError as exc:
            return f"block embedding did not recover: {exc}"
        # multiplicative iff no unit is transposed, antimultiplicative iff none is kept
        kept, flipped = sorted(rec.rho_m.off_diagonal), sorted(rec.rho_a.off_diagonal)
        if not kept or not flipped:
            return f"expected both product rules to fail (kept {kept}, transposed {flipped})"
        return None

    def check_symmetric_pair():
        rho, added = load_q("symmetric_pair_3.json")
        if added:
            return f"closure added {added}, expected the file to be closed"
        mut = counterexample(rho)
        if (mut.case, mut.r, mut.s) != (1, 1, 2):
            return f"counterexample shape {(mut.case, mut.r, mut.s)}, expected (1, 1, 2)"
        E12, E21 = matrix_unit(3, 1, 2), matrix_unit(3, 2, 1)
        lhs = mut.eval(E12) + mut.eval(E21)
        rhs = mut.eval(E12 + E21)
        if np.linalg.norm(lhs - rhs) < 1e-6:
            return "block twist unexpectedly additive on the unit pair"
        report = verify_preserver(mut, n_samples=200, tol=1e-8, seed=0)
        if not mut.as_expected(report):
            return f"unexpected report: {report.to_dict()['properties']}"
        return None

    def check_preorder_census():
        pres = list(all_preorders(3))
        if len(pres) != 29:
            return f"{len(pres)} preorders on [1,3], expected 29"
        diag = QuasiOrder.diagonal(3)
        for rho in pres:
            if rho == diag:
                continue
            holds, _ = condition_i(rho)
            exact = block_triangular_permutation(rho).upper_exact
            if holds != exact:
                return ("criterion/block-triangular mismatch on pairs "
                        f"{sorted(rho.off_diagonal)}: {holds} vs {exact}")
        return None

    return [
        ("fan pattern: criterion fails, closure gap, kink witness", check_fan),
        ("7x7 pattern: nontrivial cocycle and rank jump", check_cocycle7),
        ("two-block algebra: Jordan but neither product rule", check_two_blocks),
        ("symmetric pair: block twist breaks additivity", check_symmetric_pair),
        ("3-point census: 29 preorders, criterion = block-triangularizable", check_preorder_census),
    ]


def cmd_selftest(args):
    failures = []
    t0 = time.perf_counter()
    for name, check in _selftest_checks():
        t = time.perf_counter()
        try:
            diff = check()
        except Exception as exc:  # a broken golden file should fail, not crash
            diff = f"exception: {exc!r}"
        status = "PASS" if diff is None else "FAIL"
        print(f"[{status}] {name} ({1e3 * (time.perf_counter() - t):.1f} ms)")
        if diff is not None:
            print(f"       {diff}")
            failures.append(name)
    print(f"selftest: {len(failures)} failure(s) in {time.perf_counter() - t0:.1f}s")
    return EXIT_OK if not failures else EXIT_FAIL


def _checked(convert, check, name, **bounds):
    """An argparse type: `convert`, then `check` it as the argument `name`; a
    ValueError is a usage error."""
    def parse(text):
        try:
            return check(convert(text), name, **bounds)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _add_common(p, samples_default=1000):
    p.add_argument("--seed", type=_checked(int, integer, "seed", least=0), default=0,
                   help="root seed for all sampling (>= 0)")
    p.add_argument("--tol", type=_checked(float, tolerance, "tol"), default=1e-8,
                   help="comparison tolerance (finite, > 0)")
    p.add_argument("--samples", type=_checked(int, integer, "n_samples", least=1),
                   default=samples_default, help="sample count (>= 1)")
    p.add_argument("--pretty", action="store_true", help="indented human-oriented output")


@functools.cache
def _parser():
    """The argument parser, built once: parse_args leaves it as it is and
    gives each call a fresh namespace."""
    parser = _Parser(prog="smalg", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="structural report for a quasi-order file")
    p.add_argument("quasiorder")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("embed", help="matrix-unit table of an embedding spec")
    p.add_argument("spec")
    p.add_argument("--pretty", action="store_true")

    p = sub.add_parser("verify", help="grade a map as a preserver")
    p.add_argument("--spec", help="embedding spec JSON to verify")
    p.add_argument("--kind", help="builtin map: identity, transpose, counterexample, "
                                  + ", ".join(GALLERY_KINDS))
    p.add_argument("--quasiorder", help="quasi-order file for --kind maps")
    _add_common(p)

    p = sub.add_parser("counterexample", help="build and grade the non-Jordan preserver")
    p.add_argument("quasiorder")
    _add_common(p)

    p = sub.add_parser("recover", help="recover (S, g, P) data from an embedding spec")
    p.add_argument("--spec", required=True)
    _add_common(p, samples_default=100)

    sub.add_parser("selftest", help="run the golden end-to-end checks")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        # the verb's function is looked up per call, so a rebinding of it
        # takes effect although the parser is built once
        return globals()[f"cmd_{args.verb}"](args)
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

"""Cost per sample of the sampling harness, `verify_preserver`, at n = 4, 8, 16 and 32.

    python3 bench/harness.py
    python3 bench/harness.py --src before=/path/to/other/src --src after=src --rounds 5
    python3 bench/harness.py --smoke

Each `--src LABEL=PATH` names a source tree to import smalg from (default:
this checkout's `src`).  Every round measures each tree once, in a fresh
process, alternating which tree goes first.  Two maps are graded on the full
algebra M_n: `identity`, whose phi is one copy, so the time is the harness's
own, and `embedding`, a Jordan embedding X -> S X S^-1 with cond(S) <= 50.
Two more are graded on the upper triangular algebra T_n, whose mutual classes
are singletons: `upper embedding`, the anti-automorphism embedding
X -> S X^t S^-1, whose images leave T_n, which must pass, and `upper
scaling`, the X -> 2X control, whose images stay in T_n, which must fail
spectrum.  At n = 4 a fifth map is graded: `counterexample`, smalg's
non-Jordan preserver on the criterion-failing fan pattern, the map the
`counterexample` verb grades.  The embeddings are wrapped as `smalg verify
--spec` wraps them: stacked when the tree's MapUnderTest has the `stacked`
field, so every tree is measured as its own CLI runs.  For each map,
`fixed_ms` is the time of a 1-sample verdict (the probes and the set-up),
and `us_per_sample` is (t(N) - t(1)) / (N - 1).  Each time is the median of
REPEATS calls; the JSON gives the median and quartiles over rounds.  BLAS
runs on one thread.  The result goes to BENCH_harness.json; `--smoke`
measures n = 4 for one round and writes no file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from trees import source_trees, summary

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = {4: 256, 8: 256, 16: 64, 32: 32}  # N per verdict, about 0.1-0.5 s each
REPEATS = 5


def _maps(n):
    """name -> (map, whether its verdict is the expected one)."""
    import numpy as np
    from smalg.cocycle import coboundary
    from smalg.jordan import CentralIdempotent, JordanSpec, build_embedding
    from smalg.preservers import MapUnderTest, counterexample, identity_map, remark_gallery
    from smalg.quasiorder import QuasiOrder, closure

    rng = np.random.default_rng(n)
    rho = QuasiOrder.full(n)
    upper = closure(n, {(i, i + 1) for i in range(1, n)})
    fields = {f.name for f in dataclasses.fields(MapUnderTest)}
    stacked = {"stacked": True} if "stacked" in fields else {}

    def unitary():
        Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return Q * (np.diag(R) / np.abs(np.diag(R)))

    def embedding(domain, bit):
        """X -> S X S^-1 (bit 1) or S X^t S^-1 (bit 0), with cond(S) <= 50."""
        S = unitary() @ np.diag(np.exp(rng.uniform(0.0, np.log(50.0), n))) @ unitary()
        spec = JordanSpec(domain, S, coboundary(domain, {i: 1.0 for i in range(1, n + 1)}),
                          CentralIdempotent((bit,) * n))
        return MapUnderTest(domain, build_embedding(spec), "embedding", **stacked)

    maps = {"identity": (identity_map(rho), lambda rep: rep.all_pass),
            "embedding": (embedding(rho, 1), lambda rep: rep.all_pass),
            "upper embedding": (embedding(upper, 0), lambda rep: rep.all_pass),
            "upper scaling": (remark_gallery(upper, "scaling"),
                              lambda rep: not rep.spectrum.ok)}
    if n == 4:
        fan = closure(4, {(1, 3), (1, 4), (2, 3), (2, 4)})
        # the counterexample verb's `as_expected`
        maps["counterexample"] = (counterexample(fan), lambda rep: (
            rep.spectrum.ok and rep.commutativity.ok and rep.injectivity.ok
            and not rep.additivity.ok))
    return maps


def _seconds(mut, expected, n_samples):
    from smalg.preservers import verify_preserver

    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        rep = verify_preserver(mut, n_samples=n_samples, seed=0)
        times.append(time.perf_counter() - t0)
        if not expected(rep):
            raise SystemExit(f"error: unexpected verdict for {mut.label} at n={mut.domain.n}")
    return statistics.median(times)


def worker(src, smoke):
    sys.path.insert(0, str(src))
    out = {}
    for n, big in SAMPLES.items():
        if smoke and n != 4:
            continue
        for name, (mut, expected) in _maps(n).items():
            _seconds(mut, expected, 2)  # warm caches and lazy imports
            one, many = _seconds(mut, expected, 1), _seconds(mut, expected, big)
            out[f"n={n} {name}"] = {"fixed_ms": 1e3 * one,
                                    "us_per_sample": 1e6 * (many - one) / (big - 1)}
    print(json.dumps(out))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH",
                        help="a source tree to measure (repeatable; default: src=./src)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_harness.json")
    parser.add_argument("--smoke", action="store_true",
                        help="n = 4 only, one round, no file written")
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args.worker, args.smoke)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    trees = source_trees(parser, args.src, ROOT)
    rounds = 1 if args.smoke else args.rounds

    runs = {label: [] for label, _ in trees}
    for r in range(rounds):
        for label, path in trees[::-1] if r % 2 else trees:
            done = subprocess.run([sys.executable, __file__, "--worker", str(path)]
                                  + ["--smoke"] * args.smoke, capture_output=True, text=True)
            if done.returncode != 0:
                raise SystemExit(f"{label}: {done.stderr.strip()}")
            runs[label].append(json.loads(done.stdout))
            print(f"round {r + 1} {label} done", file=sys.stderr)

    results = {}
    for label, rounds in runs.items():
        results[label] = {}
        for case in rounds[0]:
            results[label][case] = {}
            for metric in ("fixed_ms", "us_per_sample"):
                results[label][case][metric] = summary([rnd[case][metric] for rnd in rounds])
    import numpy as np

    report = {
        "what": "verify_preserver cost on the full algebra M_n and the upper triangular "
                "algebra T_n, and of the counterexample on the 4-point fan pattern: fixed_ms "
                "is a 1-sample verdict, us_per_sample the cost of each further sample",
        "samples": {f"n={n}": big for n, big in SAMPLES.items() if not args.smoke or n == 4},
        "rounds": rounds,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "results": results,
    }
    if not args.smoke:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for label, cases in results.items():
        for case, m in cases.items():
            print(f"{label:>8} {case:>24}  fixed {m['fixed_ms']['median']:8.2f} ms"
                  f"  {m['us_per_sample']['median']:9.1f} us/sample")
    if not args.smoke:
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()

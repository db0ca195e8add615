"""CPU time and peak memory of the spec verbs `embed`, `verify --spec --samples 20`
and `recover --spec` on two shapes at n = 8, 16, 24 and 32: the full algebra
M_n with P = I, and the upper-triangular algebra T_n with P = 0, the
embedding's transposing branch.

    python3 bench/spec_verbs.py
    python3 bench/spec_verbs.py --src before=/path/to/other/src --src after=src --rounds 5
    python3 bench/spec_verbs.py --smoke

Each `--src LABEL=PATH` names a source tree to import smalg from (default:
this checkout's `src`).  The specs are written once: S = U diag(sigma) V with
U, V unitary and sigma in [1, 50] and g a coboundary, seeded by n, so both
shapes share S and the values of g.
Every measurement runs one verb in a fresh process, and every round measures
each tree once, alternating which tree goes first.  `cpu_s` is the process's
user plus system time over the verb's call, printing its report to /dev/null
included; `maxrss_mb` is the process's ru_maxrss.  The JSON gives the median
and quartiles over rounds.  BLAS threads follow the environment (set
OPENBLAS_NUM_THREADS=1 for stable figures).  The result goes to
BENCH_spec_verbs.json; `--smoke` measures both shapes at n = 8 for one round
and writes no file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from trees import source_trees, summary

ROOT = Path(__file__).resolve().parent.parent
SIZES = (8, 16, 24, 32)
# shape -> (membership of (i, j), the idempotent's bit)
SHAPES = {"full": (lambda i, j: True, 1), "upper": (lambda i, j: i <= j, 0)}
VERBS = {
    "embed": lambda spec: ["embed", spec],
    "verify": lambda spec: ["verify", "--spec", spec, "--samples", "20"],
    "recover": lambda spec: ["recover", "--spec", spec],
}


def write_spec(n, shape, path):
    import numpy as np

    rng = np.random.default_rng(n)

    def unitary():
        Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return Q * (np.diag(R) / np.abs(np.diag(R)))

    S = unitary() @ np.diag(np.exp(rng.uniform(0.0, np.log(50.0), n))) @ unitary()
    s = np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
    member, bit = SHAPES[shape]
    pairs = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1) if member(i, j)]
    spec = {
        "quasiorder": {"n": n, "pairs": pairs},
        "s_matrix": {"n": n, "entries": np.stack([S.real, S.imag], -1).tolist()},
        "transitive_map": {"pairs": [[i, j, [(s[i - 1] / s[j - 1]).real,
                                             (s[i - 1] / s[j - 1]).imag]]
                                     for i, j in pairs if i != j]},
        "idempotent_diag": [bit] * n,
    }
    Path(path).write_text(json.dumps(spec))


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def worker(src, argv):
    sys.path.insert(0, str(src))
    from smalg.cli import main

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = _cpu_s()
        code = main(argv)
        cpu = _cpu_s() - t0
    if code != 0:
        raise SystemExit(f"error: smalg {' '.join(argv)} exited {code}")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(json.dumps({"cpu_s": cpu, "maxrss_mb": maxrss}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH",
                        help="a source tree to measure (repeatable; default: src=./src)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_spec_verbs.json")
    parser.add_argument("--smoke", action="store_true",
                        help="both shapes at n = 8, one round, no file written")
    parser.add_argument("--worker", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        return worker(args.worker[0], args.worker[1:])
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    trees = source_trees(parser, args.src, ROOT)
    sizes, rounds = ((8,), 1) if args.smoke else (SIZES, args.rounds)

    runs = {label: {} for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        specs = {(shape, n): os.path.join(tmp, f"spec_{shape}{n}.json")
                 for n in sizes for shape in SHAPES}
        for (shape, n), path in specs.items():
            write_spec(n, shape, path)
        for r in range(rounds):
            for label, src in trees[::-1] if r % 2 else trees:
                for (shape, n), spec in specs.items():
                    for verb, argv in VERBS.items():
                        done = subprocess.run(
                            [sys.executable, __file__, "--worker", str(src), *argv(spec)],
                            capture_output=True, text=True)
                        if done.returncode != 0:
                            raise SystemExit(f"{label}: {done.stderr.strip()}")
                        runs[label].setdefault(f"{shape}{n} {verb}", []).append(json.loads(done.stdout))
                print(f"round {r + 1} {label} done", file=sys.stderr)

    results = {}
    for label, cases in runs.items():
        results[label] = {}
        for case, samples in cases.items():
            results[label][case] = {}
            for metric in ("cpu_s", "maxrss_mb"):
                results[label][case][metric] = summary([m[metric] for m in samples])
    import numpy as np

    report = {
        "what": "spec verbs on M_n with P = I (fullN) and T_n with P = 0 (upperN), one fresh "
                "process per measurement: cpu_s is the CPU time of the verb's call, "
                "maxrss_mb the process's peak RSS",
        "rounds": rounds,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")},
        "results": results,
    }
    if not args.smoke:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for label, cases in results.items():
        for case, m in cases.items():
            print(f"{label:>8} {case:>14}  cpu {m['cpu_s']['median']:8.3f} s"
                  f"  maxrss {m['maxrss_mb']['median']:7.1f} MB")
    if not args.smoke:
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()

"""The driver the bench scripts share.

A script hands `run` its worker, its child jobs, its metric names, the
`what` text of its report and the format of its printed lines.  `run` takes
`--src LABEL=PATH` (repeatable; default: this checkout's `src`), `--rounds`
and `--smoke`.  Every round runs `script --worker SRC *job` in a fresh
process for each job of each tree, alternating which tree goes first; each
child prints `{case: {metric: value}}`.  The report gives the median and
quartiles of each metric over the rounds and goes to the script's fixed
`BENCH_<script>.json`; `--smoke` runs the smallest size for one round and
writes no file.  BLAS runs on one thread: the thread variables default to 1
here, before numpy is loaded, and the children inherit them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent


def conditioned_s(rng, n):
    """U diag(sigma) V drawn from `rng`, with U, V unitary and sigma in [1, 50],
    so cond(S) <= 50."""
    import numpy as np

    def unitary():
        Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return Q * (np.diag(R) / np.abs(np.diag(R)))

    return unitary() @ np.diag(np.exp(rng.uniform(0.0, np.log(50.0), n))) @ unitary()


def _summary(values):
    """Median and quartiles of one metric's values over rounds."""
    if len(values) < 2:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def run(worker, jobs, metrics, what, line, **head):
    """The calling script's command line.  `worker(*job)` measures one job in
    a child that imports smalg from SRC and returns {case: {metric: value}};
    `jobs(smoke, tmp)` lists the jobs, each a list of strings, and may write
    their inputs to the directory `tmp`, which lasts the run.  The report
    holds `what`, then `head`, then the rounds, the machine and the results;
    `line` formats each printed case from its label, its name and the median
    of each metric."""
    script = sys.modules["__main__"]
    parser = argparse.ArgumentParser(description=script.__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", metavar="LABEL=PATH",
                        help="a source tree to measure (repeatable; default: src=./src)")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--smoke", action="store_true",
                        help="the smallest size, one round, no file written")
    parser.add_argument("--worker", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        sys.path.insert(0, args.worker[0])
        print(json.dumps(worker(*args.worker[1:])))
        return
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    trees = []
    for item in args.src or [f"src={ROOT / 'src'}"]:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "smalg").is_dir():
            parser.error(f"--src {item!r}: expected LABEL=PATH to a tree holding smalg/")
        trees.append((label, Path(path).resolve()))
    rounds = 1 if args.smoke else args.rounds

    runs = {label: [] for label, _ in trees}
    with tempfile.TemporaryDirectory() as tmp:
        todo = jobs(args.smoke, tmp)
        for r in range(rounds):
            for label, src in trees[::-1] if r % 2 else trees:
                cases = {}
                for job in todo:
                    done = subprocess.run([sys.executable, script.__file__, "--worker", str(src),
                                           *job], capture_output=True, text=True)
                    if done.returncode != 0:
                        raise SystemExit(f"{label}: {done.stderr.strip()}")
                    cases.update(json.loads(done.stdout))
                runs[label].append(cases)
                print(f"round {r + 1} {label} done", file=sys.stderr)

    results = {label: {case: {m: _summary([rnd[case][m] for rnd in rnds]) for m in metrics}
                       for case in rnds[0]}
               for label, rnds in runs.items()}
    import numpy as np

    report = {
        "what": what,
        **head,
        "rounds": rounds,
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "results": results,
    }
    out = ROOT / f"BENCH_{Path(script.__file__).stem}.json"
    if not args.smoke:
        out.write_text(json.dumps(report, indent=1) + "\n")
    for label, cases in results.items():
        for case, m in cases.items():
            print(line.format(label=label, case=case, **{k: v["median"] for k, v in m.items()}))
    if not args.smoke:
        print(f"wrote {out}", file=sys.stderr)

"""CPU time and peak memory of the spec verbs `embed`, `embed --pretty`,
`verify --spec --samples 20` and `recover --spec` on two shapes at n = 8, 16,
24 and 32: the full algebra M_n with P = I, and the upper-triangular algebra
T_n with P = 0, the embedding's transposing branch; and the start-to-exit cost
of a fresh `python -m smalg.cli analyze` process on the 7-point golden file.

    python3 bench/spec_verbs.py
    python3 bench/spec_verbs.py --src before=/path/to/other/src --src after=src --rounds 5
    python3 bench/spec_verbs.py --smoke

The shared driver in `trees.py` runs the rounds: each `--src LABEL=PATH`
names a source tree to import smalg from (default: this checkout's `src`),
and every round measures each tree once, alternating which tree goes first.
The specs are written once: S = U diag(sigma) V with U, V unitary and sigma
in [1, 50] and g a coboundary, seeded by n, so both shapes share S and the
values of g.  Every measurement runs one verb in a fresh process.  `cpu_s`
and `wall_s` are the process's user plus system time and its wall time over
the verb's call, printing its report to /dev/null included; `maxrss_mb` is
the process's ru_maxrss.  The `cocycle7 analyze` row instead starts
`python -m smalg.cli analyze` as a child of the measuring process and times
the child from start to exit, interpreter start and imports included: its
CPU time, its wall time and its ru_maxrss.  The JSON gives the median and
quartiles over rounds.  BLAS runs on one thread.
The result always goes to BENCH_spec_verbs.json; `--smoke` measures both
shapes at n = 8 for one round and writes no file.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from trees import conditioned_s, run

SIZES = (8, 16, 24, 32)
# shape -> (membership of (i, j), the idempotent's bit)
SHAPES = {"full": (lambda i, j: True, 1), "upper": (lambda i, j: i <= j, 0)}
VERBS = {
    "embed": lambda spec: ["embed", spec],
    "embed-pretty": lambda spec: ["embed", spec, "--pretty"],
    "verify": lambda spec: ["verify", "--spec", spec, "--samples", "20"],
    "recover": lambda spec: ["recover", "--spec", spec],
}


def write_spec(n, shape, path):
    import numpy as np

    rng = np.random.default_rng(n)
    S = conditioned_s(rng, n)
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


def jobs(smoke, tmp):
    """[case, *argv] per verb, shape and size, with the specs written to tmp."""
    out = []
    for n in SIZES[:1] if smoke else SIZES:
        for shape in SHAPES:
            spec = os.path.join(tmp, f"spec_{shape}{n}.json")
            write_spec(n, shape, spec)
            out += [[f"{shape}{n} {verb}", *argv(spec)] for verb, argv in VERBS.items()]
    return out + [["cocycle7 analyze", "analyze", "nontrivial_cocycle_7.json"]]


def _cpu_s(who=resource.RUSAGE_SELF):
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def _fresh_analyze(golden):
    """`python -m smalg.cli analyze` on the golden file `golden` in a child
    process, importing smalg from where this worker does; the worker starts
    no other child, so RUSAGE_CHILDREN reads that child alone."""
    import smalg

    src = Path(smalg.__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(src.parent))
    argv = [sys.executable, "-m", "smalg.cli", "analyze", str(src / "golden" / golden)]
    t0, cpu0 = time.perf_counter(), _cpu_s(resource.RUSAGE_CHILDREN)
    code = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL).returncode
    wall, cpu = time.perf_counter() - t0, _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    return code, cpu, wall, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def worker(case, *argv):
    if argv[0] == "analyze":
        code, cpu, wall, maxrss = _fresh_analyze(argv[1])
    else:
        # the verbs import numpy and the matrix layers when they run, and
        # smalg.jordan imports them all: the verb's call is timed without them
        import smalg.jordan  # noqa: F401
        from smalg.cli import main

        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0, cpu0 = time.perf_counter(), _cpu_s()
            code = main(list(argv))
            wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if code != 0:
        raise SystemExit(f"error: smalg {' '.join(argv)} exited {code}")
    return {case: {"cpu_s": cpu, "wall_s": wall, "maxrss_mb": maxrss / 1024}}  # KiB on Linux


if __name__ == "__main__":
    run(worker, jobs, ("cpu_s", "wall_s", "maxrss_mb"),
        "spec verbs on M_n with P = I (fullN) and T_n with P = 0 (upperN), one fresh process "
        "per measurement: cpu_s and wall_s are the CPU and wall time of the verb's call, "
        "maxrss_mb the process's peak RSS; cocycle7 analyze is a fresh `python -m smalg.cli "
        "analyze` process on the 7-point golden file, timed from start to exit",
        "{label:>8} {case:>19}  cpu {cpu_s:8.3f} s  wall {wall_s:8.3f} s  "
        "maxrss {maxrss_mb:7.1f} MB")

"""CPU time and peak memory of the spec verbs `embed`, `embed --pretty`,
`verify --spec --samples 20` and `recover --spec` on two shapes at n = 8, 16,
24 and 32: the full algebra M_n with P = I, and the upper-triangular algebra
T_n with P = 0, the embedding's transposing branch.

    python3 bench/spec_verbs.py
    python3 bench/spec_verbs.py --src before=/path/to/other/src --src after=src --rounds 5
    python3 bench/spec_verbs.py --smoke

The shared driver in `trees.py` runs the rounds: each `--src LABEL=PATH`
names a source tree to import smalg from (default: this checkout's `src`),
and every round measures each tree once, alternating which tree goes first.
The specs are written once: S = U diag(sigma) V with U, V unitary and sigma
in [1, 50] and g a coboundary, seeded by n, so both shapes share S and the
values of g.  Every measurement runs one verb in a fresh process.  `cpu_s`
is the process's user plus system time over the verb's call, printing its
report to /dev/null included; `maxrss_mb` is the process's ru_maxrss.  The
JSON gives the median and quartiles over rounds.  BLAS runs on one thread.
The result always goes to BENCH_spec_verbs.json; `--smoke` measures both
shapes at n = 8 for one round and writes no file.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
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
    return out


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def worker(case, *argv):
    from smalg.cli import main

    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = _cpu_s()
        code = main(list(argv))
        cpu = _cpu_s() - t0
    if code != 0:
        raise SystemExit(f"error: smalg {' '.join(argv)} exited {code}")
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return {case: {"cpu_s": cpu, "maxrss_mb": maxrss}}


if __name__ == "__main__":
    run(worker, jobs, ("cpu_s", "maxrss_mb"),
        "spec verbs on M_n with P = I (fullN) and T_n with P = 0 (upperN), one fresh process "
        "per measurement: cpu_s is the CPU time of the verb's call, maxrss_mb the process's "
        "peak RSS",
        "{label:>8} {case:>19}  cpu {cpu_s:8.3f} s  maxrss {maxrss_mb:7.1f} MB")

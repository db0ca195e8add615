"""Cost per sample of the sampling harness, `verify_preserver`, at n = 4, 8, 16 and 32.

    python3 bench/harness.py
    python3 bench/harness.py --src before=/path/to/other/src --src after=src --rounds 5
    python3 bench/harness.py --smoke

The shared driver in `trees.py` runs the rounds: each `--src LABEL=PATH`
names a source tree to import smalg from (default: this checkout's `src`),
and every round measures each n of each tree in a fresh process of its
own, alternating which tree goes first.  Two maps are graded on the full
algebra M_n: `identity`, whose phi is one copy, so the time is the
harness's own, and `embedding`, a Jordan embedding X -> S X S^-1 with
cond(S) <= 50.  Two more are graded on the upper triangular algebra T_n,
whose mutual classes are singletons: `upper embedding`, the
anti-automorphism embedding X -> S X^t S^-1, whose images leave T_n, which
must pass, and `upper scaling`, the X -> 2X control, whose images stay in
T_n, which must fail spectrum.  At n = 4 a fifth map is graded: `counterexample`, smalg's
non-Jordan preserver on the criterion-failing fan pattern, the map the
`counterexample` verb grades.  The embeddings are stacked, as `smalg verify
--spec` wraps them.  For each map, `fixed_ms` is the time of a 1-sample
verdict (the probes and the set-up), and `us_per_sample` is
(t(N) - t(1)) / (N - 1).  Each time is the median of REPEATS calls; the
JSON gives the median and quartiles over rounds.  BLAS runs on one thread.
The result always goes to BENCH_harness.json; `--smoke` measures n = 4 for
one round and writes no file.
"""

from __future__ import annotations

import statistics
import time

from trees import conditioned_s, run

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

    def embedding(domain, bit):
        """X -> S X S^-1 (bit 1) or S X^t S^-1 (bit 0), with cond(S) <= 50."""
        spec = JordanSpec(domain, conditioned_s(rng, n),
                          coboundary(domain, {i: 1.0 for i in range(1, n + 1)}),
                          CentralIdempotent((bit,) * n))
        return MapUnderTest(domain, build_embedding(spec), "embedding", stacked=True)

    maps = {"identity": (identity_map(rho), lambda rep: rep.all_pass),
            "embedding": (embedding(rho, 1), lambda rep: rep.all_pass),
            "upper embedding": (embedding(upper, 0), lambda rep: rep.all_pass),
            "upper scaling": (remark_gallery(upper, "scaling"),
                              lambda rep: not rep.spectrum.ok)}
    if n == 4:
        fan = closure(4, {(1, 3), (1, 4), (2, 3), (2, 4)})
        mut = counterexample(fan)
        maps["counterexample"] = (mut, mut.as_expected)
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


def worker(size):
    n = int(size)
    big, out = SAMPLES[n], {}
    for name, (mut, expected) in _maps(n).items():
        _seconds(mut, expected, 2)  # warm caches and lazy imports
        one, many = _seconds(mut, expected, 1), _seconds(mut, expected, big)
        out[f"n={n} {name}"] = {"fixed_ms": 1e3 * one,
                                "us_per_sample": 1e6 * (many - one) / (big - 1)}
    return out


if __name__ == "__main__":
    run(worker, lambda smoke, tmp: [[str(n)] for n in SAMPLES if n == 4 or not smoke],
        ("fixed_ms", "us_per_sample"),
        "verify_preserver cost on the full algebra M_n and the upper triangular algebra T_n, "
        "and of the counterexample on the 4-point fan pattern: fixed_ms is a 1-sample "
        "verdict, us_per_sample the cost of each further sample",
        "{label:>8} {case:>24}  fixed {fixed_ms:8.2f} ms  {us_per_sample:9.1f} us/sample",
        samples={f"n={n}": big for n, big in SAMPLES.items()})

"""smalg benchmark: one closed-loop caller, one workload per process.

    python3 smalgbench/run.py --workload sweep4 --seed 1 --seconds 12 --trace 0
    python3 smalgbench/run.py --smoke

Run from the repository root; smalg is imported from ./src.  The last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and `metrics`
(the end-to-end metrics with --trace 0, the per-layer ones with --trace 1).
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# one caller and no threads, BLAS included; set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".smalgbench"

END_TO_END = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("verdict_p50_ms", "ms"),
    ("verdict_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]
SETUP_REPEATS = 3

# The machine's speed swings by up to 2x for minutes at a time (NOTES.md,
# "Machine speed").  A fixed probe runs between verdicts, at most every
# PROBE_EVERY_S, and times are reported as if the probe's mean over the run
# had been PROBE_REF_S, about its time on an idle core of the baseline machine.
PROBE_EVERY_S = 0.1
PROBE_REF_S = 1.0e-3


def probe():
    """Fixed pure-Python work; its time tracks how fast this core runs right now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    return time.perf_counter() - t0


def import_smalg():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import smalg
        import smalg.cli
        import smalg.quasiorder
    except ImportError as exc:
        raise SystemExit(f"error: cannot import smalg from {src}: {exc}")
    if not Path(smalg.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: smalg was imported from {smalg.__file__}, not from {src}")
    return SimpleNamespace(cli=smalg.cli, quasiorder=smalg.quasiorder)


def set_up(workload, seed, size, dirpath):
    """The timed set-up: import smalg and write the workload's inputs."""
    import_smalg()
    dirpath.mkdir(parents=True)
    manifest = workloads.SETUP[workload](str(dirpath), seed, size)
    with open(dirpath / "manifest.json", "w") as fh:
        json.dump(manifest, fh)


def measure_setup(args, size, repeats):
    """Set up `repeats` times, each in a fresh interpreter.  Returns the median
    wall time from process start to exit, at the reference speed, the same
    median as measured, and the last inputs dir."""
    times, probes, dirs = [], [], []
    for k in range(repeats):
        dirpath = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}-{k}"
        shutil.rmtree(dirpath, ignore_errors=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only", str(dirpath),
               "--workload", args.workload, "--seed", str(args.seed), "--size", size]
        probes += [probe() for _ in range(3)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, timeout=120)
        times.append(time.perf_counter() - t0)
        probes += [probe() for _ in range(3)]
        dirs.append(dirpath)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up exited with {proc.returncode}")
    for d in dirs[:-1]:
        shutil.rmtree(d, ignore_errors=True)
    raw = statistics.median(times)
    return raw * PROBE_REF_S / statistics.mean(probes), raw, dirs[-1]


class Tally:
    """Runs items, times each call, and checks each verdict after the clock stops."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.total = 0.0  # timed seconds, checks excluded
        self.carry = 0.0  # scan time not yet charged to a verdict
        self.latencies = []
        self.by_kind = {}
        self.failures = []
        self.records = []  # what the verdict digest hashes, in order
        self.probes = [probe()]
        self.next_probe = time.perf_counter() + PROBE_EVERY_S

    def run(self, item, record=True):
        if self.tracer:
            self.tracer.item = len(self.latencies)
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a raising verdict is a failed verdict, not a crash
            out = exc
        dt = time.perf_counter() - t0
        self.total += dt
        if out is workloads.NO_VERDICT:
            self.carry += dt
            return
        latency, self.carry = dt + self.carry, 0.0
        self.latencies.append(latency)
        self.by_kind.setdefault(item.kind, []).append(latency)
        if isinstance(out, Exception):
            verdict = workloads.Verdict(False, f"raised {type(out).__name__}: {out}",
                                        f"{item.label}\nraised {type(out).__name__}\n".encode())
        else:
            try:
                verdict = item.check(out)
            except Exception as exc:  # malformed output
                verdict = workloads.Verdict(False, f"check raised {type(exc).__name__}: {exc}",
                                            f"{item.label}\nunreadable\n".encode())
        if record:
            self.records.append(verdict.record)
        if not verdict.ok:
            self.failures.append((item.label, verdict.failure))
        if time.perf_counter() >= self.next_probe:
            self.probes.append(probe())
            self.next_probe = time.perf_counter() + PROBE_EVERY_S

    def digest(self):
        return hashlib.sha256(b"".join(self.records)).hexdigest()

    def scaled(self):
        """Latencies at the reference speed."""
        return np.array(self.latencies) * PROBE_REF_S / statistics.mean(self.probes)


def timed_run(work, seconds):
    """Closed loop over whole passes until at least `seconds` have been timed,
    so every run measures the same mix of items."""
    tally = Tally()
    passes = 0
    while tally.total < seconds:
        for item in work.pass_items(passes):
            tally.run(item, record=passes == 0)
        passes += 1
    return tally, passes


def environment(seed):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": {v: os.environ.get(v) for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
        "seed": seed,
    }


def run_workload(args, size, trace):
    """One workload run; returns (result line object, summary dict)."""
    setup_s, setup_raw_s, inputs = measure_setup(args, size, SETUP_REPEATS if size == "full" else 1)
    try:
        lib = import_smalg()
        with open(inputs / "manifest.json") as fh:
            manifest = json.load(fh)
        work = workloads.WORKLOADS[args.workload](lib, str(inputs), manifest, args.seed)
        if trace:
            return traced_run(args, work)
        timed, passes = timed_run(work, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    tail_p = workloads.TAIL_PERCENTILE[args.workload]

    def timing(lat, setup):
        return {
            "setup_s": setup,
            "verdicts_per_s": len(lat) / float(np.sum(lat)),
            "verdict_p50_ms": float(np.percentile(lat, 50)) * 1e3,
            "verdict_tail_ms": float(np.percentile(lat, tail_p)) * 1e3,
        }

    lat = timed.scaled()
    metrics = dict(timing(lat, setup_s), peak_rss_mb=peak_rss_mb)
    summary = {
        "workload": args.workload,
        "timed_s": timed.total,
        "passes": passes,
        "tail_percentile": tail_p,
        "beyond_tail": int(np.sum(lat > np.percentile(lat, tail_p))),
        "as_measured": timing(np.array(timed.latencies), setup_raw_s),
        "probe_ms": {"mean": statistics.mean(timed.probes) * 1e3, "count": len(timed.probes)},
        "p50_ms_by_kind": {k: float(np.median(v)) * 1e3 for k, v in sorted(timed.by_kind.items())},
        "digest_pass0": timed.digest(),
    }
    return finish(metrics, dict(END_TO_END), len(lat), timed.failures, work.gate_errors, summary)


def traced_run(args, work):
    """Pass 0 with spans on gives the per-layer metrics.  Its first verdicts
    were also run untraced beforehand, for `seconds / 2`; the overhead is the
    ratio of the two times over those verdicts."""
    plain = Tally()
    for item in work.pass_items(0):
        plain.run(item)
        if plain.total >= args.seconds / 2:
            break
    tracer = Tracer()
    traced = Tally(tracer)
    tracer.install()
    try:
        for item in work.pass_items(0):
            traced.run(item)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.npz"
    tracer.write(spans_path)
    n = len(plain.latencies)
    metrics = tracer.metrics(float(np.sum(traced.scaled()[:n]) / np.sum(plain.scaled())))
    gate_errors = list(work.gate_errors)
    if traced.records[:n] != plain.records:
        gate_errors.append("tracing changed the verdict outputs")
    summary = {
        "workload": args.workload,
        "overhead_verdicts": n,
        "traced_s": traced.total,
        "spans": len(tracer.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "digest_pass0": traced.digest(),
    }
    units = {name: unit for name, unit, _ in PER_LAYER}
    return finish(metrics, units, len(traced.latencies), traced.failures, gate_errors, summary)


def finish(metrics, units, attempted, failures, gate_errors, summary):
    unexpected = [f for f in failures if f[1] != workloads.KNOWN_DEFECT]
    summary.update({
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted if attempted else 1.0,
        "known_defect_failures": len(failures) - len(unexpected),
        "unexpected_failures": [f"{label}: {why}" for label, why in unexpected[:20]],
        "gate_errors": gate_errors,
    })
    result = {
        "correct": not unexpected and not gate_errors and attempted > 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, summary


def smoke():
    """Every workload at toy size, untraced and traced, plus the check that
    BENCHMARK.json names exactly the metrics this script prints."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    for name in workloads.WORKLOADS:
        digests = []
        for trace in (False, True):
            args = SimpleNamespace(workload=name, seed=7, seconds=1)
            t0 = time.perf_counter()
            result, summary = run_workload(args, "smoke", trace)
            digests.append(summary["digest_pass0"])
            print(f"smoke {name} trace={int(trace)}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"({time.perf_counter() - t0:.1f}s)")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: {summary}")
        if digests[0] != digests[1]:
            problems.append(f"{name}: untraced and traced pass-0 digests differ")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, every workload and gate")
    parser.add_argument("--size", choices=list(workloads.SIZES), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    size = workloads.SIZES[args.size]
    if args.setup_only:
        set_up(args.workload, args.seed, size[args.workload], args.setup_only)
        return 0
    result, summary = run_workload(args, args.size, bool(args.trace))
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print("summary " + json.dumps(summary, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: seeded inputs, the items of one pass, and the check of
every verdict against its known answer.

A workload is built in two steps.  `SETUP[name](dirpath, seed, size)` writes
the input files and returns a JSON-able manifest (this is the timed set-up).
`WORKLOADS[name](lib, dirpath, manifest, seed)` then yields the items of each
pass.  An item's `run` is the call being measured; its `check` turns the raw
output into a `Verdict` afterwards, outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle

# The one failure class that is a known defect rather than a broken gate:
# a true Jordan embedding graded "not spectrum preserving" because the
# Faddeev-LeVerrier characteristic polynomial loses accuracy as n grows.
KNOWN_DEFECT = "spectrum_false_negative"

# returned by an item whose call did work but produced no verdict (the scan
# after the last preorder); its time is charged to the next verdict
NO_VERDICT = object()

SHAPES = ("full", "upper", "block4", "sum2")

SIZES = {
    "full": {
        "sweep4": {"samples": 100, "rounds": 2, "limit": None},
        "embed_large": {
            # rounds of four patterns, one per n, so any prefix mixes sizes
            "patterns": [(n, SHAPES[(r + a) % 4]) for r in range(4)
                         for a, n in enumerate((8, 16, 24, 32))],
            "verify_samples": 20,
        },
        "census": {"enum_n": 5, "files": {16: 3, 18: 3, 20: 2}, "degrees": (0.5, 3.0)},
    },
    "smoke": {
        "sweep4": {"samples": 10, "rounds": 2, "limit": 6},
        "embed_large": {
            "patterns": [(8, shape) for shape in SHAPES] + [(24, "sum2")],
            "verify_samples": 5,
        },
        "census": {"enum_n": 4, "files": {8: 1}, "degrees": (0.5, 3.0)},
    },
}

# the percentile reported as verdict_tail_ms: the highest of p75/p90/p95/p99/
# p99.9 with at least ten verdicts beyond it in one full pass (358, 64 and
# 6958 verdicts), fixed so that a faster program does not switch percentile
TAIL_PERCENTILE = {"sweep4": 95.0, "embed_large": 75.0, "census": 99.0}


@dataclass
class Verdict:
    ok: bool
    failure: str | None
    record: bytes  # what the determinism digest hashes for this verdict


@dataclass
class Item:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], Verdict]


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cli(lib, argv):
    """Run one verb in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = lib.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def _cli_item(lib, kind, label, argv, judge):
    """An item running `argv`; `judge(rc, report)` returns None or a failure.
    Outputs are deterministic, so a repeat of already judged bytes reuses
    that judgement (the embed table at n=32 takes seconds to parse)."""
    judged = {}

    def check(result):
        rc, stdout = result
        h = hashlib.sha256(f"{label}\n{rc}\n".encode())
        h.update(stdout.encode())
        key = h.digest()
        if key not in judged:
            try:
                judged[key] = judge(rc, json.loads(stdout))
            except ValueError:
                judged[key] = f"exit {rc} with no JSON report"
        return Verdict(judged[key] is None, judged[key], key)

    return Item(kind, label, lambda: _cli(lib, argv), check)


# ---------------------------------------------------------------- sweep4

def setup_sweep4(dirpath, seed, size):
    failing = [rows for rows in oracle.preorders(4) if not oracle.criterion(rows)[0]]
    if len(failing) != 179:
        raise RuntimeError(f"{len(failing)} criterion-failing preorders on 4 points, expected 179")
    items = []
    for k in np.random.default_rng(seed).permutation(len(failing))[: size["limit"]]:
        rows = failing[k]
        name = f"q4_{k:03d}.json"
        _write_json(os.path.join(dirpath, name), {"n": 4, "pairs": oracle.pairs_of(rows)})
        r, s = oracle.criterion(rows)[1]
        case = 1 if rows[s - 1] >> (r - 1) & 1 else 2
        items.append({"file": name, "witness": [r, s], "case": case})
    return {"samples": size["samples"], "rounds": size["rounds"], "items": items}


class Sweep4:
    """`smalg counterexample` on every criterion-failing preorder on 4 points,
    in rounds; round r samples with seed + r."""

    def __init__(self, lib, dirpath, manifest, seed):
        self.items = []
        for r in range(manifest["rounds"]):
            for entry in manifest["items"]:
                argv = ["counterexample", os.path.join(dirpath, entry["file"]),
                        "--samples", str(manifest["samples"]), "--seed", str(seed + r)]
                self.items.append(_cli_item(lib, "counterexample",
                                            f"counterexample {entry['file']} seed+{r}",
                                            argv, self._judge(entry)))
        self.gate_errors = []

    @staticmethod
    def _judge(entry):
        def judge(rc, report):
            if rc != 0 or report.get("as_expected") is not True:
                return f"exit {rc}, as_expected={report.get('as_expected')}"
            if report["witness"] != entry["witness"] or report["case"] != entry["case"]:
                return (f"witness {report['witness']} case {report['case']}, "
                        f"expected {entry['witness']} case {entry['case']}")
            return None
        return judge

    def pass_items(self, p):
        return iter(self.items)


# ---------------------------------------------------------------- embed_large

def shape_rows(n, shape):
    def member(i, j):
        if shape == "full":
            return True
        if shape == "upper":
            return i <= j
        if shape == "block4":
            return i // 4 <= j // 4
        if shape == "sum2":
            return (i < n // 2) == (j < n // 2)
        raise ValueError(shape)
    return [sum(1 << j for j in range(n) if member(i, j)) for i in range(n)]


def _unitary(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _matrix_json(A):
    return {"n": A.shape[0], "entries": [[[z.real, z.imag] for z in row] for row in A.tolist()]}


def random_spec(rng, n, shape, max_cond=50.0):
    """An embedding spec: S = U diag(sigma) V with sigma in [1, max_cond], the
    coboundary g(i,j) = s_i / s_j, and a random central idempotent."""
    rows = shape_rows(n, shape)
    sigma = np.exp(rng.uniform(0.0, np.log(max_cond), n))
    S = _unitary(rng, n) @ np.diag(sigma) @ _unitary(rng, n)
    s = np.exp(rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(0.0, 2 * np.pi, n))
    bits = [0] * n
    for cls in oracle.classes(rows):
        bit = int(rng.integers(0, 2))
        for i in cls:
            bits[i - 1] = bit
    g = [[i, j, [(s[i - 1] / s[j - 1]).real, (s[i - 1] / s[j - 1]).imag]]
         for i, j in oracle.pairs_of(rows) if i != j]
    return {
        "quasiorder": {"n": n, "pairs": oracle.pairs_of(rows)},
        "s_matrix": _matrix_json(S),
        "transitive_map": {"pairs": g},
        "idempotent_diag": bits,
    }


def setup_embed_large(dirpath, seed, size):
    patterns = []
    for k, (n, shape) in enumerate(size["patterns"]):
        spec = random_spec(np.random.default_rng([seed, k]), n, shape)
        stem = f"{k:02d}_{shape}{n}"
        _write_json(os.path.join(dirpath, f"spec_{stem}.json"), spec)
        _write_json(os.path.join(dirpath, f"pattern_{stem}.json"), spec["quasiorder"])
        patterns.append({"stem": stem, "n": n, "shape": shape})
    return {"verify_samples": size["verify_samples"], "patterns": patterns}


def _load_spec(path):
    d = _read_json(path)
    entries = np.asarray(d["s_matrix"]["entries"], dtype=float)
    S = entries[..., 0] + 1j * entries[..., 1]
    g = {(i, j): complex(re, im) for i, j, (re, im) in d["transitive_map"]["pairs"]}
    pairs = [tuple(p) for p in d["quasiorder"]["pairs"]]
    return S, g, d["idempotent_diag"], pairs


def _judge_verify(rc, report):
    props = report["properties"]
    bad = sorted(k for k, v in props.items() if not v["ok"] or v["checked"] <= 0)
    if rc == 0 and not bad:
        return None
    if rc == 2 and bad == ["spectrum"]:
        return KNOWN_DEFECT
    return f"exit {rc}, failing {bad}"


def _judge_scaling(rc, report):
    if rc == 2 and report["properties"]["spectrum"]["ok"] is False:
        return None
    return f"negative control: exit {rc}, spectrum ok={report['properties']['spectrum']['ok']}"


class EmbedLarge:
    """Verify and recover one spec per pattern; embed it and run the scaling
    control once per pattern."""

    def __init__(self, lib, dirpath, manifest, seed):
        self.items = []
        vs = str(manifest["verify_samples"])
        for pat in manifest["patterns"]:
            stem = pat["stem"]
            spec = os.path.join(dirpath, f"spec_{stem}.json")
            pattern = os.path.join(dirpath, f"pattern_{stem}.json")
            params = _load_spec(spec)
            self.items += [
                _cli_item(lib, f"verify n={pat['n']}", f"verify {stem}",
                          ["verify", "--spec", spec, "--samples", vs], _judge_verify),
                _cli_item(lib, f"recover n={pat['n']}", f"recover {stem}",
                          ["recover", "--spec", spec], self._judge_recover(params)),
                _cli_item(lib, f"embed n={pat['n']}", f"embed {stem}",
                          ["embed", spec], self._judge_embed(params)),
                _cli_item(lib, f"scaling n={pat['n']}", f"scaling {stem}",
                          ["verify", "--kind", "scaling", "--quasiorder", pattern,
                           "--samples", vs], _judge_scaling),
            ]
        self.gate_errors = []

    @staticmethod
    def _judge_recover(params):
        _, _, bits, pairs = params
        diag = [[i, i] for i in range(1, len(bits) + 1)]
        rho_m = sorted([list(p) for p in pairs if p[0] != p[1] and bits[p[0] - 1]] + diag)
        rho_a = sorted([list(p) for p in pairs if p[0] != p[1] and not bits[p[0] - 1]] + diag)

        def judge(rc, report):
            if rc != 0:
                return f"exit {rc}"
            errs = (report["max_unit_error"], report["max_sample_error"])
            if not max(errs) < 1e-8:
                return f"round-trip errors {errs}"
            if report["recovered"]["idempotent_diag"] != bits:
                return "recovered idempotent differs"
            if report["rho_m"]["pairs"] != rho_m or report["rho_a"]["pairs"] != rho_a:
                return "recovered unit classification differs"
            return None
        return judge

    @staticmethod
    def _judge_embed(params):
        S, g, bits, pairs = params
        Sinv = np.linalg.inv(S)

        def judge(rc, report):
            if rc != 0:
                return f"exit {rc}"
            units = report["units"]
            if [tuple(u["unit"]) for u in units] != sorted(pairs):
                return "unit table does not list the pairs of rho"
            worst = 0.0
            for u in units:  # one unit at a time, to stay below the program's own peak memory
                i, j = u["unit"]
                got = np.asarray(u["image"]["entries"], dtype=float)
                got = got[..., 0] + 1j * got[..., 1]
                want = oracle.unit_image(S, Sinv, g.get((i, j), 1.0), bits[i - 1], i, j)
                err = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
                worst = max(worst, err)
            return None if worst <= 1e-9 else f"unit image error {worst:.2e}"
        return judge

    def pass_items(self, p):
        return iter(self.items)


# ---------------------------------------------------------------- census

def setup_census(dirpath, seed, size):
    files = []
    for ci, degree in enumerate(size["degrees"]):
        for n, count in size["files"].items():
            for k in range(count):
                rng = np.random.default_rng([seed, n, ci, k])
                rows = [sum(1 << j for j in range(n) if j != i and rng.random() < degree / n)
                        for i in range(n)]
                name = f"qo_n{n}_d{ci}_{k}.json"
                _write_json(os.path.join(dirpath, name), {"n": n, "pairs": oracle.pairs_of(oracle.close(rows))})
                files.append({"file": name, "n": n, "order": (k, ci, n)})
    files.sort(key=lambda f: f["order"])  # alternate sizes along the pass
    return {"enum_n": size["enum_n"], "files": [{"file": f["file"], "n": f["n"]} for f in files]}


def _judge_analyze(rows):
    holds, witness = oracle.criterion(rows)
    n = len(rows)

    def judge(rc, report):
        want = {
            "n": n,
            "pair_count": sum(bin(r).count("1") for r in rows),
            "added_by_closure": [],
            "classes": oracle.classes(rows),
            "two_free": oracle.is_two_free(rows),
            "condition_i": {"holds": holds, "witness": witness},
            "symmetric": oracle.is_symmetric(rows),
            "semisimple": oracle.is_symmetric(rows),
            "all_preservers_jordan": "YES" if holds else "NO",
        }
        if rc != 0:
            return f"exit {rc}"
        wrong = sorted(k for k, v in want.items() if report.get(k) != v)
        bt = report["block_triangular"]
        if sorted(bt["perm"]) != list(range(1, n + 1)) or sum(bt["sizes"]) != n:
            wrong.append("block_triangular")
        if not isinstance(report.get("rank_one_dense"), bool):
            wrong.append("rank_one_dense")
        return f"wrong {wrong}" if wrong else None
    return judge


class Census:
    """Stream all preorders on `enum_n` points through the library analysis,
    with `smalg analyze` on the generated files interleaved along the stream."""

    def __init__(self, lib, dirpath, manifest, seed):
        self.lib = lib
        self.n = manifest["enum_n"]
        self.expected = oracle.CENSUS_COUNTS[self.n]
        self.files = []
        for f in manifest["files"]:
            path = os.path.join(dirpath, f["file"])
            d = _read_json(path)
            rows = oracle.rows_from_pairs(d["n"], d["pairs"])
            self.files.append(_cli_item(lib, f"analyze n={f['n']}", f"analyze {f['file']}",
                                        ["analyze", path], _judge_analyze(rows)))
        self.spacing = self.expected[0] // (len(self.files) + 1)
        self.gate_errors = []

    def _analysis(self, rho):
        # the calls cmd_analyze makes, in its order
        qo = self.lib.quasiorder
        holds, witness = qo.condition_i(rho)
        bt = qo.block_triangular_permutation(rho)
        cls = qo.components(rho)
        two_free = qo.is_two_free(rho)
        symmetric = qo.is_symmetric(rho)
        qo.is_symmetric(rho)
        dense = qo.rank_one_density(rho) if rho.n <= 24 else None
        return rho, holds, witness, bt, cls, two_free, symmetric, dense

    def _check_preorder(self, tally):
        def check(result):
            rho, holds, witness, bt, cls, two_free, symmetric, dense = result
            rows = oracle.rows_from_pairs(rho.n, rho.pairs)
            want_holds, want_witness = oracle.criterion(rows)
            got = (holds, list(witness) if witness else None,
                   [sorted(b) for b in cls.blocks], two_free, symmetric)
            want = (want_holds, want_witness, oracle.classes(rows),
                    oracle.is_two_free(rows), oracle.is_symmetric(rows))
            tally["count"] += 1
            tally["failing"] += not holds
            record = json.dumps([oracle.pairs_of(rows), got, list(bt.perm), list(bt.sizes),
                                 bt.upper_exact, dense]).encode() + b"\n"
            if got != want:
                return Verdict(False, f"analysis {got} != known {want}", record)
            if holds and not two_free:
                return Verdict(False, "criterion holds but the preorder is not 2-free", record)
            return Verdict(True, None, record)
        return check

    def pass_items(self, p):
        tally = {"count": 0, "failing": 0}
        state = {"gen": None, "done": False}

        def next_preorder():
            if state["gen"] is None:
                state["gen"] = self.lib.quasiorder.all_preorders(self.n)
            try:
                rho = next(state["gen"])
            except StopIteration:
                state["done"] = True
                return NO_VERDICT
            return self._analysis(rho)

        check = self._check_preorder(tally)
        files = iter(self.files)
        k = 0
        while not state["done"]:
            yield Item("preorder", f"preorder {k}", next_preorder, check)
            k += 1
            if k % self.spacing == 0:
                item = next(files, None)
                if item is not None:
                    yield item
        yield from files
        got = (tally["count"], tally["failing"])
        if got != self.expected:
            self.gate_errors.append(
                f"pass {p}: {got[0]} preorders on {self.n} points with {got[1]} failing, "
                f"expected {self.expected}")


SETUP = {"sweep4": setup_sweep4, "embed_large": setup_embed_large, "census": setup_census}
WORKLOADS = {"sweep4": Sweep4, "embed_large": EmbedLarge, "census": Census}

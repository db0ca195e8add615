"""Spans around the calls into smalg's layers, recorded from outside the package.

`Tracer.install()` rebinds every module-level name that refers to a public
function of a layer module (in every layer module and in the package), so a
call is caught under whichever name its caller imported, for example both
`smalg.matalg.char_poly` and `smalg.preservers.char_poly`.  Each call records
a span (name, start, end, parent span, item id) in flat arrays kept in memory;
`write()` saves them at the end and `metrics()` reduces them to the per-layer
metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("quasiorder", "matalg", "cocycle", "jordan", "preservers", "jsonio", "cli")
VERBS = ("analyze", "embed", "verify", "counterexample", "recover")

# (name, unit, better) of every metric `metrics()` returns, in output order
PER_LAYER = [
    ("matalg.self_s", "s", "lower"),
    ("matalg.sma_mask.calls", "count", "lower"),
    ("matalg.sma_mask.s", "s", "lower"),
    ("matalg.sma_mask.rho_reuse", "calls/rho", "lower"),
    ("matalg.char_poly.calls", "count", "lower"),
    ("matalg.char_poly.s", "s", "lower"),
    ("matalg.char_poly.flops_computed", "flop", "lower"),
    ("matalg.nearby_diagonalizable.calls", "count", "lower"),
    ("matalg.nearby_diagonalizable.s", "s", "lower"),
    ("matalg.random_in_sma.calls", "count", "lower"),
    ("matalg.random_in_sma.s", "s", "lower"),
    ("matalg.project_sma.calls", "count", "lower"),
    ("matalg.in_sma.calls", "count", "lower"),
    ("quasiorder.self_s", "s", "lower"),
    ("quasiorder.all_preorders.s", "s", "lower"),
    ("quasiorder.all_preorders.yield_ratio", "ratio", "higher"),
    ("quasiorder.condition_i.calls", "count", "lower"),
    ("quasiorder.condition_i.s", "s", "lower"),
    ("quasiorder.block_triangular_permutation.calls", "count", "lower"),
    ("quasiorder.block_triangular_permutation.s", "s", "lower"),
    ("quasiorder.block_triangular_permutation.rho_reuse", "calls/rho", "lower"),
    ("quasiorder.rank_one_density.calls", "count", "lower"),
    ("quasiorder.rank_one_density.s", "s", "lower"),
    ("preservers.self_s", "s", "lower"),
    ("preservers.verify_preserver.calls", "count", "lower"),
    ("preservers.verify_preserver.s", "s", "lower"),
    ("preservers.verify_preserver.s_per_sample", "s", "lower"),
    ("preservers.phi.evals_per_sample", "evals/sample", "lower"),
    ("preservers.phi.distinct_ratio", "ratio", "higher"),
    ("preservers.counterexample.s", "s", "lower"),
    ("preservers.checked", "count", "higher"),
    ("jordan.self_s", "s", "lower"),
    ("jordan.build_embedding.calls", "count", "lower"),
    ("jordan.build_embedding.s", "s", "lower"),
    ("jordan.recover_form.calls", "count", "lower"),
    ("jordan.recover_form.s", "s", "lower"),
    ("jordan.phi.calls", "count", "lower"),
    ("cocycle.self_s", "s", "lower"),
    ("cocycle.validate.calls", "count", "lower"),
    ("cocycle.validate.s", "s", "lower"),
    ("jsonio.self_s", "s", "lower"),
    ("jsonio.bytes_in", "B", "lower"),
    ("jsonio.bytes_out", "B", "lower"),
    ("cli.self_s", "s", "lower"),
] + [(f"cli.main.calls.{verb}", "count", "higher") for verb in VERBS] + [
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.items = array("i")
        self.stack = [-1]
        self.item = -1
        self.counts = Counter()
        self.rho_keys = defaultdict(set)
        self._undo = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, fn, name, body=None):
        """`fn` wrapped in a span; `body(args, kwargs)` replaces the plain call."""
        nid = self._name_id(name)
        start, end, names, parents, items, stack = (
            self.start, self.end, self.name, self.parent, self.items, self.stack)

        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(perf_counter())
            end.append(0.0)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.item)
            stack.append(idx)
            try:
                return body(args, kwargs) if body else fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = perf_counter()

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _generator(self, fn, name):
        """Each resumption of the generator is a span of `name`."""
        step = self._spanned(next, name)

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            for value in iter(lambda: step(inner, None), None):
                self.counts[name + ".yields"] += 1
                yield value

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _body(self, name, fn):
        """Extra accounting for the functions whose metrics need more than spans."""
        if name in ("matalg.sma_mask", "quasiorder.block_triangular_permutation"):
            def body(args, kwargs):
                self.rho_keys[name].add(hash(args[0] if args else kwargs["rho"]))
                return fn(*args, **kwargs)
            return body
        if name == "matalg.char_poly":
            def body(args, kwargs):
                n = np.shape(args[0] if args else kwargs["A"])[0]
                # 2n complex n x n products, 8 real flops per multiply-add
                self.counts[name + ".flops"] += 16 * n ** 4
                return fn(*args, **kwargs)
            return body
        if name.startswith("jsonio.load_"):
            def body(args, kwargs):
                self.counts["jsonio.bytes_in"] += os.path.getsize(args[0])
                return fn(*args, **kwargs)
            return body
        if name == "jsonio.dump_json":
            def body(args, kwargs):
                out = fn(*args, **kwargs)
                self.counts["jsonio.bytes_out"] += len(out)
                return out
            return body
        if name == "cli.main":
            def body(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                self.counts["cli.main.calls." + argv[0]] += 1
                return fn(*args, **kwargs)
            return body
        if name == "jordan.build_embedding":
            def body(args, kwargs):
                return self._spanned(fn(*args, **kwargs), "jordan.phi")
            return body
        if name == "preservers.verify_preserver":
            sig = inspect.signature(fn)

            def body(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                mut = bound.arguments["mut"]
                inner, seen = mut.eval, set()

                def counted(X):
                    self.counts["preservers.phi.evals"] += 1
                    seen.add(hash(np.asarray(X).tobytes()))
                    return inner(X)

                mut.eval = self._spanned(counted, "preservers.phi")
                try:
                    report = fn(*args, **kwargs)
                finally:
                    mut.eval = inner
                self.counts["preservers.samples"] += bound.arguments["n_samples"]
                self.counts["preservers.phi.distinct"] += len(seen)
                self.counts["preservers.checked"] += sum(
                    getattr(report, f.name).checked for f in dataclasses.fields(report)
                    if hasattr(getattr(report, f.name), "checked"))
                return report
            return body
        return None

    def install(self):
        modules = [importlib.import_module(f"smalg.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            public = getattr(mod, "__all__", None) or [a for a in vars(mod) if not a.startswith("_")]
            for attr in public:
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{fn.__name__}"
                if inspect.isgeneratorfunction(fn):
                    wrapped[id(fn)] = (fn, self._generator(fn, name))
                else:
                    wrapped[id(fn)] = (fn, self._spanned(fn, name, self._body(name, fn)))
        for mod in modules + [importlib.import_module("smalg")]:
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------ reduction

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        return dur, name, parent

    def metrics(self, overhead_ratio):
        dur, name, parent = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in self.names] or [0], dtype=int)
        layer_self = np.bincount(layer_of_name[name], weights=dur - child, minlength=len(LAYERS))
        calls = np.bincount(name, minlength=len(self.names))
        incl = np.bincount(name, weights=dur, minlength=len(self.names))

        def c(fn):
            return int(calls[self._ids[fn]]) if fn in self._ids else 0

        def s(fn):
            return float(incl[self._ids[fn]]) if fn in self._ids else 0.0

        # candidate subsets the enumerator tested: close_pairs calls made
        # directly under an all_preorders span
        attempts = 0
        if "quasiorder.all_preorders" in self._ids and "quasiorder.close_pairs" in self._ids:
            under = nested & (name == self._ids["quasiorder.close_pairs"])
            attempts = int(np.sum(name[parent[under]] == self._ids["quasiorder.all_preorders"]))
        yields = self.counts["quasiorder.all_preorders.yields"]
        evals, samples = self.counts["preservers.phi.evals"], self.counts["preservers.samples"]

        out = {f"{layer}.self_s": float(layer_self[k]) for k, layer in enumerate(LAYERS)}
        for fn in ("matalg.sma_mask", "matalg.char_poly", "matalg.nearby_diagonalizable",
                   "matalg.random_in_sma", "quasiorder.condition_i",
                   "quasiorder.block_triangular_permutation", "quasiorder.rank_one_density",
                   "preservers.verify_preserver", "jordan.build_embedding",
                   "jordan.recover_form", "cocycle.validate"):
            out[f"{fn}.calls"] = c(fn)
            out[f"{fn}.s"] = s(fn)
        for fn in ("matalg.sma_mask", "quasiorder.block_triangular_permutation"):
            out[f"{fn}.rho_reuse"] = _ratio(c(fn), len(self.rho_keys[fn]))
        out.update({
            "matalg.char_poly.flops_computed": self.counts["matalg.char_poly.flops"],
            "matalg.project_sma.calls": c("matalg.project_sma"),
            "matalg.in_sma.calls": c("matalg.in_sma"),
            "quasiorder.all_preorders.s": s("quasiorder.all_preorders"),
            "quasiorder.all_preorders.yield_ratio": _ratio(yields, max(attempts, yields)),
            "preservers.verify_preserver.s_per_sample": _ratio(s("preservers.verify_preserver"), samples),
            "preservers.phi.evals_per_sample": _ratio(evals, samples),
            "preservers.phi.distinct_ratio": _ratio(self.counts["preservers.phi.distinct"], evals),
            "preservers.counterexample.s": s("preservers.counterexample"),
            "preservers.checked": self.counts["preservers.checked"],
            "jordan.phi.calls": c("jordan.phi"),
            "jsonio.bytes_in": self.counts["jsonio.bytes_in"],
            "jsonio.bytes_out": self.counts["jsonio.bytes_out"],
            "trace.overhead_ratio": overhead_ratio,
        })
        for verb in VERBS:
            out[f"cli.main.calls.{verb}"] = self.counts["cli.main.calls." + verb]
        return out

    def write(self, path):
        dur, name, parent = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), start=np.frombuffer(self.start),
                            duration=dur, name=name, parent=parent,
                            item=np.frombuffer(self.items, dtype=np.int32))

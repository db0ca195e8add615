import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("quasiorder", "matalg", "cocycle", "jordan", "preservers", "jsonio", "cli")
ROOT = Path(__file__).resolve().parents[1]

# public names that no layer and no bench script uses, each kept because it
# states a fact of the paper that a test pins, or serves as a reference
KEEP = {
    "case2_kink": "the strict-pair kink f(u, v), the scalar reference of the stacked case-2 map",
    "commutes_criterion": "the commutation criterion of the strict-pair geometry",
    "classify_unit_action": "the split of rho into the unit-parallel and unit-flipping pairs",
    "support": "supp(A), by which membership in the algebra of rho is defined",
    "sharp": "zero row and column insertion, the inverse of `flat` on its range",
    "flat": "row and column deletion, in the insertion and deletion laws",
}


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    """A stale `__all__` entry breaks `import *` and hides the name from callers
    that walk `__all__` to find a module's public functions."""
    module = importlib.import_module(f"smalg.{layer}")
    names = getattr(module, "__all__", [])
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)
    exec(f"from smalg.{layer} import *", {})


def test_smalg_never_loads_scipy():
    """smalg depends on numpy alone: importing every layer and running the
    selftest leave scipy unloaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import importlib, sys, smalg, smalg.cli\n"
            f"for layer in {LAYERS!r}: importlib.import_module('smalg.' + layer)\n"
            "assert smalg.cli.main(['selftest']) == 0\n"
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"


def test_package_namespace_holds_no_layer():
    """Each public name is imported from its layer: `import smalg` binds no
    public name and loads no layer."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, smalg\n"
            "print(sorted(a for a in vars(smalg) if not a.startswith('_')))\n"
            "print(sorted(m for m in sys.modules if m.startswith('smalg.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "[]"]


def _referenced(paths):
    """Every name, attribute and imported name that the modules at `paths` use."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_public_names_have_callers():
    """Each name in a layer's `__all__` is used by a layer (`__init__` does not
    count) or a bench script, or KEEP says why it stays: the public API holds
    no test scaffolding and no dead code."""
    used = _referenced(p for p in (ROOT / "src" / "smalg").glob("*.py") if p.name != "__init__.py")
    used |= _referenced((ROOT / "bench").glob("*.py"))
    public = {layer: getattr(importlib.import_module(f"smalg.{layer}"), "__all__", [])
              for layer in LAYERS}
    assert {layer: [name for name in names if name not in used and name not in KEEP]
            for layer, names in public.items()} == {layer: [] for layer in LAYERS}
    # and KEEP holds no name that is gone or has found a caller
    assert set(KEEP) <= {name for names in public.values() for name in names} - used


# defaulted parameters that no layer and no bench script passes, each kept
# for the reason given
KEEP_PARAMS = {
    "support.tol": "the absolute cutoff, against the default relative to the largest entry",
    "rank_one_closure_member.tol": "the absolute cutoff, against the default relative one",
    "verify_multiplicative.tol": "every sampled check takes one tol",
    "verify_antimultiplicative.tol": "every sampled check takes one tol",
}


def _passed(paths):
    """For each called name, the keywords and the largest number of
    positional arguments that some call at `paths` passes it; an import alias
    counts as the name it imports, and a starred argument passes every
    position."""
    keywords, positions = {}, {}
    for path in paths:
        tree = ast.parse(path.read_text())
        alias = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for a in node.names if a.asname}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            name = alias.get(name, name)
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            count = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            positions[name] = max(positions.get(name, 0), count)
    return keywords, positions


def test_defaulted_parameters_have_callers():
    """Each defaulted parameter of a public function is passed, by keyword or
    by position, by some call in a layer (`__init__` does not count) or a
    bench script, or KEEP_PARAMS says why it stays: no tolerance, scale or
    switch that only tests set."""
    keywords, positions = _passed(
        [p for p in (ROOT / "src" / "smalg").glob("*.py") if p.name != "__init__.py"]
        + list((ROOT / "bench").glob("*.py")))
    unused = set()
    for layer in LAYERS:
        module = importlib.import_module(f"smalg.{layer}")
        for name in getattr(module, "__all__", []):
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            params = list(inspect.signature(fn).parameters.values())
            for k, p in enumerate(params):
                if p.default is inspect.Parameter.empty:
                    continue
                positional = p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
                if not (p.name in keywords.get(name, ())
                        or positional and positions.get(name, 0) > k):
                    unused.add(f"{name}.{p.name}")
    assert sorted(unused - set(KEEP_PARAMS)) == []
    # and KEEP_PARAMS holds no parameter that is gone or has found a caller
    assert sorted(set(KEEP_PARAMS) - unused) == []

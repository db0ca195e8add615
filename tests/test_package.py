import ast
import importlib
import inspect
import os
import subprocess
import symtable
import sys
from functools import cached_property
from pathlib import Path

import pytest

LAYERS = ("quasiorder", "matalg", "cocycle", "jordan", "preservers", "jsonio", "cli")
ROOT = Path(__file__).resolve().parents[1]

# public names and methods that no layer and no bench script uses, each kept
# for the reason given; the paper's lemma-only helpers live in tests/lemmas.py
KEEP = {}


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


def test_map_entry_points_take_one_map():
    """The entry points that grade, classify or recover a map take it as one
    MapUnderTest, first; its domain is the quasi-order, so none takes a rho."""
    from smalg import jordan, preservers

    for fn in (preservers.verify_preserver, jordan.verify_jordan, jordan.verify_multiplicative,
               jordan.verify_antimultiplicative, jordan.recover_form):
        params = list(inspect.signature(fn).parameters)
        assert params[0] == "mut" and "rho" not in params, fn.__name__


def _dotted(node):
    """`a.b.c` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _globals_read(table):
    """The names that some scope of a symbol table reads as module-level
    names: a parameter or local variable of the same name shadows them."""
    names = {s.get_name() for s in table.get_symbols() if s.is_referenced() and s.is_global()}
    for child in table.get_children():
        names |= _globals_read(child)
    return names


def _referenced(paths):
    """`layer.name` for each name of a smalg layer that the modules at `paths`
    use, and the set of every attribute they read.  A name is used when it is
    imported from its layer, read as an attribute of an imported layer
    module, or read unshadowed in its own layer (a module in a `smalg`
    directory); a local variable or parameter of the same name is no use."""
    used, attrs = set(), set()
    for path in paths:
        text = path.read_text()
        own = path.stem if path.parent.name == "smalg" else None
        nodes = list(ast.walk(ast.parse(text)))
        modules = {}  # dotted local name -> layer, for each imported layer module
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                package = node.module == "smalg" or node.level == 1 and node.module is None
                if package:
                    modules.update({a.asname or a.name: a.name for a in node.names})
                elif node.module and (node.level == 1 or node.module.startswith("smalg.")):
                    layer = node.module.rsplit(".", 1)[-1]
                    used.update(f"{layer}.{a.name}" for a in node.names)
            elif isinstance(node, ast.Import):
                modules.update({a.asname or a.name: a.name.rsplit(".", 1)[-1]
                                for a in node.names if a.name.startswith("smalg.")})
        # a second pass, so that an import inside a function counts for an
        # attribute read that the walk reaches first
        for node in nodes:
            if isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if _dotted(node.value) in modules:
                    used.add(f"{modules[_dotted(node.value)]}.{node.attr}")
        if own:
            used.update(f"{own}.{name}"
                        for name in _globals_read(symtable.symtable(text, str(path), "exec")))
    return used, attrs


def _public_methods(cls):
    """The public methods, class methods and properties that `cls` defines;
    dunder methods are called by protocol (`len`, `==`), so none is listed."""
    kinds = (staticmethod, classmethod, property, cached_property)
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))]


def test_public_names_have_callers():
    """Each name in a layer's `__all__`, and each public method of a class
    there, is used by a layer (`__init__` does not count) or a bench script,
    or KEEP says why it stays: the public API holds no test scaffolding and
    no dead code."""
    used, attrs = _referenced(
        [p for p in (ROOT / "src" / "smalg").glob("*.py") if p.name != "__init__.py"]
        + list((ROOT / "bench").glob("*.py")))
    unused = {layer: [] for layer in LAYERS}
    for layer in LAYERS:
        module = importlib.import_module(f"smalg.{layer}")
        for name in getattr(module, "__all__", []):
            if f"{layer}.{name}" not in used:
                unused[layer].append(name)
            obj = getattr(module, name)
            if inspect.isclass(obj):
                unused[layer] += [f"{name}.{m}" for m in _public_methods(obj) if m not in attrs]
    assert {layer: [name for name in names if name not in KEEP]
            for layer, names in unused.items()} == {layer: [] for layer in LAYERS}
    # and KEEP holds no name that is gone or has found a caller
    assert set(KEEP) <= {name for names in unused.values() for name in names}


def test_referenced_ignores_shadowing_names(tmp_path):
    """A local variable or parameter named like a public name is no caller;
    an import, an attribute of an imported layer and an unshadowed read in
    the name's own layer are."""
    (tmp_path / "smalg").mkdir()
    files = {
        "local.py": "def f(A):\n    flat = A[0]\n    return flat\n",
        "smalg/matalg.py": ("def flat(A):\n    return A\n\n"
                            "def g(A, flat):\n    return flat(A)\n"),
        "calls.py": ("from smalg.matalg import flat\n\n"
                     "flat(preservers.counterexample(smalg.jordan.recover_form))\n\n"
                     "def f():\n    import smalg.jordan\n    from smalg import preservers\n"),
        "smalg/cli.py": "def main():\n    return [main for _ in ()]\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert _referenced([tmp_path / "local.py", tmp_path / "smalg" / "matalg.py"])[0] == set()
    assert _referenced([tmp_path / "calls.py", tmp_path / "smalg" / "cli.py"])[0] == {
        "matalg.flat", "preservers.counterexample", "jordan.recover_form", "cli.main"}


# defaulted parameters that no layer and no bench script passes, each kept
# for the reason given
KEEP_PARAMS = {
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

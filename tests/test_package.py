import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

LAYERS = ("quasiorder", "matalg", "cocycle", "jordan", "preservers", "jsonio", "cli")


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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("import importlib, sys, smalg, smalg.cli\n"
            f"for layer in {LAYERS!r}: importlib.import_module('smalg.' + layer)\n"
            "assert smalg.cli.main(['selftest']) == 0\n"
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "False"

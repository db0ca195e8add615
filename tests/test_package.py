import importlib

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

"""Bad numeric arguments at every public entry point: each raises ValueError
naming the argument, never TypeError, and never returns a verdict."""

import contextlib
import importlib
import inspect
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalg import cli, jsonio
from smalg.quasiorder import (QuasiOrder, Partition, all_preorders, closure, image, neighborhood,
                              preimage)
from smalg.matalg import lambda_matrix, matrix_unit
from smalg.cocycle import TransitiveMap
from smalg.jordan import recover_form
from smalg.preservers import MapUnderTest, identity_map, verify_preserver

from lemmas import flat, upper_triangular

LAYERS = ("quasiorder", "matalg", "cocycle", "preservers", "jordan", "jsonio")
NUMERIC = {"n", "n_samples", "tol", "seed", "i", "j"}
# public callables with such a parameter that take it from smalg, not from a caller
RECORDS = {"preservers.PreserverReport": "a report the harness fills with the checked seed"}

T3 = upper_triangular(3)
IDENTITY = identity_map(T3)


def same(X):
    return np.array(X, dtype=complex)


def sampled(check, *args):
    """The three numeric arguments of a sampled check, one call each."""
    return {f"{check.__name__}.{param}": (param, rule, lambda v, p=param: check(*args, **{p: v}))
            for param, rule in (("n_samples", "count"), ("tol", "tol"), ("seed", "seed"))}


# entry point -> (argument named in the message, kind of argument, call with the value)
TABLE = {
    "quasiorder.QuasiOrder.n": ("n", "size", lambda v: QuasiOrder(v, frozenset())),
    # pairs as lists, since a set merges (True, 2) into (1, 2)
    "quasiorder.QuasiOrder.pairs": (
        "pairs", "pair entry", lambda v: QuasiOrder(2, [(1, 1), (2, 2), (v, 2)])),
    "quasiorder.QuasiOrder.diagonal.n": ("n", "size", lambda v: QuasiOrder.diagonal(v)),
    "quasiorder.QuasiOrder.full.n": ("n", "size", lambda v: QuasiOrder.full(v)),
    "quasiorder.Partition.n": ("n", "size", lambda v: Partition(v, ())),
    "quasiorder.closure.n": ("n", "size", lambda v: closure(v, set())),
    "quasiorder.closure.pairs": ("pairs", "pair entry", lambda v: closure(3, [(1, 2), (v, 2)])),
    "quasiorder.all_preorders.n": ("n", "size", lambda v: list(all_preorders(v))),
    "quasiorder.image.i": ("i", "index", lambda v: image(T3, v)),
    "quasiorder.preimage.i": ("i", "index", lambda v: preimage(T3, v)),
    "quasiorder.neighborhood.i": ("i", "index", lambda v: neighborhood(T3, v)),
    "matalg.matrix_unit.n": ("n", "size", lambda v: matrix_unit(v, 1, 1)),
    "matalg.matrix_unit.i": ("i", "index", lambda v: matrix_unit(3, v, 1)),
    "matalg.matrix_unit.j": ("j", "index", lambda v: matrix_unit(3, 1, v)),
    "matalg.lambda_matrix.n": ("n", "size", lambda v: lambda_matrix(v)),
    **{f"preservers.{key}": entry for key, entry in sampled(verify_preserver, IDENTITY).items()},
    **{f"jordan.{key}": entry
       for key, entry in sampled(recover_form, MapUnderTest(T3, same, "same")).items()},
    # the integers of the JSON formats
    "jsonio.quasiorder_from_dict.n": (
        "n", "json size", lambda v: jsonio.quasiorder_from_dict({"n": v, "pairs": []})),
    "jsonio.quasiorder_from_dict.pairs": (
        "pairs", "pair entry", lambda v: jsonio.quasiorder_from_dict({"n": 3, "pairs": [[v, 1]]})),
    "jsonio.matrix_from_dict.n": (
        "n", "json", lambda v: jsonio.matrix_from_dict({"n": v, "entries": [[[1.0, 0.0]]]})),
    "jsonio.transitive_map_from_dict.index": (
        "index", "json",
        lambda v: jsonio.transitive_map_from_dict({"pairs": [[1, v, [1.0, 0.0]]]}, T3)),
    "jsonio.jordan_spec_from_dict.idempotent_diag": (
        "idempotent bit", "json", lambda v: jsonio.jordan_spec_from_dict({
            "quasiorder": jsonio.quasiorder_to_dict(T3),
            "s_matrix": jsonio.matrix_to_dict(np.eye(3)),
            "transitive_map": jsonio.transitive_map_to_dict(TransitiveMap.constant_one(T3)),
            "idempotent_diag": [v, 1, 1]})),
}

NOT_NUMBERS = st.one_of(st.booleans(), st.sampled_from([np.True_, np.False_]),
                        st.text(max_size=3), st.complex_numbers())
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def bad_values(rule):
    """Values that the kind of argument `rule` must reject."""
    if rule == "tol":
        return st.one_of(
            NOT_NUMBERS, NON_FINITE, st.none(), st.floats(max_value=0.0).map(np.float64),
            st.integers(max_value=0), st.integers(min_value=2 ** 1024))
    least, most = {"size": (1, None), "json size": (1, jsonio.MAX_N), "index": (1, 3),
                   "count": (1, None), "seed": (0, None), "json": (None, None),
                   "pair entry": (None, None)}[rule]
    return st.one_of(
        NOT_NUMBERS, NON_FINITE, st.none(), st.floats(), st.floats().map(np.float64),
        *([] if least is None else [st.integers(max_value=least - 1)]),
        *([] if most is None else [st.integers(min_value=most + 1)]))


@pytest.mark.parametrize("entry", sorted(TABLE))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_bad_value_raises_naming_the_argument(entry, data):
    name, rule, call = TABLE[entry]
    value = data.draw(bad_values(rule), label=name)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize("entry, value", [
    ("preservers.verify_preserver.n_samples", 2.5),
    ("preservers.verify_preserver.n_samples", math.nan),
    ("preservers.verify_preserver.n_samples", "3"),
    ("preservers.verify_preserver.n_samples", True),
    ("jordan.recover_form.n_samples", 2.5),
    ("quasiorder.QuasiOrder.pairs", True),
    ("quasiorder.closure.pairs", True),
    ("jsonio.quasiorder_from_dict.pairs", True),
])
def test_reported_bad_values(entry, value):
    # each ended in a TypeError from range or <, ran one sample and reported
    # "samples": true, or read a bool in a pair as index 1
    name, _, call = TABLE[entry]
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(value)


@pytest.mark.parametrize("flag, rule", [("--seed", "seed"), ("--tol", "tol"),
                                        ("--samples", "count")])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cli_bad_value_is_one_usage_line(flag, rule, data):
    # a string such as "3" is a good value once the command line parses it
    text = data.draw(bad_values(rule).filter(lambda v: not isinstance(v, str)).map(str),
                     label=flag)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(["counterexample", "fan.json", flag, text])
    assert exc.value.code == 1
    assert len(err.getvalue().splitlines()) == 1 and f"argument {flag}: " in err.getvalue()


def _numeric_entry_points():
    """(entry, parameter) for every public function, class and class method of
    the layers with a parameter in NUMERIC."""
    found = set()
    for layer in LAYERS:
        module = importlib.import_module(f"smalg.{layer}")
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or inspect.isclass(obj) and issubclass(obj, Exception):
                continue
            callables = {name: obj}
            if inspect.isclass(obj):
                callables |= {f"{name}.{attr}": fn for attr, fn in inspect.getmembers(obj)
                              if inspect.ismethod(fn) and not attr.startswith("_")}
            for label, fn in callables.items():
                params = set(inspect.signature(fn).parameters) & NUMERIC
                found |= {(f"{layer}.{label}", param) for param in params}
    return found


def test_table_lists_every_numeric_entry_point():
    listed = {tuple(key.rsplit(".", 1)) for key in TABLE}
    found = {(fn, param) for fn, param in _numeric_entry_points() if fn not in RECORDS}
    assert sorted(found - listed) == []
    assert set(RECORDS) <= {fn for fn, _ in _numeric_entry_points()}


def test_matrix_unit_index_zero_does_not_wrap():
    # numpy's negative indexing read row 0 as row n: E_31
    with pytest.raises(ValueError, match="^i must be >= 1"):
        matrix_unit(3, 0, 1)


def test_flat_rejects_a_float_position():
    # 1.5 matched no row and column, so nothing was deleted
    with pytest.raises(ValueError, match="^positions must be >= 1 and an integer"):
        flat(np.eye(3), [1.5])


def test_neighborhood_rejects_a_bool_index():
    # True was read as index 1
    with pytest.raises(ValueError, match="^i must be >= 1 and an integer"):
        neighborhood(T3, True)

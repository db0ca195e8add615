import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smalg.quasiorder import closure
from smalg.cocycle import TransitiveMap
from smalg.jordan import CentralIdempotent, JordanSpec
from smalg import jsonio
from smalg.cli import main

from generators import random_invertible, random_transitive


def test_quasiorder_roundtrip(cocycle7, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(jsonio.dump_json(jsonio.quasiorder_to_dict(cocycle7), pretty=True))
    loaded, added = jsonio.load_quasiorder(path)
    assert loaded == cocycle7 and added == []


def test_loader_reports_closure_additions():
    rho, added = jsonio.quasiorder_from_dict({"n": 3, "pairs": [[1, 2], [2, 3]]})
    assert (1, 3) in rho.pairs
    assert (1, 3) in added and (1, 1) in added


def test_loader_rejects_out_of_range():
    with pytest.raises(ValueError):
        jsonio.quasiorder_from_dict({"n": 2, "pairs": [[1, 5]]})


@pytest.mark.parametrize("blob", [
    {"n": 3, "pairs": [[1, 2.7]]},
    {"n": 3, "pairs": [[1.0, 2]]},
    {"n": True, "pairs": []},
    {"n": 3.0, "pairs": []},
    {"n": 1e300, "pairs": []},
    {"n": "3", "pairs": []},
])
def test_loader_rejects_non_integers(blob):
    # a bad pair entry is named with its pair
    pair = blob["pairs"][0] if blob["pairs"] else None
    message = (f"^{re.escape(f'pairs must be pairs of integers, got {pair}')}$" if pair
               else "^n must be an integer")
    with pytest.raises(ValueError, match=message):
        jsonio.quasiorder_from_dict(blob)


def test_spec_loader_rejects_non_integers(cocycle7):
    spec = JordanSpec(cocycle7, np.eye(7, dtype=complex), random_transitive(cocycle7, 1),
                      CentralIdempotent((1,) * 7))
    d = jsonio.jordan_spec_to_dict(spec)
    d["idempotent_diag"][0] = 0.6
    with pytest.raises(ValueError, match="idempotent bit must be an integer"):
        jsonio.jordan_spec_from_dict(d)
    d["idempotent_diag"][0] = 1
    d["transitive_map"]["pairs"][0][1] = float(d["transitive_map"]["pairs"][0][1])
    with pytest.raises(ValueError, match="index must be an integer"):
        jsonio.jordan_spec_from_dict(d)
    with pytest.raises(ValueError, match="n must be an integer"):
        jsonio.matrix_from_dict({"n": 1.0, "entries": [[[1.0, 0.0]]]})


def test_matrix_roundtrip(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    text = jsonio.dump_json(jsonio.matrix_to_dict(A), pretty=True)
    assert np.array_equal(jsonio.matrix_from_dict(json.loads(text)), A)


def test_matrix_shape_mismatch():
    with pytest.raises(ValueError, match="grid"):
        jsonio.matrix_from_dict({"n": 2, "entries": [[[1.0, 0.0]]]})


def test_transitive_map_roundtrip(cocycle7):
    g = TransitiveMap(cocycle7, {
        p: (2.0 if p in {(2, 4), (2, 5)} else 1.0) for p in cocycle7.off_diagonal})
    d = jsonio.transitive_map_to_dict(g)
    assert all(len(entry) == 3 for entry in d["pairs"])
    g2 = jsonio.transitive_map_from_dict(d, cocycle7)
    assert g2.values == g.values


def test_jordan_spec_roundtrip(cocycle7, tmp_path):
    srng = np.random.default_rng(4)
    spec = JordanSpec(cocycle7, random_invertible(7, srng),
                      random_transitive(cocycle7, 1), CentralIdempotent((1,) * 7))
    path = tmp_path / "spec.json"
    path.write_text(jsonio.dump_json(jsonio.jordan_spec_to_dict(spec), pretty=True))
    spec2 = jsonio.load_jordan_spec(path)
    assert spec2.rho == spec.rho
    assert np.array_equal(spec2.S, spec.S)
    assert spec2.g.values == spec.g.values
    assert spec2.P.diag_bits == spec.P.diag_bits


def test_dump_json_is_deterministic():
    obj = {"b": [1.5, 2.25], "a": {"z": True, "y": None}}
    assert jsonio.dump_json(obj) == jsonio.dump_json(json.loads(jsonio.dump_json(obj)))


# signed zeros, subnormals, the largest doubles, integral floats and the
# floats whose repr takes an exponent
edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1.7976931348623157e308, -1.7976931348623157e308,
                               1.0, -3.0, 1e16, 1e-05, 123456789.0, 0.1])
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats


@st.composite
def unit_images(draw):
    """n in 1..11, so that rows split after 8 entries and n is sometimes not a
    multiple of 8, and a few units with finite complex n x n images.  Each
    image's real and imaginary parts are drawn, seeded, from a small pool of
    drawn floats, which keeps a draw cheap at n = 11."""
    n = draw(st.integers(1, 11))
    pool = np.array(draw(st.lists(finite_floats, min_size=1, max_size=24)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    index = st.integers(1, n)
    units = []
    for _ in range(draw(st.integers(1, 3))):
        A = rng.choice(pool, 2 * n * n).view(complex).reshape(n, n)
        units.append(((draw(index), draw(index)), A))
    return n, units


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@given(case=unit_images())
@settings(max_examples=200)
def test_embed_report_is_dump_json_of_the_table(pretty, case):
    n, units = case
    table = [{"unit": [i, j], "image": jsonio.matrix_to_dict(A)} for (i, j), A in units]
    assert jsonio._embed_report(n, iter(units), pretty) == \
        jsonio.dump_json({"n": n, "units": table}, pretty)


# Fuzzing the loaders: every document either loads or raises one of these.
LOADER_ERRORS = (ValueError, KeyError, TypeError)

# sizes stay small, so that no draw allocates a large array or relation; an n
# drawn from `numbers` into a spec is held to MAX_N by the loader
small_ints = st.integers(-2, 8)
# JSON integers are unbounded: include some beyond the range of a double
numbers = st.integers() | st.floats() | st.integers(2 ** 1024, 2 ** 1030).map(lambda k: k * (-1) ** k)
json_values = st.recursive(
    st.none() | st.booleans() | small_ints | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=2), kids, max_size=3),
    max_leaves=10,
)
quasiorder_docs = st.fixed_dictionaries({
    "n": small_ints | json_values,
    "pairs": st.lists(st.lists(st.integers(-1, 9) | numbers, max_size=3), max_size=8) | json_values,
})
small_preorders = st.builds(
    lambda n, pairs: closure(n, {(i, j) for i, j in pairs if i <= n and j <= n}),
    st.integers(1, 3), st.sets(st.tuples(st.integers(1, 3), st.integers(1, 3))))


def member_paths(node, prefix=()):
    """Key paths from the root of a JSON document to each of its leaves."""
    if isinstance(node, (dict, list)) and node:
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from member_paths(child, prefix + (key,))
    else:
        yield prefix


@st.composite
def spec_docs(draw):
    """A valid spec document with one member, at any depth, replaced by a
    number or an arbitrary JSON value, so that every field gets parsed."""
    rho = draw(small_preorders)
    doc = jsonio.jordan_spec_to_dict(JordanSpec(
        rho, np.eye(rho.n, dtype=complex), TransitiveMap.constant_one(rho),
        CentralIdempotent((1,) * rho.n)))
    path = draw(st.sampled_from(list(member_paths(doc))))
    path = path[:draw(st.integers(1, len(path)))]
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = draw(numbers | json_values)
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return path


@given(doc=quasiorder_docs | json_values)
@settings(max_examples=300)
def test_load_quasiorder_fuzz(doc_path, doc):
    try:
        rho, added = jsonio.load_quasiorder(write_doc(doc_path, doc))
    except LOADER_ERRORS:
        return
    assert set(added) <= rho.pairs


@given(doc=spec_docs() | json_values)
@settings(max_examples=300)
def test_load_jordan_spec_fuzz(doc_path, doc):
    try:
        jsonio.load_jordan_spec(write_doc(doc_path, doc))
    except LOADER_ERRORS:
        pass


def run_cli(*argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def non_standard_token(token):
    raise AssertionError(f"report holds {token}, which is not JSON")


def assert_clean_exit(code, out, err):
    """Exit 0 with a JSON report, or exit 1 with one `error:` line and no traceback."""
    if code == 0:
        assert err == ""
        json.loads(out, parse_constant=non_standard_token)
    else:
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), lines


@given(doc=quasiorder_docs | json_values)
@settings(max_examples=150)
def test_analyze_fuzz(doc_path, doc):
    assert_clean_exit(*run_cli("analyze", str(write_doc(doc_path, doc))))


@given(doc=spec_docs() | json_values)
@settings(max_examples=150)
def test_embed_fuzz(doc_path, doc):
    assert_clean_exit(*run_cli("embed", str(write_doc(doc_path, doc))))


def test_deeply_nested_document_fails_cleanly(doc_path):
    doc_path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ValueError, match="nested"):
        jsonio.load_quasiorder(doc_path)
    with pytest.raises(ValueError, match="nested"):
        jsonio.load_jordan_spec(doc_path)
    assert_clean_exit(*run_cli("analyze", str(doc_path)))


def test_huge_n_rejected_before_closure(doc_path):
    write_doc(doc_path, {"n": 10 ** 9, "pairs": []})
    with pytest.raises(ValueError, match="n must be <= 1024"):
        jsonio.load_quasiorder(doc_path)
    assert_clean_exit(*run_cli("analyze", str(doc_path)))
    assert jsonio.quasiorder_from_dict({"n": jsonio.MAX_N, "pairs": []})[0].n == jsonio.MAX_N


def test_huge_integer_entries_rejected(cocycle7):
    with pytest.raises(ValueError, match="entry"):
        jsonio.matrix_from_dict({"n": 1, "entries": [[[10 ** 400, 0]]]})
    with pytest.raises(ValueError, match="value"):
        jsonio.transitive_map_from_dict({"pairs": [[1, 3, [1, 10 ** 400]]]}, cocycle7)

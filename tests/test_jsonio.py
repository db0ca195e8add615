import json

import numpy as np
import pytest

from smalg.quasiorder import closure
from smalg.cocycle import TransitiveMap, random_transitive
from smalg.jordan import CentralIdempotent, JordanSpec
from smalg.matalg import random_invertible
from smalg import jsonio


def test_quasiorder_roundtrip(cocycle7, tmp_path):
    path = tmp_path / "q.json"
    jsonio.save_quasiorder(cocycle7, path)
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
    with pytest.raises(ValueError, match="must be an integer"):
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


def test_matrix_roundtrip(tmp_path, rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    jsonio.save_matrix(A, path)
    assert np.array_equal(jsonio.load_matrix(path), A)


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

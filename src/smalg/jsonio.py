"""JSON wire formats: quasi-orders, complex matrices, transitive maps, embedding specs.

All indices are 1-based.  Complex scalars travel as [re, im] pairs; matrices as
row-major nested lists of those pairs.
"""

from __future__ import annotations

import json

import numpy as np

from ._checks import integer
from .quasiorder import QuasiOrder, closure
from .matalg import entry_pairs
from .cocycle import TransitiveMap
from .jordan import CentralIdempotent, JordanSpec

__all__ = [
    "MAX_N",
    "quasiorder_to_dict",
    "quasiorder_from_dict",
    "load_quasiorder",
    "matrix_to_dict",
    "matrix_from_dict",
    "transitive_map_to_dict",
    "transitive_map_from_dict",
    "jordan_spec_to_dict",
    "jordan_spec_from_dict",
    "load_jordan_spec",
    "dump_json",
]


# largest n a quasi-order file may declare: the closure builds n bitmask rows of
# n bits before anything else is checked, so an unbounded n in a tiny file
# could exhaust memory
MAX_N = 1024


def dump_json(obj, pretty: bool = False) -> str:
    # smalg's reports are trees, so the encoder's cycle check only costs time
    if pretty:
        return json.dumps(obj, sort_keys=True, indent=2, check_circular=False)
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)


# entries per piece of the compact embed report: 8 [re, im] pairs and their
# punctuation stay under about 420 chars, so each piece is a small object of
# Python's allocator, and freeing the pieces leaves no glibc heap behind
_PIECE_ENTRIES = 8


def _image_templates(n):
    """(template, start, stop) over the 2 n^2 floats of an n x n image viewed
    as float64: each template renders floats start..stop as at most
    _PIECE_ENTRIES "[re,im]" pairs, with the row brackets and commas."""
    plan = []
    for r in range(n):
        for lo in range(0, n, _PIECE_ENTRIES):
            hi = min(lo + _PIECE_ENTRIES, n)
            head = "," if lo else ",[" if r else "["
            tail = "]" if hi == n else ""
            tpl = head + ",".join(["[%r,%r]"] * (hi - lo)) + tail
            plan.append((tpl, 2 * (r * n + lo), 2 * (r * n + hi)))
    return plan


def _compact_embed_report(n, images) -> str:
    """dump_json({"n": n, "units": [{"unit": [i, j], "image":
    matrix_to_dict(A)}, ...]}) for ((i, j), A) in `images`, byte for byte
    when every A is finite, with no table built.  A finite float's repr is
    its JSON token, so the entries go through %r templates of at most
    _PIECE_ENTRIES entries each; the pieces and the punctuation are joined
    once."""
    plan = _image_templates(n)
    tail = '],"n":%d},"unit":[%%d,%%d]}' % n
    parts = ['{"n":%d,"units":[' % n]
    head = '{"image":{"entries":['
    for (i, j), A in images:
        parts.append(head)
        floats = np.ascontiguousarray(A, dtype=complex).view(float).ravel().tolist()
        parts += [tpl % tuple(floats[lo:hi]) for tpl, lo, hi in plan]
        parts.append(tail % (i, j))
        head = ',{"image":{"entries":['
    parts.append("]}")
    return "".join(parts)


def _complex(part, what):
    """complex(re, im) of a JSON pair [re, im] of numbers: ints or floats, never
    bools, and no int too large for a double."""
    try:
        re, im = part
        if type(re) in (int, float) and type(im) in (int, float):
            return complex(re, im)
    except OverflowError:
        raise ValueError(f"{what} is out of floating-point range") from None
    except (TypeError, ValueError):  # not a 2-sequence
        pass
    raise ValueError(f"{what} must be a pair of numbers, got {part!r}")


def _read(path):
    """The JSON document in `path`; nesting too deep for the parser is bad input too."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON document is nested too deeply") from None


def quasiorder_to_dict(rho: QuasiOrder) -> dict:
    return {"n": rho.n, "pairs": [list(p) for p in sorted(rho.pairs)]}


def quasiorder_from_dict(d: dict):
    """Build the quasi-order, closing the listed pairs; returns (rho, added)
    where `added` lists the pairs the closure had to add."""
    rho = closure(integer(d["n"], "n", most=MAX_N), d["pairs"])
    return rho, sorted(rho.pairs - set(map(tuple, d["pairs"])))


def load_quasiorder(path):
    return quasiorder_from_dict(_read(path))


def matrix_to_dict(A) -> dict:
    A = np.asarray(A, dtype=complex)
    return {"n": A.shape[0], "entries": entry_pairs(A)}


def matrix_from_dict(d: dict) -> np.ndarray:
    n = integer(d["n"], "n")
    A = np.array([[_complex(z, "matrix entry") for z in row] for row in d["entries"]])
    if A.shape != (n, n):
        raise ValueError(f"entry grid is {A.shape}, expected ({n},{n})")
    return A


def transitive_map_to_dict(g: TransitiveMap) -> dict:
    return {
        "pairs": [[i, j, [v.real, v.imag]] for (i, j), v in sorted(g.values.items()) if i != j]
    }


def transitive_map_from_dict(d: dict, rho: QuasiOrder) -> TransitiveMap:
    values = {}
    for i, j, z in d["pairs"]:
        pair = integer(i, "index"), integer(j, "index")
        if pair in values:
            raise ValueError(f"transitive map lists pair ({i},{j}) twice")
        values[pair] = _complex(z, "transitive map value")
    return TransitiveMap(rho, values)


def jordan_spec_to_dict(spec: JordanSpec) -> dict:
    return {
        "quasiorder": quasiorder_to_dict(spec.rho),
        "s_matrix": matrix_to_dict(spec.S),
        "transitive_map": transitive_map_to_dict(spec.g),
        "idempotent_diag": list(spec.P.diag_bits),
    }


def jordan_spec_from_dict(d: dict) -> JordanSpec:
    rho, added = quasiorder_from_dict(d["quasiorder"])
    if added:
        raise ValueError(f"spec quasi-order is not closed; missing pairs {added}")
    S = matrix_from_dict(d["s_matrix"])
    g = transitive_map_from_dict(d["transitive_map"], rho)
    return JordanSpec(rho, S, g, CentralIdempotent(d["idempotent_diag"]))


def load_jordan_spec(path) -> JordanSpec:
    return jordan_spec_from_dict(_read(path))

"""JSON wire formats: quasi-orders, complex matrices, transitive maps, embedding specs.

All indices are 1-based.  Complex scalars travel as [re, im] pairs; matrices as
row-major nested lists of those pairs.  The quasi-order format needs only the
quasi-order layer: numpy and the matrix layers are imported by the readers and
writers of the other formats, when one is called.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from ._checks import integer
from .quasiorder import QuasiOrder, closure

if TYPE_CHECKING:
    import numpy as np

    from .cocycle import TransitiveMap
    from .jordan import JordanSpec

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


def _embed_report(n, images, pretty) -> str:
    """dump_json({"n": n, "units": [{"unit": [i, j], "image":
    matrix_to_dict(A)}, ...]}, pretty) for ((i, j), A) in `images`, at least
    one, byte for byte when every A is finite, with no table built.  dump_json
    renders the frame and one unit with sentinel strings in the slots, which
    become %r slots for the floats and %d slots for i and j: a finite float's
    repr is its JSON token.  Each image is read with one tolist and filled
    into pieces of k floats, and the pieces are joined once."""
    import numpy as np

    head, sep, tail = dump_json({"n": n, "units": ["\2", "\2"]}, pretty).split('"\\u0002"')
    unit = dump_json({"unit": ["\1", "\1"],
                      "image": {"n": n, "entries": [[["\0", "\0"]] * n] * n}}, pretty)
    # the unit's lines indented to its depth in the frame (compact has none)
    *frags, last = unit.replace("\n", sep[1:]).replace('"\\u0001"', "%d").split('"\\u0000"')
    # 16 floats, 8 [re, im] entries, keep a compact piece under about 420
    # chars, a small object of Python's allocator, so freeing the pieces
    # leaves no glibc heap behind
    k = 16
    plan = [(lo, "%r".join(frags[lo:lo + k]) + "%r") for lo in range(0, 2 * n * n, k)]
    parts = []
    for (i, j), A in images:
        floats = np.ascontiguousarray(A, dtype=complex).view(float).ravel().tolist()
        parts += [sep, *(tpl % tuple(floats[lo:lo + k]) for lo, tpl in plan), last % (i, j)]
    parts[0] = head  # the first unit follows the head, not a separator
    parts.append(tail)
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
    import numpy as np

    from .matalg import entry_pairs

    A = np.asarray(A, dtype=complex)
    return {"n": A.shape[0], "entries": entry_pairs(A)}


def matrix_from_dict(d: dict) -> np.ndarray:
    import numpy as np

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
    from .cocycle import TransitiveMap

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
    from .jordan import CentralIdempotent, JordanSpec

    rho, added = quasiorder_from_dict(d["quasiorder"])
    if added:
        raise ValueError(f"spec quasi-order is not closed; missing pairs {added}")
    S = matrix_from_dict(d["s_matrix"])
    g = transitive_map_from_dict(d["transitive_map"], rho)
    return JordanSpec(rho, S, g, CentralIdempotent(d["idempotent_diag"]))


def load_jordan_spec(path) -> JordanSpec:
    return jordan_spec_from_dict(_read(path))

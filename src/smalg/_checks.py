"""The one rule for each kind of numeric argument of smalg's public API.

Counts, sizes, 1-based indices and seeds go through `integer`, tolerances
through `tolerance`.  Each raises ValueError naming the argument, so that bad
input fails loudly instead of ending in a TypeError or a vacuous pass, and
returns a plain Python int or float, so that no numpy scalar reaches a report.
numpy registers its integer and floating types with `numbers`, so numpy
scalars pass without this module importing numpy.
"""

import numbers
import sys


def integer(value, name, least=None, most=None) -> int:
    """`value` as an int: a Python or numpy integer (any `numbers.Integral`),
    never a bool, within the bounds given."""
    # a Python int passes on its type alone: the ABC check costs ten times more
    if (type(value) is not int
            and (isinstance(value, bool) or not isinstance(value, numbers.Integral))
            or least is not None and value < least):
        rule = "an integer" if least is None else f">= {least} and an integer"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be <= {most}, got {value!r}")
    return int(value)


def tolerance(value, name) -> float:
    """`value` as a float: a finite real number > 0 (any `numbers.Real`), never
    a bool.  No error exceeds a NaN tolerance, every one is within an infinite
    one, and even a zero error exceeds a negative one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not 0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return float(value)

"""What the bench scripts share: the source trees they compare, given as
`--src LABEL=PATH`, and the summary of one metric over rounds."""

from __future__ import annotations

import statistics
from pathlib import Path


def source_trees(parser, items, root):
    """(label, path) per `--src LABEL=PATH` item; this checkout's `src` when none."""
    trees = []
    for item in items or [f"src={root / 'src'}"]:
        label, sep, path = item.partition("=")
        if not sep or not (Path(path) / "smalg").is_dir():
            parser.error(f"--src {item!r}: expected LABEL=PATH to a tree holding smalg/")
        trees.append((label, Path(path).resolve()))
    return trees


def summary(values):
    """Median and quartiles of one metric's values over rounds."""
    if len(values) < 2:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(q2, 4), "q1": round(q1, 4), "q3": round(q3, 4)}

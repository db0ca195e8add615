"""Structural matrix algebras: quasi-order combinatorics, Jordan embeddings,
and numerical experiments on commutativity-and-spectrum preservers.

Each public name lives in one layer and is imported from it, for example
``from smalg.quasiorder import QuasiOrder``: quasi-orders in `smalg.quasiorder`,
the dense matrix layer in `smalg.matalg`, transitive maps in `smalg.cocycle`,
Jordan embeddings and their recovery in `smalg.jordan`, preservers and the
sampling harness in `smalg.preservers`, the JSON formats in `smalg.jsonio` and
the verbs in `smalg.cli`.  Importing `smalg` itself loads no layer.
"""

__version__ = "0.1.0"

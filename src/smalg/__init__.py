"""Structural matrix algebras: quasi-order combinatorics, Jordan embeddings,
and numerical experiments on commutativity-and-spectrum preservers."""

from .quasiorder import (
    QuasiOrder,
    Partition,
    BlockTriangularization,
    closure,
    image,
    preimage,
    components,
    is_two_free,
    condition_i,
    is_symmetric,
    block_triangular_permutation,
    rank_one_density,
    all_preorders,
)
from .matalg import (
    support,
    in_sma,
    sharp,
    flat,
    matrix_unit,
    lambda_matrix,
    rank_one_closure_member,
)
from .cocycle import (
    TransitiveMap,
    Trivial,
    Nontrivial,
    validate,
    triviality,
    induced_auto,
)
from .jordan import (
    CentralIdempotent,
    JordanSpec,
    central_idempotents,
    build_embedding,
    verify_jordan,
    verify_multiplicative,
    verify_antimultiplicative,
    recover_form,
    RecoveryError,
)
from .preservers import (
    MapUnderTest,
    PreserverReport,
    counterexample,
    commutes_criterion,
    classify_unit_action,
    remark_gallery,
    verify_preserver,
)

__version__ = "0.1.0"

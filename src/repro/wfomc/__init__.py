"""WFOMC solvers: brute force, FO2 lifted, special-query DPs, closed forms."""

from .bruteforce import wfomc_enumerate, wfomc_lineage, fomc_lineage
from .closed_forms import (
    fomc_forall_exists,
    wfomc_forall_exists,
    wfomc_exists_unary,
    wfomc_forall_exists_escape,
    table1_fomc,
    table1_wfomc,
)
from .fo2 import wfomc_fo2, fo2_cache_stats, clear_fo2_caches
from .qs4 import wfomc_qs4, QS4_SENTENCE
from .chain import chain_probability
from .polynomial import (
    wfomc_cardinality_polynomial,
    evaluate_cardinality_polynomial,
)
from .solver import (
    wfomc,
    fomc,
    probability,
    wfomc_batch,
    wfomc_weight_sweep,
    solver_cache_stats,
    clear_solver_caches,
)

__all__ = [
    "wfomc_enumerate",
    "wfomc_lineage",
    "fomc_lineage",
    "fomc_forall_exists",
    "wfomc_forall_exists",
    "wfomc_exists_unary",
    "wfomc_forall_exists_escape",
    "table1_fomc",
    "table1_wfomc",
    "wfomc_fo2",
    "fo2_cache_stats",
    "clear_fo2_caches",
    "wfomc_qs4",
    "QS4_SENTENCE",
    "chain_probability",
    "wfomc_cardinality_polynomial",
    "evaluate_cardinality_polynomial",
    "wfomc",
    "fomc",
    "probability",
    "wfomc_batch",
    "wfomc_weight_sweep",
    "solver_cache_stats",
    "clear_solver_caches",
]

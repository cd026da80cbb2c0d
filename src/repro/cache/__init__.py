"""``repro.cache``: the disk-backed persistent cache subsystem.

Symmetric WFOMC workloads recompute the same subproblems massively —
across domain sizes, weight functions, MLN weight sweeps, and separate
processes.  The in-memory caches (component values, cardinality
polynomials, FO2 cell structures) die with the process; this package
gives them a content-addressed, versioned, concurrency-safe on-disk
home so a second process warm-starts instead of recomputing.

Opt in per call with ``persist=True`` (and optionally ``cache_dir=``)
on :func:`repro.wfomc.solver.wfomc` and friends, or on the CLI with
``--persist`` / ``--cache-dir``; inspect with ``repro cache
stats|clear|vacuum|path``.  The store lives under ``$REPRO_CACHE_DIR`` or
``~/.cache/repro`` and is shared by parallel counting workers.  All
persisted values are exact (ints/Fractions), so persisted and
recomputed results are bit-identical; a missing, corrupted, or
unwritable store silently degrades to plain recomputation.
"""

from .adapters import (
    CIRCUITS_NS,
    COMPONENTS_NS,
    FO2_TABLES_NS,
    POLYNOMIALS_NS,
    StoreBackedComponentCache,
    persistent_component_cache,
)
from .store import (
    ENGINE_TAG,
    STORE_FILENAME,
    PersistentStore,
    close_all_stores,
    decode_value,
    default_cache_dir,
    encode_value,
    key_digest,
    open_store,
)

__all__ = [
    "ENGINE_TAG",
    "STORE_FILENAME",
    "COMPONENTS_NS",
    "POLYNOMIALS_NS",
    "FO2_TABLES_NS",
    "CIRCUITS_NS",
    "PersistentStore",
    "StoreBackedComponentCache",
    "persistent_component_cache",
    "default_cache_dir",
    "open_store",
    "close_all_stores",
    "encode_value",
    "decode_value",
    "key_digest",
]

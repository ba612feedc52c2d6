"""Sharded collections served by a multi-process scatter-gather pool.

The ROADMAP's step past single-document serving: a
:class:`Collection` holds many stored documents (shards) behind one
catalog file and fans each query out across a persistent
``multiprocessing`` worker pool — one page buffer and index set per
worker, plans shipped as pickled translations and back-end compiled
per shard, results merged in global document order ``(shard id,
pre-order rank)``.  See ``docs/collection.md`` for the architecture,
the ordering guarantee and the governance semantics.
"""

from repro.collection.catalog import (
    CollectionCatalog,
    ShardInfo,
    create_collection,
    create_collection_from_document,
    load_catalog,
    split_document,
)
from repro.collection.collection import (
    Collection,
    CollectionResult,
    CollectionStats,
    NodeRecord,
    ShardResult,
)
from repro.collection.plans import ShippedPlan, compile_shipped, ship_plan
from repro.collection.pool import WorkerPool

__all__ = [
    "Collection",
    "CollectionCatalog",
    "CollectionResult",
    "CollectionStats",
    "NodeRecord",
    "ShardInfo",
    "ShardResult",
    "ShippedPlan",
    "WorkerPool",
    "compile_shipped",
    "create_collection",
    "create_collection_from_document",
    "load_catalog",
    "ship_plan",
    "split_document",
]

"""Shipping compiled plans across process boundaries.

The cross-process analogue of :attr:`CompiledQuery.thread_physical`:
just as a cached query re-generates a private :class:`PhysicalPlan` per
*thread* from its shared translation, a collection query re-generates a
private plan per *worker process* from a shipped translation.  The
split follows the compiler's own phase boundary:

- The **parent** runs the target-independent front end once per query —
  parse, semantic analysis, constant folding, normalization, and
  translation into the algebra (phases 1–5, including the scalar χ/□
  wrap) — and pickles the resulting :class:`TranslationResult`.
- Each **worker** unpickles the translation and runs the
  target-*dependent* back end against its own shard: the optimizer pass
  with the shard's index set (phase 5b — index routing must see the
  indexes that are actually resident in that process) and physical code
  generation (phase 6).

Translations are plain operator/scalar trees with no handles into any
store, engine or thread, which is what makes them picklable; physical
plans hold live iterators and register files and are never shipped.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import FrozenSet, Mapping, Optional

from repro.algebra import operators as ops
from repro.compiler.cost import PlanEstimator
from repro.compiler.improved import TranslationOptions
from repro.compiler.normalize import normalize
from repro.compiler.pipeline import (
    _SCALAR_RESULT_ATTR,
    CompiledQuery,
    XPathCompiler,
)
from repro.compiler.rewrite import fold_constants
from repro.compiler.semantic import analyze
from repro.compiler.translate import TranslationResult, Translator
from repro.index.synopsis import PathSynopsis
from repro.xpath.parser import parse_xpath


@dataclass(frozen=True)
class ShippedPlan:
    """One query's translation, serialized for the worker pool.

    ``blob`` pickles ``(query, TranslationOptions, TranslationResult)``;
    ``index_mode`` / ``optimizer`` ride alongside because they are
    compile *inputs* the worker's back end needs, not part of the
    translation itself.  ``empty_shards`` is parent-side scatter
    metadata: the shards on whose synopsis the translation provably
    returns the empty node-set, which the collection layer may skip.
    """

    query: str
    blob: bytes
    index_mode: str
    optimizer: str
    empty_shards: FrozenSet[int] = frozenset()


def translate_front_end(
    query: str, options: Optional[TranslationOptions] = None
) -> TranslationResult:
    """Run compiler phases 1–5 (everything before plan optimization).

    Mirrors :meth:`XPathCompiler.compile` exactly up to — but not
    including — phase 5b, so a shipped translation optimized and
    code-generated in a worker is indistinguishable from one compiled
    end-to-end in that worker.
    """
    options = options or TranslationOptions()
    ast = parse_xpath(query)
    analyze(ast)
    ast = fold_constants(ast)
    normalize(ast)
    translation = Translator(options).translate(ast)
    if translation.kind == "scalar":
        assert translation.scalar is not None
        translation.plan = ops.MapOp(
            ops.SingletonScan(),
            _SCALAR_RESULT_ATTR,
            translation.scalar,
            is_result=True,
        )
        translation.result_attr = _SCALAR_RESULT_ATTR
    return translation


def ship_plan(
    query: str,
    options: Optional[TranslationOptions] = None,
    *,
    index_mode: str = "auto",
    optimizer: str = "heuristic",
    synopses: Optional[Mapping[int, PathSynopsis]] = None,
) -> ShippedPlan:
    """Front-end compile ``query`` and pack it for the pool (parent side).

    ``synopses`` maps shard ids to their path synopses; the estimator
    walks the translation once over each to find the shards where a
    node-set result is provably empty.  Scalar results are never
    empty: an aggregate needs every shard's contribution.
    """
    options = options or TranslationOptions()
    translation = translate_front_end(query, options)
    blob = pickle.dumps(
        (query, options, translation), protocol=pickle.HIGHEST_PROTOCOL
    )
    empty_shards: FrozenSet[int] = frozenset()
    if translation.kind == "sequence":
        empty_shards = frozenset(
            shard for shard, synopsis in (synopses or {}).items()
            if PlanEstimator(synopsis).estimate(
                translation.plan, at_root=True
            ).empty
        )
    return ShippedPlan(
        query=query, blob=blob, index_mode=index_mode,
        optimizer=optimizer, empty_shards=empty_shards,
    )


def compile_shipped(
    shipped: ShippedPlan, index_info=None
) -> CompiledQuery:
    """Back-end compile a shipped plan against one shard (worker side).

    ``index_info`` is the worker's resident
    :class:`~repro.index.runtime.DocumentIndexes` for its shard (or
    ``None``); the back end is :meth:`XPathCompiler.compile`'s own
    (:meth:`~repro.compiler.pipeline.XPathCompiler.back_end`), so index
    routing, forced-index modes and the cost optimizer behave
    identically to single-document serving.  The returned
    :class:`CompiledQuery` carries no AST (``ast=None``) — evaluation
    only reads the translation and the generated physical plan.
    """
    query, options, translation = pickle.loads(shipped.blob)
    compiler = XPathCompiler(
        options, index_info, shipped.index_mode, shipped.optimizer
    )
    return compiler.back_end(query, None, translation, {})

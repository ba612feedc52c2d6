"""The ``Collection``: scatter-gather serving over sharded documents.

A :class:`Collection` opens a catalog directory (see
:mod:`repro.collection.catalog`), spins up a persistent
:class:`~repro.collection.pool.WorkerPool`, and serves whole-collection
queries:

1. **Ship** — the query is front-end compiled once (phases 1–5) and the
   pickled translation cached under ``(query, options, namespaces,
   index mode, optimizer)``; see :mod:`repro.collection.plans`.
2. **Prune + scatter** — before anything ships, each shard's mirrored
   path synopsis is asked whether the query's leading structural steps
   can match at all (:mod:`repro.collection.pruning`); a refuted shard
   is *pruned* — the parent synthesizes its provably-empty node-set
   slice without scattering.  The admitted shards each get one task,
   carrying the shipped plan and the per-shard governance limits
   derived from the collection deadline.  Scatters are **not**
   serialized: any number of queries may be in flight on the pool at
   once, multiplexed by query id (see :mod:`repro.collection.pool`).
3. **Gather** — the pool collects exactly one outcome per shard
   (worker crashes and unresponsive workers included, as typed
   errors), cancelling the in-flight siblings as soon as any shard
   fails.
4. **Merge** — node-set results are concatenated in **global document
   order**: ``(shard id, pre-order rank)``.  Per-shard results arrive
   already document-ordered (the worker canonicalizes with a sort), so
   the merge is a permutation-free concatenation in shard order —
   never an interleave, never a re-sort.

Failure semantics mirror the single-document engine: a query either
returns a complete :class:`CollectionResult` or raises — governance
errors (:class:`~repro.errors.QueryTimeoutError`, budget, cancel) when
a governor tripped, :class:`~repro.errors.ShardFailedError` when a
worker died or stopped responding.  There are no partial results.

Accounting is parent-side only: every submitted shard task resolves to
exactly one of ``completed`` / ``timed_out`` / ``cancelled`` /
``failed`` / ``pruned``, so the :class:`CollectionStats` invariant
``submitted == completed + timed_out + cancelled + failed + pruned``
holds at every quiescent point by construction, no matter what the
workers did (pruned shards count as submitted and resolve instantly,
parent-side).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import (
    Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.collection.catalog import CollectionCatalog, load_catalog
from repro.collection.plans import ShippedPlan, ship_plan
from repro.collection.pool import (
    DEFAULT_WORKER_BUFFER_PAGES,
    ShardOutcome,
    WorkerPool,
)
from repro.collection.pruning import shard_admits
from repro.compiler.improved import TranslationOptions
from repro.engine.options import INDEX_MODES, OPTIMIZER_MODES
from repro.errors import (
    CollectionError,
    QueryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
    ShardFailedError,
)

#: Shipped front-end translations cached per collection.
SHIPPED_CACHE_LIMIT = 128

#: The outcome classes a shard task resolves into (stats keys).
OUTCOME_KEYS = (
    "submitted", "completed", "timed_out", "cancelled", "failed", "pruned",
)


class NodeRecord(NamedTuple):
    """One result node of a collection query, in canonical form.

    Live node handles cannot cross process boundaries, so collection
    node-sets are sequences of these records.  ``sort_key`` is the
    node's pre-order key within its shard; ``(shard, sort_key)`` is the
    node's global document-order position, and record sequences from
    :meth:`CollectionResult.merged` are sorted by exactly that pair.
    """

    shard: int
    sort_key: Tuple[int, int, int]
    kind: int
    name: str
    string_value: str


@dataclass(frozen=True)
class ShardResult:
    """One shard's slice of a collection query result."""

    shard: int
    kind: str  #: "node-set", "boolean", "number" or "string"
    value: object  #: tuple of NodeRecord for node-sets, scalar otherwise
    elapsed: float  #: worker-side evaluation seconds


class CollectionResult:
    """The complete, merged result of one collection query."""

    __slots__ = ("shards", "elapsed")

    def __init__(self, shards: List[ShardResult], elapsed: float):
        #: Per-shard results, in shard order (dense, one per shard).
        self.shards = shards
        #: Parent-side wall seconds for the whole scatter-gather.
        self.elapsed = elapsed

    @property
    def kind(self) -> str:
        """``"node-set"`` when every shard returned a node-set, else
        ``"scalar"`` (scalar queries yield one value *per shard*)."""
        if all(shard.kind == "node-set" for shard in self.shards):
            return "node-set"
        return "scalar"

    def merged(self) -> list:
        """The global result: records in global document order, or the
        per-shard scalar values in shard order.

        For node-sets this is the collection's ordering guarantee:
        concatenation of the (already document-ordered) per-shard
        record runs in shard order — equal to sorting every record by
        ``(shard, sort_key)``, with no interleaving and no duplicates
        across shards.
        """
        if self.kind == "node-set":
            merged: List[NodeRecord] = []
            for shard in self.shards:
                merged.extend(shard.value)
            return merged
        return [shard.value for shard in self.shards]

    def canonical(self) -> tuple:
        """Canonical comparison form (differential-oracle compatible):
        one ``(shard id, canonical payload)`` pair per shard."""
        return tuple(
            (shard.shard, _canonical_of(shard)) for shard in self.shards
        )


def _canonical_of(shard: ShardResult) -> tuple:
    if shard.kind == "node-set":
        return (
            "node-set",
            tuple(
                (tuple(r.sort_key), r.kind, r.name, r.string_value)
                for r in shard.value
            ),
        )
    return (shard.kind, shard.value)


@dataclass(frozen=True)
class CollectionStats:
    """Immutable statistics snapshot of one :class:`Collection`.

    Task counters are per-*shard-task* (one query over N shards
    submits N, whether or not the synopsis then prunes some of them),
    and reconcile at every quiescent point: ``submitted == completed +
    timed_out + cancelled + failed + shards_pruned``.
    """

    name: str
    fingerprint: str
    shard_count: int
    workers: int
    queries: int
    submitted: int
    completed: int
    timed_out: int
    cancelled: int
    failed: int
    shards_pruned: int
    per_shard: Mapping[int, Mapping[str, int]]
    scatter_seconds: float
    gather_seconds: float
    plans_shipped: int
    shipped_cache_hits: int
    recycles: int

    def to_dict(self) -> dict:
        """A plain-dict rendering (safe for ``json.dumps``): per-shard
        counter keys become strings, as JSON object keys must be."""
        data = asdict(self)
        data["per_shard"] = {
            str(shard): dict(counters)
            for shard, counters in self.per_shard.items()
        }
        return data


class Collection:
    """Many stored documents, one namespace, one process pool.

    Open an existing collection directory (written by
    :func:`repro.collection.catalog.create_collection`) and serve
    queries across every shard::

        with Collection("corpus.coll", workers=4) as coll:
            result = coll.evaluate("//item[@price > 100]")
            for record in result.merged():
                print(record.shard, record.string_value)

    ``index_mode`` and ``optimizer`` mirror the single-document
    :class:`~repro.engine.session.XPathEngine` knobs and apply in every
    worker.  Queries are **concurrent**: any number of threads may call
    :meth:`evaluate` at once and their scatters interleave on the pool,
    multiplexed by query id — concurrency comes both from the shards
    fanning out across worker processes and from distinct queries
    overlapping in flight (duplicate concurrent requests are still
    coalesced by :meth:`XPathEngine.evaluate_collection` above this
    layer).  ``pruning`` (default on) lets the scatter skip shards
    whose mirrored path synopsis refutes the query's leading structural
    steps; pruned shards contribute provably-empty node-set slices and
    are counted in :class:`CollectionStats` — results are bit-identical
    with pruning on or off.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        workers: Optional[int] = None,
        index_mode: str = "auto",
        optimizer: str = "heuristic",
        options: Optional[TranslationOptions] = None,
        buffer_pages: int = DEFAULT_WORKER_BUFFER_PAGES,
        pruning: bool = True,
    ):
        if index_mode not in INDEX_MODES:
            raise ValueError(
                f"index_mode must be one of {INDEX_MODES}, "
                f"got {index_mode!r}"
            )
        if optimizer not in OPTIMIZER_MODES:
            raise ValueError(
                f"optimizer must be one of {OPTIMIZER_MODES}, "
                f"got {optimizer!r}"
            )
        self.catalog: CollectionCatalog = load_catalog(directory)
        #: The collection fingerprint: keys plan caches and request
        #: coalescing above this layer (see ``docs/collection.md``).
        self.fingerprint: str = self.catalog.fingerprint()
        self.index_mode = index_mode
        self.optimizer = optimizer
        self.options = options or TranslationOptions()
        self.pruning = bool(pruning)
        self.pool = WorkerPool(
            self.catalog,
            workers,
            index_mode=index_mode,
            buffer_pages=buffer_pages,
        )
        self._lock = threading.Lock()
        self._qids = itertools.count(1)
        self._shipped: Dict[tuple, ShippedPlan] = {}
        self._closed = False
        # -- statistics (all guarded by self._lock) --------------------
        self._queries = 0
        self._counters = {key: 0 for key in OUTCOME_KEYS}
        self._per_shard: Dict[int, Dict[str, int]] = {
            info.shard: {key: 0 for key in OUTCOME_KEYS}
            for info in self.catalog.shards
        }
        self._scatter_seconds = 0.0
        self._gather_seconds = 0.0
        self._plans_shipped = 0
        self._shipped_hits = 0

    # -- basic properties ----------------------------------------------

    @property
    def name(self) -> str:
        return self.catalog.name

    @property
    def shard_count(self) -> int:
        return self.catalog.shard_count

    @property
    def workers(self) -> int:
        return self.pool.workers

    # -- plan shipping -------------------------------------------------

    def _ship(
        self,
        query: str,
        options: TranslationOptions,
        namespaces: Optional[Mapping[str, str]],
    ) -> ShippedPlan:
        key = (
            query,
            options,
            tuple(sorted((namespaces or {}).items())),
            self.index_mode,
            self.optimizer,
        )
        with self._lock:
            shipped = self._shipped.get(key)
            if shipped is not None:
                self._shipped_hits += 1
                return shipped
        shipped = ship_plan(
            query,
            options,
            index_mode=self.index_mode,
            optimizer=self.optimizer,
        )
        with self._lock:
            if len(self._shipped) >= SHIPPED_CACHE_LIMIT:
                self._shipped.pop(next(iter(self._shipped)))
            self._shipped[key] = shipped
            self._plans_shipped += 1
        return shipped

    # -- evaluation ----------------------------------------------------

    def evaluate(
        self,
        query: str,
        *,
        variables: Optional[Mapping[str, object]] = None,
        namespaces: Optional[Mapping[str, str]] = None,
        options: Optional[TranslationOptions] = None,
        timeout: Optional[float] = None,
        max_tuples: Optional[int] = None,
        max_bytes: Optional[int] = None,
        cancel=None,
        pruning: Optional[bool] = None,
    ) -> CollectionResult:
        """Evaluate ``query`` over every shard and merge the results.

        Governance semantics: ``timeout`` is the *collection* deadline —
        every shard's worker-side governor is derived from it (queue
        wait included), and the first shard to trip it cancels the
        remaining shards' in-flight work.  ``max_tuples``/``max_bytes``
        budget each shard individually.  ``cancel`` is an optional
        :class:`~repro.engine.governor.CancelToken` observed parent-
        side between gather polls and propagated to the workers.
        ``pruning`` overrides the collection-level pruning default for
        this one query (``None`` inherits it); pruning never changes
        the result, only which shards the scatter actually ships to.

        Raises the highest-priority shard error when any shard fails
        (timeout/budget over crash over cancel) — never returns a
        partial result.
        """
        if self._closed:
            raise CollectionError("collection is closed")
        shipped = self._ship(query, options or self.options, namespaces)
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        limits = (timeout, deadline, max_tuples, max_bytes)
        started = time.perf_counter()
        qid = next(self._qids)
        prune = self.pruning if pruning is None else bool(pruning)
        pruned: List[int] = []
        tasks: Dict[int, tuple] = {}
        for info in self.catalog.shards:
            if (prune
                    and shipped.result_kind == "sequence"
                    and shipped.prune_paths is not None
                    and not shard_admits(info.synopsis,
                                         shipped.prune_paths)):
                pruned.append(info.shard)
                continue
            tasks[info.shard] = (
                "query", qid, info.shard, shipped,
                dict(variables or {}), dict(namespaces or {}), limits,
            )
        outcomes = self._run(qid, tasks, pruned, deadline, cancel)
        elapsed = time.perf_counter() - started
        return self._resolve(outcomes, elapsed)

    def _run(
        self,
        qid: int,
        tasks: Dict[int, tuple],
        pruned: List[int],
        deadline: Optional[float],
        cancel,
    ) -> Dict[int, ShardOutcome]:
        """Scatter + gather one query, concurrently, with accounting.

        Scatters are *not* serialized: the pool multiplexes any number
        of in-flight queries by qid, so this method only registers the
        flight, waits for it, and accounts the outcomes.  ``pruned``
        shards never touch the pool — the parent resolves them here to
        synthesized empty node-set outcomes, counted under their own
        key.  Every submitted shard (scattered or pruned) resolves to
        exactly one outcome key, parent-side only.
        """
        with self._lock:
            for shard in tasks:
                self._counters["submitted"] += 1
                self._per_shard[shard]["submitted"] += 1
            for shard in pruned:
                self._counters["submitted"] += 1
                self._per_shard[shard]["submitted"] += 1
            self._queries += 1
        outcomes: Dict[int, ShardOutcome] = {
            shard: ShardOutcome(
                shard, payload=("node-set", ()), pruned=True
            )
            for shard in pruned
        }
        scatter_started = time.perf_counter()
        gather_started = scatter_started
        finished = scatter_started
        if tasks:
            flight = self.pool.scatter(qid, tasks, deadline)
            gather_started = time.perf_counter()
            outcomes.update(self.pool.gather(
                flight, cancel_check=(
                    (lambda: cancel.cancelled)
                    if cancel is not None else None
                ),
            ))
            finished = time.perf_counter()
        with self._lock:
            self._scatter_seconds += gather_started - scatter_started
            self._gather_seconds += finished - gather_started
            for shard, outcome in outcomes.items():
                key = _outcome_key(outcome)
                self._counters[key] += 1
                self._per_shard[shard][key] += 1
        return outcomes

    def _resolve(
        self, outcomes: Dict[int, ShardOutcome], elapsed: float
    ) -> CollectionResult:
        errors = [
            outcome.error
            for _, outcome in sorted(outcomes.items())
            if outcome.error is not None
        ]
        if errors:
            raise _primary_error(errors)
        shards = []
        for shard, outcome in sorted(outcomes.items()):
            kind, value = outcome.payload
            if kind == "node-set":
                value = tuple(
                    NodeRecord(shard, tuple(sort_key), node_kind,
                               name, string_value)
                    for sort_key, node_kind, name, string_value in value
                )
            shards.append(
                ShardResult(
                    shard=shard, kind=kind, value=value,
                    elapsed=outcome.elapsed,
                )
            )
        return CollectionResult(shards, elapsed)

    # -- test hooks ----------------------------------------------------

    def _debug_sleep(
        self,
        seconds: Union[float, Mapping[int, float]],
        *,
        timeout: Optional[float] = None,
        timeouts: Optional[Mapping[int, float]] = None,
        cancel=None,
        shards: Optional[Sequence[int]] = None,
    ) -> CollectionResult:
        """Scatter governed sleeps instead of a query (tests only).

        ``seconds`` may be one duration for every shard or a per-shard
        mapping; ``timeouts`` optionally overrides the deadline per
        shard (a shard absent from it runs deadline-free), which is how
        the regression tests arrange for *one* shard's deadline to
        expire while its siblings are mid-flight.  ``shards`` restricts
        the scatter to a subset of shard ids (default: all), which is
        how the concurrency tests park a sleep on *one* worker while a
        real query overlaps on the others.  Exercises the full
        scatter-gather machinery — governance, cancellation, crash
        handling, accounting — with a deterministic wall-clock payload.
        """
        per_shard = (
            seconds if isinstance(seconds, Mapping)
            else {info.shard: seconds for info in self.catalog.shards}
        )
        chosen = (
            set(shards) if shards is not None
            else {info.shard for info in self.catalog.shards}
        )
        now = time.monotonic()
        deadline = now + timeout if timeout is not None else None
        qid = next(self._qids)
        tasks = {}
        for info in self.catalog.shards:
            if info.shard not in chosen:
                continue
            shard_timeout = timeout
            shard_deadline = deadline
            if timeouts is not None:
                shard_timeout = timeouts.get(info.shard)
                shard_deadline = (
                    now + shard_timeout
                    if shard_timeout is not None else None
                )
            tasks[info.shard] = (
                "sleep", qid, info.shard,
                float(per_shard.get(info.shard, 0.0)),
                (shard_timeout, shard_deadline, None, None),
            )
        started = time.perf_counter()
        outcomes = self._run(qid, tasks, [], deadline, cancel)
        return self._resolve(outcomes, time.perf_counter() - started)

    # -- statistics ----------------------------------------------------

    def stats(self) -> CollectionStats:
        with self._lock:
            return CollectionStats(
                name=self.name,
                fingerprint=self.fingerprint,
                shard_count=self.shard_count,
                workers=self.workers,
                queries=self._queries,
                submitted=self._counters["submitted"],
                completed=self._counters["completed"],
                timed_out=self._counters["timed_out"],
                cancelled=self._counters["cancelled"],
                failed=self._counters["failed"],
                shards_pruned=self._counters["pruned"],
                per_shard={
                    shard: dict(counters)
                    for shard, counters in self._per_shard.items()
                },
                scatter_seconds=self._scatter_seconds,
                gather_seconds=self._gather_seconds,
                plans_shipped=self._plans_shipped,
                shipped_cache_hits=self._shipped_hits,
                recycles=self.pool.recycles,
            )

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.pool.close()

    def __enter__(self) -> "Collection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _outcome_key(outcome: ShardOutcome) -> str:
    if outcome.pruned:
        return "pruned"
    if outcome.error is None:
        return "completed"
    if isinstance(outcome.error, QueryTimeoutError):
        return "timed_out"
    if isinstance(outcome.error, QueryCancelledError):
        return "cancelled"
    return "failed"


def _primary_error(errors: List[Exception]) -> Exception:
    """The error a failed collection query surfaces.

    Deadline/budget trips outrank crashes (the governance contract —
    a governed query raises exactly a governance error — must survive
    the cancellation fan-out a trip triggers), crashes outrank the
    secondary ``QueryCancelledError`` noise of cancelled siblings.
    """
    for cls in (QueryTimeoutError, QueryBudgetError):
        for error in errors:
            if isinstance(error, cls):
                return error
    shard_failures = [
        error for error in errors if isinstance(error, ShardFailedError)
    ]
    for failure in shard_failures:
        # The shard whose worker actually died is the root cause; the
        # "pool-recycled" siblings are collateral.
        if failure.reason != "pool-recycled":
            return failure
    if shard_failures:
        return shard_failures[0]
    for error in errors:
        if not isinstance(error, QueryCancelledError):
            return error
    return errors[0]

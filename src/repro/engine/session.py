"""Long-lived query-engine sessions (the ``XPathEngine`` object).

One-shot :func:`repro.api.evaluate` re-runs the full six-phase compiler
on every call.  An :class:`XPathEngine` amortizes that cost across a
workload the way production XPath engines do (whole-query reuse, see
*XPath Whole Query Optimization*): it owns

* a lock-striped LRU **compiled-plan cache**
  (:class:`~repro.engine.cache.StripedPlanCache`) keyed by
  ``(query, TranslationOptions, namespace signature)`` with per-shard
  hit, miss, eviction and lookup counters,
* **batch evaluation** — :meth:`XPathEngine.evaluate_many` runs a
  query sequence one query after another under one shared governor,
  and :meth:`XPathEngine.evaluate_concurrent` runs each distinct query
  of a batch once, in the calling thread, under its own governor,
* **thread confinement** — compiled plans are shared across the
  caller's threads but every thread executes its own plan *instance*
  (:attr:`~repro.compiler.pipeline.CompiledQuery.thread_physical`), so
  iterator state is never shared,
* **identical-request coalescing** — concurrent :meth:`evaluate` calls
  for the same ``(query, target)`` are collapsed into one execution
  whose result every caller shares (the singleflight pattern; safe
  because evaluation is a deterministic pure read),
* an **observability layer** — per-phase compile timings from the
  pipeline, per-operator ``next()``-call/tuple counters summed over all
  thread instances of each plan, the engine-level runtime counters, and
  the storage buffer-manager statistics when the target is page-backed.

:meth:`XPathEngine.stats` snapshots all of it as a JSON-serializable
dataclass; ``python -m repro --explain-stats`` prints the same snapshot
from the command line.  See ``docs/concurrency.md`` for the full
threading model.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import islice
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.compiler.improved import TranslationOptions
from repro.compiler.pipeline import CompiledQuery, XPathCompiler
from repro.dom.document import Document
from repro.dom.node import Node
from repro.engine.cache import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_SHARDS,
    CacheStats,
    ShardStats,
    StripedPlanCache,
)
from repro.engine.options import (
    CODEGEN_MODES,
    DEFAULT_CODEGEN,
    INDEX_MODES,
    OPTIMIZER_MODES,
    EvalOptions,
)
from repro.engine.plan import OperatorStats
from repro.errors import (
    QueryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
)
from repro.xpath.datamodel import XPathValue

#: Default result-page size of :meth:`XPathEngine.evaluate_stream`
#: (and of the network server built on it).
DEFAULT_PAGE_SIZE = 256

#: Environment variable supplying an engine-wide default timeout in
#: seconds.  CI sets it to run whole suites under a global deadline; an
#: explicit ``default_timeout``/per-call ``timeout`` wins over it.
TIMEOUT_ENV_VAR = "REPRO_DEFAULT_TIMEOUT"

#: Governance counters always present in ``stats().runtime_counters``
#: (a dashboard must be able to read them before the first abort; the
#: reconciliation invariant is timed_out + cancelled + budget_aborts +
#: completed == submitted).
GOVERNANCE_COUNTERS = (
    "queries_submitted",
    "queries_completed",
    "queries_timed_out",
    "queries_cancelled",
    "budget_aborts",
)


def _env_default_timeout() -> Optional[float]:
    raw = os.environ.get(TIMEOUT_ENV_VAR)
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None

#: Targets ``evaluate`` accepts: a node, or anything document-like.
EvalTarget = Union[Document, Node, object]

#: The request of a call that passed no :class:`EvalOptions`.
_NO_OPTIONS = EvalOptions()

#: The governance counter a scope that ends in one of these settles
#: into; any other ending — an ordinary evaluation error included —
#: *completed* its resource-governed run.
_ABORT_COUNTERS = (
    (QueryTimeoutError, "queries_timed_out"),
    (QueryCancelledError, "queries_cancelled"),
    (QueryBudgetError, "budget_aborts"),
)

#: The singleflight leader's admission yield.  Both forms release the
#: GIL for one scheduling slot; ``sched_yield`` does it in well under a
#: microsecond where ``time.sleep(0)`` takes ~65 us on Linux — per
#: *uncontended* call, so the portable form is only the fallback.
_yield_thread = getattr(os, "sched_yield", None) or (lambda: time.sleep(0))


def resolve_context_node(target: EvalTarget) -> Node:
    """The context node for an evaluation target.

    Accepts a :class:`~repro.dom.node.Node` directly, or any
    document-like object exposing ``root`` (an in-memory
    :class:`Document` or a page-backed
    :class:`~repro.storage.store.StoredDocument`) — the two must be
    interchangeable as ``evaluate`` targets.
    """
    if isinstance(target, Node):
        return target
    root = getattr(target, "root", None)
    if isinstance(root, Node):
        return root
    raise TypeError(
        f"cannot evaluate against {type(target).__name__!r}: expected a "
        "Node or a document-like object with a 'root' node"
    )


# ----------------------------------------------------------------------
# Stats dataclasses (all JSON-serializable via asdict)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BufferSnapshot:
    """Page-buffer counters of the most recent storage-backed target.

    The top-level counters describe the data-page buffer; ``by_kind``
    (when the target exposes it) breaks I/O out per page kind — data
    pages vs. the index region's pages — so the stats can attribute
    page reads saved by index routing.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    cached_pages: int = 0
    capacity: int = 0
    by_kind: Optional[Dict[str, Dict[str, int]]] = None

    def to_dict(self) -> dict:
        """A plain-dict rendering (safe for ``json.dumps``)."""
        return asdict(self)


@dataclass(frozen=True)
class EngineStats:
    """One immutable snapshot of an :class:`XPathEngine`'s counters."""

    cache: CacheStats
    #: Number of actual compiler runs (cache misses).
    compile_count: int
    #: Accumulated seconds per compiler phase across all compiles.
    compile_phase_seconds: Dict[str, float]
    #: Per-phase seconds of the most recent compile only.
    last_compile_phase_seconds: Dict[str, float]
    #: Number of plan executions through this engine.
    execution_count: int
    #: Accumulated execution wall time (excludes compile time).
    execution_seconds: float
    #: Per-operator counters of the most recently executed plan.
    operators: List[OperatorStats]
    #: Engine-level runtime counters summed over all cached plans.
    runtime_counters: Dict[str, int]
    #: Buffer-manager counters when the last target was page-backed.
    buffer: Optional[BufferSnapshot] = None
    #: Stats snapshot of the last collection served through
    #: :meth:`XPathEngine.evaluate_collection` (per-shard task
    #: counters, scatter/gather latency, worker recycles), or ``None``
    #: when this engine never served a collection.
    collection: Optional[object] = None

    def to_dict(self) -> dict:
        """A plain-dict rendering (safe for ``json.dumps``).

        Every nested snapshot renders through its own ``to_dict`` —
        the cache, buffer and collection snapshots are independently
        serializable, and composite keys (per-shard counters) come out
        as JSON-legal string keys.
        """
        data = asdict(self)
        data["cache"] = self.cache.to_dict()
        if self.collection is not None and hasattr(
            self.collection, "to_dict"
        ):
            data["collection"] = self.collection.to_dict()
        return data

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)


# ----------------------------------------------------------------------
# Identical-request coalescing (singleflight)
# ----------------------------------------------------------------------


class _InflightCall:
    """One in-flight evaluation other callers can wait on.

    ``done`` is a latch: the leader holds it from creation until the
    result (or error) is in, and a follower waits by passing through
    it — a bare lock costs a twentieth of a ``threading.Event``.
    """

    __slots__ = ("done", "result", "error")

    def __init__(self):
        self.done = threading.Lock()
        self.done.acquire()
        self.result: Optional[XPathValue] = None
        self.error: Optional[BaseException] = None


class Singleflight:
    """Collapse concurrent duplicate calls into one execution.

    The first caller for a key becomes the *leader* and computes; callers
    arriving while the call is in flight wait and share the leader's
    result (or exception).  Nothing is cached past completion, so the
    pattern is correct for any deterministic read — it only ever merges
    work that is running *right now* against the same immutable target.
    """

    __slots__ = ("_lock", "_calls")

    def __init__(self):
        self._lock = threading.Lock()
        self._calls: Dict[Hashable, _InflightCall] = {}

    def do(self, key: Hashable, supplier) -> Tuple[XPathValue, bool]:
        """Run ``supplier`` (or join a running one); returns
        ``(result, led)`` where ``led`` tells whether this caller did
        the work itself."""
        with self._lock:
            call = self._calls.get(key)
            leader = call is None
            if leader:
                call = self._calls[key] = _InflightCall()
        if not leader:
            with call.done:
                pass
            if call.error is not None:
                raise call.error
            return call.result, False
        # Admission yield: duplicates that arrived with us are runnable
        # but gated on the GIL — give them one scheduling slot to
        # register as followers before we start computing, otherwise a
        # short query can finish before they ever got the lock.
        _yield_thread()
        try:
            call.result = supplier()
        except BaseException as error:
            call.error = error
            raise
        finally:
            with self._lock:
                self._calls.pop(key, None)
            call.done.release()
        return call.result, True


# ----------------------------------------------------------------------
# Outcome accounting
# ----------------------------------------------------------------------


class _Scope:
    """The accounting of one governed run, as a ``with`` block.

    Entering counts ``queries_submitted`` (and the run's ``tags``);
    leaving counts exactly one of ``queries_completed`` /
    ``queries_timed_out`` / ``queries_cancelled`` / ``budget_aborts`` —
    so the four always sum back to ``queries_submitted`` — and records
    the execution: count, wall time, last plan, and the page-backed
    document or the collection snapshot.  "Completed" means the run
    ended without a governance abort: a query raising an ordinary
    evaluation error, or a stream closed half-way, still completed its
    resource-governed run.  The engine lock is taken twice per run,
    once on each side; counters :meth:`note`\\ d in between ride on
    the second.
    """

    __slots__ = (
        "engine", "plan", "node", "collection", "tags", "notes", "start",
    )

    def __init__(self, engine: "XPathEngine", node, collection,
                 tags: Tuple[str, ...]):
        self.engine = engine
        #: The last plan the run executed (none for a collection).
        self.plan: Optional[CompiledQuery] = None
        self.node = node
        self.collection = collection
        #: Counters that grow with ``queries_submitted``.
        self.tags = tags
        self.notes: Optional[Dict[str, int]] = None

    def note(self, counter: str, amount: int = 1) -> None:
        """Add to an engine counter when the scope is left."""
        if self.notes is None:
            self.notes = {}
        self.notes[counter] = self.notes.get(counter, 0) + amount

    def note_codegen(self, generated: Optional[bool]) -> None:
        """Account what one execution ran, as
        :meth:`CompiledQuery.backend` reports it: generated code, a
        fallback to the interpreter, or (``None``) neither."""
        if generated is not None:
            self.note("codegen_compiled" if generated else "codegen_fallbacks")

    def note_estimation(self, plan: CompiledQuery, result) -> None:
        """Track the cost optimizer's estimation error against reality.

        Only node-set results of cost-optimized plans are scored (the
        estimator predicts result *rows*); ``cost_estimate_abs_error``
        over ``cost_estimates_recorded`` is the mean absolute error.
        """
        report = plan.optimizer_report
        if (report is None or getattr(report, "mode", "heuristic") != "cost"
                or report.est_root_rows is None
                or not isinstance(result, list)):
            return
        estimated = int(round(report.est_root_rows))
        self.note("cost_estimates_recorded")
        self.note("cost_estimated_rows", estimated)
        self.note("cost_actual_rows", len(result))
        self.note("cost_estimate_abs_error", abs(estimated - len(result)))

    def __enter__(self) -> "_Scope":
        engine = self.engine
        with engine._lock:
            counters = engine._engine_counters
            counters["queries_submitted"] += 1
            for tag in self.tags:
                counters[tag] += 1
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        elapsed = time.perf_counter() - self.start
        outcome = "queries_completed"
        if exc_type is not None:
            for error_type, counter in _ABORT_COUNTERS:
                if issubclass(exc_type, error_type):
                    outcome = counter
                    break
        # ``stats()`` snapshots the buffer of the last page-backed
        # document; only StoredDocument has one.
        node = self.node
        if node is not None:
            document = getattr(node, "document", None)
            paged = (
                weakref.ref(document)
                if hasattr(document, "buffer_stats") else None
            )
        # The collection snapshot takes its locks: read it first.
        collection = self.collection
        collection_stats = (
            collection.stats() if collection is not None else None
        )
        engine = self.engine
        with engine._lock:
            counters = engine._engine_counters
            counters[outcome] += 1
            if self.notes is not None:
                counters.update(self.notes)
            engine._execution_count += 1
            engine._execution_seconds += elapsed
            if self.plan is not None:
                engine._last_plan = self.plan
            if node is not None:
                engine._last_document = paged
            if collection is not None:
                engine._last_collection_stats = collection_stats


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


class _Request(NamedTuple):
    """One evaluation as data: every public entry point builds one and
    hands it to :meth:`XPathEngine._run`.

    The ``sink`` is what the caller gets back: ``"value"`` (the
    result), ``"pages"`` (a generator of result pages) or ``"count"``
    (the number of result tuples).
    """

    query: str
    #: A node or document-like object, or a collection (``collection``).
    target: object
    sink: str
    #: The call's options after :meth:`XPathEngine._request` folded in
    #: the engine's defaults.
    eval_options: EvalOptions
    options: Optional[TranslationOptions] = None
    ordered: bool = False
    page_size: int = DEFAULT_PAGE_SIZE
    collection: bool = False


#: The counters a run's scope adds to, by (collection target, paged).
_TAGS = {
    (False, False): (),
    (False, True): ("stream_queries",),
    (True, False): ("collection_queries",),
    (True, True): ("collection_queries", "stream_queries"),
}

#: :meth:`XPathEngine._run`'s default: build the governor at run time.
_AT_RUN = object()


def _pages(items, page_size: int):
    """Cut ``items`` — a lazy iterator or a list — into lists of at
    most ``page_size``, pulling no item before its page is due.

    The first page is yielded even when empty, so every stream yields
    at least once (and a collection stream always delivers its result
    kind).
    """
    iterator = iter(items)
    page = list(islice(iterator, page_size))
    yield page
    while len(page) == page_size:
        page = list(islice(iterator, page_size))
        if not page:
            return
        yield page


# ----------------------------------------------------------------------
# The engine session
# ----------------------------------------------------------------------


class XPathEngine:
    """A long-lived XPath evaluation session with a plan cache.

    ::

        engine = XPathEngine()
        doc = parse_document("<a><b/><b/></a>")
        engine.evaluate("count(/a/b)", doc)      # compiles, caches
        engine.evaluate("count(/a/b)", doc)      # cache hit
        engine.evaluate_concurrent(["/a/b", "//b", "/a/b"], doc)
        print(engine.stats().to_json(indent=2))

    Thread safety: one engine may be shared freely across threads.  The
    plan cache is lock-striped, stat updates hold a narrow engine lock,
    and every executing thread gets a private instance of each compiled
    plan, so iterator and register state is thread-confined.  Concurrent
    ``evaluate`` calls for the same query and target are coalesced into
    a single execution unless ``coalesce=False``.
    """

    def __init__(
        self,
        options: Optional[TranslationOptions] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        cache_shards: int = DEFAULT_SHARDS,
        *,
        coalesce: bool = True,
        index: str = "auto",
        codegen: str = DEFAULT_CODEGEN,
        optimizer: str = "heuristic",
        default_timeout: Optional[float] = None,
        default_max_tuples: Optional[int] = None,
        default_max_bytes: Optional[int] = None,
    ):
        self.options = options or TranslationOptions()
        for name, value, valid in (
            ("index", index, INDEX_MODES),
            ("codegen", codegen, CODEGEN_MODES),
            ("optimizer", optimizer, OPTIMIZER_MODES),
        ):
            if value not in valid:
                raise ValueError(
                    f"{name} must be one of {valid}, got {value!r}"
                )
        #: "auto" — route name steps onto the target's structural
        #: indexes when the path synopsis says they prune; "force" —
        #: route every eligible step regardless of selectivity; "off" —
        #: never consult indexes.
        self.index_mode: str = index
        #: "auto" (the default) — interpret a plan's first execution,
        #: then emit it as Python and run the generated code when it
        #: compiles, falling back to the interpreter (counted as
        #: ``codegen_fallbacks``) when it does not; "force" — emit on
        #: first use and raise
        #: :class:`~repro.errors.CodegenError` on plans that do not
        #: compile; "off" — always interpret the iterator tree.
        self.codegen_mode: str = codegen
        #: "heuristic" — index routing behind the paper's hard-coded
        #: selectivity gates; "cost" — routing, memo placement and the
        #: EXPLAIN estimates come from the synopsis-fed cost model
        #: (:mod:`repro.compiler.cost`).  Answers never depend on it.
        self.optimizer_mode: str = optimizer
        self.cache = StripedPlanCache(cache_size, cache_shards)
        self.coalesce = coalesce
        #: Engine-wide governance defaults, applied to every evaluation
        #: that does not override them per call.  ``default_timeout``
        #: falls back to the :data:`TIMEOUT_ENV_VAR` environment
        #: variable so whole deployments (or CI jobs) can impose a
        #: global deadline without touching call sites.
        self.default_timeout = (
            default_timeout if default_timeout is not None
            else _env_default_timeout()
        )
        self.default_max_tuples = default_max_tuples
        self.default_max_bytes = default_max_bytes
        self._singleflight = Singleflight()
        self._lock = threading.Lock()  # engine-level counters only
        self._compile_count = 0
        self._phase_seconds: Counter = Counter()
        self._last_phase_seconds: Dict[str, float] = {}
        self._execution_count = 0
        self._execution_seconds = 0.0
        self._engine_counters = Counter(dict.fromkeys(GOVERNANCE_COUNTERS, 0))
        self._last_plan: Optional[CompiledQuery] = None
        #: A weak reference to the last page-backed document evaluated.
        self._last_document: Optional[weakref.ref] = None
        self._last_collection_stats = None

    # -- compilation ---------------------------------------------------

    def _target_indexes(self, target: Optional[EvalTarget]):
        """The target's fresh :class:`DocumentIndexes`, or ``None``.

        ``None`` when indexing is off, the target is not page-backed,
        or its indexes are missing/stale (the store only publishes
        ``.indexes`` after the structural fingerprint matched).
        """
        if target is None or self.index_mode == "off":
            return None
        document = target
        if isinstance(target, Node):
            document = getattr(target, "document", None)
        elif getattr(target, "root", None) is None:
            return None
        return getattr(document, "indexes", None)

    def compile(
        self,
        query: str,
        *,
        options: Optional[TranslationOptions] = None,
        namespaces: Optional[Mapping[str, str]] = None,
        target: Optional[EvalTarget] = None,
    ) -> CompiledQuery:
        """The compiled plan for ``query``, through the striped cache.

        Plans are keyed by ``(query, options, namespace signature,
        index signature)``: the same query under different translation
        options or prefix bindings is a different plan, and a plan
        routed onto one store's indexes (``target`` page-backed with
        fresh indexes, engine ``index`` mode not ``"off"``) is keyed by
        that store's structural fingerprint — so it is shared across
        targets with identical structure and never replayed against a
        structurally different one.  Only the key's shard is latched;
        compilation runs outside any lock (a racing duplicate compile is
        harmless — last writer wins, both plans are equivalent).
        """
        opts = options or self.options
        indexes = self._target_indexes(target)
        index_sig = indexes.signature if indexes is not None else None
        signature = tuple(sorted(namespaces.items())) if namespaces else ()
        key = (query, opts, signature, index_sig)
        plan = self.cache.get(key)
        if plan is not None:
            return plan
        compiled = XPathCompiler(
            opts, index_info=indexes, index_mode=self.index_mode,
            optimizer=self.optimizer_mode,
        ).compile(query)
        self.cache.put(key, compiled)
        with self._lock:
            self._compile_count += 1
            self._phase_seconds.update(compiled.phase_timings)
            self._last_phase_seconds = dict(compiled.phase_timings)
            report = compiled.optimizer_report
            if report is not None:
                counters = self._engine_counters
                counters["plans_index_routed"] += bool(report.index_scans)
                counters["rewrite_index_scans"] += report.index_scans
                counters["rewrite_index_skips"] += report.index_skips
                counters["opt_rules_fired"] += report.rules_fired
                counters["opt_rules_declined"] += report.rules_declined
                if report.mode == "cost":
                    counters["plans_cost_optimized"] += 1
        return compiled

    def explain(
        self,
        query: str,
        *,
        options: Optional[TranslationOptions] = None,
        namespaces: Optional[Mapping[str, str]] = None,
        target: Optional[EvalTarget] = None,
    ) -> str:
        """The logical plan of ``query`` as an indented tree.

        Pass ``target`` to see the plan as it would compile for that
        evaluation target (index routing included).
        """
        return self.compile(
            query, options=options, namespaces=namespaces, target=target
        ).explain()

    # -- evaluation ----------------------------------------------------

    def _request(self, eval_options: Optional[EvalOptions]) -> EvalOptions:
        """The request one call makes of this engine: its
        :class:`EvalOptions`, checked against and completed from the
        engine's configuration — the only place the two meet.

        The ``engine`` field is ignored (this engine *is* the
        strategy); a per-call ``index``/``optimizer`` must agree with
        the engine's configured mode — plans are cached per engine, so
        one call cannot re-route them.  Limits the call leaves unset
        fall back to the engine's ``default_*`` settings; a call with
        nothing to fold gets its own object back.
        """
        request = eval_options if eval_options is not None else _NO_OPTIONS
        if request.index is not None and request.index != self.index_mode:
            raise ValueError(
                f"per-call index={request.index!r} conflicts with this "
                f"engine's index mode {self.index_mode!r}; configure "
                "XPathEngine(index=...) instead"
            )
        if (request.optimizer is not None
                and request.optimizer != self.optimizer_mode):
            raise ValueError(
                f"per-call optimizer={request.optimizer!r} conflicts "
                f"with this engine's optimizer mode "
                f"{self.optimizer_mode!r}; configure "
                "XPathEngine(optimizer=...) instead"
            )
        timeout = request.timeout
        if timeout is None:
            timeout = self.default_timeout
        max_tuples = request.max_tuples
        if max_tuples is None:
            max_tuples = self.default_max_tuples
        max_bytes = request.max_bytes
        if max_bytes is None:
            max_bytes = self.default_max_bytes
        if (timeout is request.timeout and max_tuples is request.max_tuples
                and max_bytes is request.max_bytes):
            return request
        return request.replace(
            timeout=timeout, max_tuples=max_tuples, max_bytes=max_bytes
        )

    def _run(self, request: _Request, governor=_AT_RUN):
        """Run one request: the engine's one execution pipeline.

        Compile the query through the plan cache (a collection
        compiles and ships its own per-shard plans), resolve the
        context node, build the governor, then run inside one
        :class:`_Scope` (:meth:`_flow`).  ``value`` requests go through
        the singleflight; ``pages`` requests come back as a generator
        whose scope opens at the first ``next()``.

        A caller that built the governor itself — one shared by a
        batch, as :meth:`evaluate_many` does, or one per query of
        :meth:`evaluate_concurrent` — passes that ``governor``; such a
        run is its own flight and never coalesced.

        The singleflight key holds the query, the target (a node by
        ``id`` — the leader keeps it alive for the flight, so the id
        cannot be recycled mid-call — a collection by fingerprint), the
        result order, the translation options and the folded
        :class:`EvalOptions`: calls that differ in backend, namespaces,
        limits or cancel token never share a flight (a tightly-limited
        leader would fail loosely-limited followers).  Calls with
        variables are never coalesced (their values may be unhashable
        node-sets).
        """
        options = request.eval_options
        sink = request.sink
        if sink == "pages" and request.page_size < 1:
            raise ValueError(
                f"page_size must be >= 1, got {request.page_size}"
            )
        plan = node = None
        if not request.collection:
            plan = self.compile(
                request.query, options=request.options,
                namespaces=options.namespace_map(), target=request.target,
            )
            node = resolve_context_node(request.target)
        coalesce = governor is _AT_RUN
        if coalesce:
            governor = options.governor()
        if sink == "pages":
            return self._flow(request, plan, node, governor)

        def run() -> XPathValue:
            [result] = self._flow(request, plan, node, governor)
            return result

        if (not coalesce or sink != "value" or not self.coalesce
                or options.variables):
            return run()
        target = request.target.fingerprint if node is None else id(node)
        result, led = self._singleflight.do(
            (request.query, target, request.ordered,
             request.options or self.options, options),
            run,
        )
        if led:
            return result
        with self._lock:
            self._engine_counters["coalesced_requests"] += 1
        return list(result) if isinstance(result, list) else result

    def _flow(self, request: _Request, plan, node, governor):
        """The governed run of ``request`` inside its accounting scope.

        A generator for every sink: a ``pages`` request yields its
        pages and its scope lives as long as the stream; any other
        yields its one result, and draining it closes the scope.  The
        plan's backend is picked once (:meth:`CompiledQuery.backend`),
        counted, and then run as chosen.
        """
        options = request.eval_options
        sink = request.sink
        collection = request.target if request.collection else None
        tags = _TAGS[collection is not None, sink == "pages"]
        with _Scope(self, node, collection, tags) as scope:
            if collection is not None:
                result = collection.evaluate(
                    request.query, variables=options.variables,
                    namespaces=options.namespace_map(),
                    options=request.options, timeout=options.timeout,
                    max_tuples=options.max_tuples,
                    max_bytes=options.max_bytes, cancel=options.cancel,
                )
                if sink == "pages":
                    items, kind = result.merged(), result.kind
            else:
                codegen = options.codegen or self.codegen_mode
                if sink == "pages":
                    # Generated streaming is not wired yet; streams
                    # interpret.
                    codegen = "off"
                variables = options.variables
                namespaces = options.namespace_map()
                scope.plan = plan
                _, generated = plan.backend(codegen)
                mode = "force" if generated else "off"
                if sink == "count":
                    result = plan.count(
                        node, variables, namespaces, governor, mode
                    )
                elif sink == "pages":
                    result = plan.evaluate_stream(
                        node, variables, namespaces, request.ordered,
                        governor,
                    )
                else:
                    result = plan.evaluate(
                        node, variables, namespaces,
                        ordered=request.ordered, governor=governor,
                        codegen=mode,
                    )
                scope.note_codegen(generated)
                scope.note_estimation(plan, result)
                items, kind = result, None
            if sink != "pages":
                yield result
                return
            for page in _pages(items, request.page_size):
                scope.note("stream_pages")
                yield page if kind is None else (kind, page)

    def evaluate(
        self,
        query: str,
        target: EvalTarget,
        eval_options: Optional[EvalOptions] = None,
        *,
        options: Optional[TranslationOptions] = None,
        ordered: bool = False,
    ) -> XPathValue:
        """Evaluate ``query`` against ``target`` through the plan cache.

        Per-call configuration (variables, namespaces, governance
        limits, a ``codegen`` override) travels in one
        :class:`~repro.api.EvalOptions`.  ``options``
        (:class:`TranslationOptions`) and ``ordered`` stay separate
        keywords — compiler parameterization and result shape, not
        per-call evaluation state.

        ``timeout`` (seconds), ``max_tuples``, ``max_bytes`` and
        ``cancel`` bound the evaluation; unset limits fall back to the
        engine's ``default_*`` settings.  A tripped limit raises
        :class:`~repro.errors.QueryTimeoutError` /
        :class:`~repro.errors.QueryBudgetError` /
        :class:`~repro.errors.QueryCancelledError` — never a partial
        result — and leaves the plan cache untouched (the compiled plan
        stays cached and is reusable).

        When ``coalesce`` is enabled (the default) and an identical call
        — same query, options, namespaces, target node, ordering,
        backend and governance limits, no variables — is already in
        flight on another thread, this call waits for that execution
        and shares its result instead of re-evaluating (node-set
        results are shallow-copied per caller).  Coalesced followers
        share the leader's deadline, including a governance error if it
        trips.
        """
        return self._run(_Request(
            query, target, "value", self._request(eval_options), options,
            ordered,
        ))

    def evaluate_stream(
        self,
        query: str,
        target: EvalTarget,
        eval_options: Optional[EvalOptions] = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        options: Optional[TranslationOptions] = None,
        ordered: bool = False,
    ):
        """Evaluate ``query`` lazily, yielding result *pages*.

        The streaming entry point behind the network server
        (:mod:`repro.server`): result items are pulled from the
        iterator engine on demand and handed out in lists of at most
        ``page_size``, so a large node-set answer never lives in memory
        whole — only the page being built does.  Scalar results arrive
        as a single one-item page.

        Semantics relative to :meth:`evaluate`:

        * the plan cache and compile path are identical (a hot query
          streams from a cached plan),
        * governance applies identically — the governor is built when
          the stream is *created*, so the deadline covers the whole
          consumption, and a tripped limit raises the typed governance
          error out of the page iterator mid-stream,
        * streams always *interpret* the iterator tree — a generated
          plan's function yields its results one by one too, but
          streaming from it is not wired yet — so an effective
          ``codegen`` of ``"auto"`` or ``"force"`` is not an error
          here, it just does not apply,
        * streams are **not** coalesced: each consumer paces its own
          pull, so two identical streams cannot share one execution the
          way two :meth:`evaluate` calls do,
        * the returned generator is thread-confined (it drives the
          calling thread's plan instance) and must be closed before the
          same thread evaluates the same query again.

        Governance outcome accounting: the stream is *submitted* at its
        first ``next()`` and settles into exactly one of completed /
        timed-out / cancelled / budget-abort when it finishes (an
        abandoned, half-consumed stream counts as completed on close; a
        stream that is never pulled counts nothing).
        """
        return self._run(_Request(
            query, target, "pages", self._request(eval_options), options,
            ordered, page_size,
        ))

    def evaluate_many(
        self,
        queries: Sequence[str],
        target: EvalTarget,
        eval_options: Optional[EvalOptions] = None,
        *,
        options: Optional[TranslationOptions] = None,
    ) -> List[XPathValue]:
        """Evaluate a batch of queries against one target, sequentially.

        Each query is one :meth:`evaluate` of its own — compiled (or
        fetched) through the plan cache, then run and counted as one
        governed run — and results are returned in input order; the
        first error stops the batch.  The governance limits bound the
        batch *as a whole*: one governor built when the batch starts is
        shared by every query, so ``timeout`` is a deadline for all of
        it and the budgets are cumulative across the queries.
        """
        request = self._request(eval_options)
        governor = request.governor()
        return [
            self._run(_Request(query, target, "value", request, options),
                      governor)
            for query in queries
        ]

    def evaluate_concurrent(
        self,
        queries: Sequence[str],
        target: EvalTarget,
        eval_options: Optional[EvalOptions] = None,
        *,
        max_workers: Optional[int] = None,
        options: Optional[TranslationOptions] = None,
        ordered: bool = False,
        return_exceptions: bool = False,
    ) -> List[XPathValue]:
        """Evaluate each distinct query of a batch once, in the calling
        thread.

        Duplicate queries in the batch are executed once and their
        result is copied into every matching slot (same answer by
        determinism).  Results are returned in input order.  The first
        error stops the batch and propagates to the caller — unless
        ``return_exceptions=True``, which places each query's exception
        in its result slot instead and goes on, so one timed-out query
        does not discard its siblings' answers.

        Governance is *per query*: each query's governor is built when
        that query starts, so every query gets the whole ``timeout``
        and its own budgets, and a governed abort fails only its own
        slot — neither the plan cache nor the other queries are
        affected.  ``max_workers`` is accepted for compatibility and
        ignored (see ``docs/api.md``).
        """
        request = self._request(eval_options)
        outcomes: Dict[str, object] = {}
        try:
            for query in dict.fromkeys(queries):
                try:
                    outcomes[query] = self._run(_Request(
                        query, target, "value", request, options, ordered,
                    ), request.governor())
                except Exception as error:
                    if not return_exceptions:
                        raise
                    outcomes[query] = error
        finally:
            with self._lock:
                self._engine_counters["concurrent_batches"] += 1
                self._engine_counters["concurrent_executions"] += len(outcomes)
        return [
            list(outcome) if isinstance(outcome, list) else outcome
            for outcome in map(outcomes.get, queries)
        ]

    def evaluate_collection(
        self,
        query: str,
        collection,
        eval_options: Optional[EvalOptions] = None,
        *,
        options: Optional[TranslationOptions] = None,
    ):
        """Evaluate ``query`` over every shard of a ``collection``.

        ``collection`` is a :class:`repro.collection.Collection`; the
        scatter-gather itself (plan shipping, per-shard governors,
        global-document-order merge) is the collection's job — this
        method is the *session* layer above it: per-call configuration
        through :class:`~repro.api.EvalOptions`, engine governance
        defaults, outcome accounting into the engine's governance
        counters (one collection query counts as one query), and
        singleflight coalescing.

        The coalesce key includes the **collection fingerprint**, never
        an object identity: two collections holding byte-identical
        documents have distinct fingerprints (the catalog salts them),
        so identical queries against them never share a flight or a
        result — the cross-process analogue of the plan cache's
        index-signature keying.  Unlike node targets (which coalesce by
        ``id``), a fingerprint survives reopening the same collection.

        Governance: per-call limits fall back to the engine defaults;
        the resulting deadline governs the whole scatter (each shard's
        worker derives its governor from it).  A tripped limit raises
        the typed governance error; a crashed or unresponsive worker
        raises :class:`~repro.errors.ShardFailedError`.  Returns the
        merged :class:`repro.collection.CollectionResult`.

        Backend: the shard workers run the default ``codegen="auto"``
        (a per-shard plan interprets its first task and runs as
        generated Python from its second on when it lowers), so a
        per-call or engine ``codegen`` mode does not apply to a
        collection target and is ignored; the collection's own
        ``codegen_compiled`` / ``codegen_fallbacks`` counters report
        which backend ran.
        """
        return self._run(_Request(
            query, collection, "value", self._request(eval_options), options,
            collection=True,
        ))

    def evaluate_collection_stream(
        self,
        query: str,
        collection,
        eval_options: Optional[EvalOptions] = None,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        options: Optional[TranslationOptions] = None,
    ):
        """Evaluate over a collection, yielding result *pages*.

        The collection analogue of :meth:`evaluate_stream`: the serving
        front end pulls ``page_size``-bounded pages instead of the whole
        merged answer at once.  The scatter-gather itself still
        materializes per-shard slices (records must cross process
        boundaries whole), so unlike the single-document stream this
        bounds what is *in flight to the client*, not what the workers
        hold; governance, pruning and the global document-order merge
        are identical to :meth:`evaluate_collection`.  Streams are not
        coalesced, and outcome accounting mirrors
        :meth:`evaluate_stream`: submitted at the first ``next()``,
        settled into exactly one governance outcome when it finishes.

        Node-set results page over the merged records; scalar results
        page over the per-shard values in shard order.
        """
        return self._run(_Request(
            query, collection, "pages", self._request(eval_options), options,
            page_size=page_size, collection=True,
        ))

    def count(
        self,
        query: str,
        target: EvalTarget,
        eval_options: Optional[EvalOptions] = None,
        *,
        options: Optional[TranslationOptions] = None,
    ) -> int:
        """Count result tuples without materializing them."""
        return self._run(_Request(
            query, target, "count", self._request(eval_options), options,
        ))


    # -- observability -------------------------------------------------

    def stats(self) -> EngineStats:
        """A snapshot of every counter this engine maintains."""
        runtime_counters: Counter = Counter()
        for plan in self.cache.plans():
            runtime_counters.update(plan.stats)
        last_document = self._last_document
        document = last_document() if last_document is not None else None
        buffer = (
            BufferSnapshot(**document.buffer_stats())
            if document is not None else None
        )
        with self._lock:
            runtime_counters.update(self._engine_counters)
            operators = (
                self._last_plan.operator_stats() if self._last_plan else []
            )
            return EngineStats(
                cache=self.cache.stats(),
                compile_count=self._compile_count,
                compile_phase_seconds=dict(self._phase_seconds),
                last_compile_phase_seconds=dict(self._last_phase_seconds),
                execution_count=self._execution_count,
                execution_seconds=self._execution_seconds,
                operators=operators,
                runtime_counters=dict(runtime_counters),
                buffer=buffer,
                collection=self._last_collection_stats,
            )

    def reset_stats(self) -> None:
        """Zero every counter (cached plans stay cached)."""
        with self._lock:
            self._compile_count = 0
            self._phase_seconds.clear()
            self._last_phase_seconds = {}
            self._execution_count = 0
            self._execution_seconds = 0.0
            self._engine_counters = Counter(
                dict.fromkeys(GOVERNANCE_COUNTERS, 0)
            )
            self._last_document = None
            self._last_collection_stats = None
        self.cache.reset_counters()
        for plan in self.cache.plans():
            plan.reset_stats()

    def clear_cache(self) -> None:
        self.cache.clear()


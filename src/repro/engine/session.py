"""Long-lived query-engine sessions (the ``XPathEngine`` object).

One-shot :func:`repro.api.evaluate` re-runs the full six-phase compiler
on every call.  An :class:`XPathEngine` amortizes that cost across a
workload the way production XPath engines do (whole-query reuse, see
*XPath Whole Query Optimization*): it owns

* a lock-striped LRU **compiled-plan cache**
  (:class:`~repro.engine.cache.StripedPlanCache`) keyed by
  ``(query, TranslationOptions, namespace signature)`` with per-shard
  hit, miss, eviction and lookup counters,
* **batch evaluation** — :meth:`XPathEngine.evaluate_many` compiles
  each distinct query once and shares one
  :class:`~repro.engine.context.ExecutionContext` across the batch,
* **concurrent evaluation** — :meth:`XPathEngine.evaluate_concurrent`
  fans a batch out over a ``ThreadPoolExecutor``; compiled plans are
  shared across threads but every thread executes its own plan
  *instance* (:attr:`~repro.compiler.pipeline.CompiledQuery.thread_physical`),
  so iterator state is never shared,
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
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from itertools import islice
from typing import (
    Dict,
    Hashable,
    List,
    Mapping,
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
from repro.engine.context import ExecutionContext
from repro.engine.options import (
    CODEGEN_MODES,
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

#: Default thread-pool width of :meth:`XPathEngine.evaluate_concurrent`.
DEFAULT_MAX_WORKERS = 4

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

_NamespaceSig = Tuple[Tuple[str, str], ...]
_PlanKey = Tuple[str, TranslationOptions, _NamespaceSig, Optional[str]]

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


def _namespace_signature(
    namespaces: Optional[Mapping[str, str]]
) -> _NamespaceSig:
    if not namespaces:
        return ()
    return tuple(sorted(namespaces.items()))


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
        if self.buffer is not None:
            data["buffer"] = self.buffer.to_dict()
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
    """One in-flight evaluation other callers can wait on."""

    __slots__ = ("event", "result", "error")

    def __init__(self):
        self.event = threading.Event()
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
                call = _InflightCall()
                self._calls[key] = call
        if not leader:
            call.event.wait()
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
            call.event.set()
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
    the execution: count, wall time, last plan, and the buffer or
    collection snapshot.  "Completed" means the run ended without a
    governance abort: a query raising an ordinary evaluation error, or
    a stream closed half-way, still completed its resource-governed
    run.  The engine lock is taken twice per run, once on each side;
    counters :meth:`note`\\ d in between ride on the second.
    """

    __slots__ = (
        "engine", "plan", "node", "collection", "tags", "executions",
        "notes", "start",
    )

    def __init__(self, engine: "XPathEngine", plan=None, node=None,
                 collection=None, tags: Tuple[str, ...] = ()):
        self.engine = engine
        self.plan = plan
        self.node = node
        self.collection = collection
        #: Counters that grow with ``queries_submitted``.
        self.tags = tags
        #: Plan executions this run stands for (a batch is one run).
        self.executions = 1
        self.notes: Optional[Dict[str, int]] = None

    def note(self, counter: str, amount: int = 1) -> None:
        """Add to an engine counter when the scope is left."""
        if self.notes is None:
            self.notes = {}
        self.notes[counter] = self.notes.get(counter, 0) + amount

    def note_codegen(self, plan: CompiledQuery, codegen: str) -> None:
        """Account one execution's backend choice (after the call, when
        the plan's lazily-computed codegen state is settled)."""
        if codegen == "off":
            return
        if plan.codegen_state == "compiled":
            self.note("codegen_compiled")
        elif plan.codegen_state == "unsupported":
            self.note("codegen_fallbacks")

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
        # The snapshots take other objects' locks: read them first.
        buffer = _buffer_snapshot(self.node)
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
            engine._execution_count += self.executions
            engine._execution_seconds += elapsed
            if self.plan is not None:
                engine._last_plan = self.plan
            if self.node is not None:
                engine._last_buffer = buffer
            if collection is not None:
                engine._last_collection_stats = collection_stats


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
        engine.evaluate_concurrent(["/a/b", "//b"], doc, max_workers=2)
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
        max_workers: int = DEFAULT_MAX_WORKERS,
        index: str = "auto",
        codegen: str = "off",
        optimizer: str = "heuristic",
        default_timeout: Optional[float] = None,
        default_max_tuples: Optional[int] = None,
        default_max_bytes: Optional[int] = None,
    ):
        self.options = options or TranslationOptions()
        if index not in INDEX_MODES:
            raise ValueError(
                f"index must be one of {INDEX_MODES}, got {index!r}"
            )
        if codegen not in CODEGEN_MODES:
            raise ValueError(
                f"codegen must be one of {CODEGEN_MODES}, got {codegen!r}"
            )
        if optimizer not in OPTIMIZER_MODES:
            raise ValueError(
                f"optimizer must be one of {OPTIMIZER_MODES}, "
                f"got {optimizer!r}"
            )
        #: "auto" — route name steps onto the target's structural
        #: indexes when the path synopsis says they prune; "force" —
        #: route every eligible step regardless of selectivity; "off" —
        #: never consult indexes.
        self.index_mode: str = index
        #: "auto" — execute plans through the Python codegen backend
        #: when they compile, falling back to the interpreter (counted
        #: as ``codegen_fallbacks``); "force" — raise
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
        self.max_workers = max_workers
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
        self._engine_counters: Counter = Counter(
            {name: 0 for name in GOVERNANCE_COUNTERS}
        )
        self._last_plan: Optional[CompiledQuery] = None
        self._last_buffer: Optional[BufferSnapshot] = None
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
        key = (query, opts, _namespace_signature(namespaces), index_sig)
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
                self._engine_counters["plans_index_routed"] += (
                    1 if report.index_scans else 0
                )
                self._engine_counters["rewrite_index_scans"] += (
                    report.index_scans
                )
                self._engine_counters["rewrite_index_skips"] += (
                    report.index_skips
                )
                self._engine_counters["opt_rules_fired"] += (
                    report.rules_fired
                )
                self._engine_counters["opt_rules_declined"] += (
                    report.rules_declined
                )
                if report.mode == "cost":
                    self._engine_counters["plans_cost_optimized"] += 1
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
        request = self._request(eval_options)
        codegen = request.codegen or self.codegen_mode
        namespaces = request.namespace_map()
        plan = self.compile(
            query, options=options, namespaces=namespaces, target=target,
        )
        node = resolve_context_node(target)

        def run() -> XPathValue:
            return self._execute(
                plan, node, request.variables, namespaces, ordered,
                request.governor(), codegen,
            )

        key = self._coalesce_key(
            request, options, query, id(node), ordered, codegen
        )
        if key is None:
            return run()
        result, led = self._singleflight.do(key, run)
        if not led:
            with self._lock:
                self._engine_counters["coalesced_requests"] += 1
            if isinstance(result, list):
                return list(result)
        return result

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
        * streams always *interpret* the iterator tree — the generated
          Python backend materializes internally and has nothing to
          stream — so an effective ``codegen`` of ``"auto"`` or
          ``"force"`` is not an error here, it just does not apply,
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
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        request = self._request(eval_options)
        namespaces = request.namespace_map()
        plan = self.compile(
            query, options=options, namespaces=namespaces, target=target,
        )
        return self._stream_pages(
            plan, resolve_context_node(target), request.variables,
            namespaces, page_size, ordered, request.governor(),
        )

    def _stream_pages(
        self, plan, node, variables, namespaces, page_size, ordered,
        governor,
    ):
        """Generator body of :meth:`evaluate_stream`."""
        with _Scope(self, plan, node, tags=("stream_queries",)):
            items = plan.evaluate_stream(
                node, variables, namespaces,
                ordered=ordered, governor=governor,
            )
            yield from self._pages(items, page_size)

    def _pages(self, items, page_size: int):
        """Cut ``items`` — a lazy iterator or a list — into lists of at
        most ``page_size``, pulling no item before its page is due.

        The first page is yielded even when empty, so every stream
        yields at least once (and a collection stream always delivers
        its result kind).
        """
        iterator = iter(items)
        page = list(islice(iterator, page_size))
        while True:
            with self._lock:
                self._engine_counters["stream_pages"] += 1
            yield page
            if len(page) < page_size:
                return
            page = list(islice(iterator, page_size))
            if not page:
                return

    def evaluate_many(
        self,
        queries: Sequence[str],
        target: EvalTarget,
        eval_options: Optional[EvalOptions] = None,
        *,
        options: Optional[TranslationOptions] = None,
    ) -> List[XPathValue]:
        """Evaluate a batch of queries against one target, sequentially.

        Each distinct query is compiled (or fetched) once and a single
        :class:`ExecutionContext` is shared across the batch, so the
        per-call setup cost is paid once instead of ``len(queries)``
        times.  Results are returned in input order.  The governance
        limits bound the batch *as a whole* — one shared governor, so
        ``timeout`` is a deadline for all of it and the budgets are
        cumulative across the queries; accordingly the batch is *one*
        governed run in the governance counters, while
        ``execution_count`` grows by the queries that ran.
        """
        request = self._request(eval_options)
        codegen = request.codegen or self.codegen_mode
        namespaces = request.namespace_map()
        node = resolve_context_node(target)
        plans = [
            self.compile(
                query, options=options, namespaces=namespaces,
                target=target,
            )
            for query in queries
        ]
        context = ExecutionContext(
            context_node=node,
            variables=dict(request.variables or {}),
            namespaces=dict(namespaces or {}),
            governor=request.governor(),
        )
        results: List[XPathValue] = []
        with _Scope(self, node=node) as scope:
            scope.executions = 0
            for plan in plans:
                scope.plan = plan
                scope.executions += 1
                generated = (
                    plan._select_generated(codegen)
                    if codegen != "off"
                    else None
                )
                if generated is not None:
                    results.append(generated.execute(context))
                else:
                    results.append(plan.thread_physical.execute(context))
                scope.note_codegen(plan, codegen)
        return results

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
        """Evaluate a batch of queries through a thread pool.

        Compiled plans are shared between workers, but each worker
        thread executes its own plan instance with its own execution
        context, so no iterator or register state ever crosses threads.
        Duplicate queries in the batch are executed once and their
        result is copied into every matching slot (same answer by
        determinism).  Results are returned in input order; exceptions
        from any worker propagate to the caller — unless
        ``return_exceptions=True``, which places each query's exception
        in its result slot instead, so one timed-out query does not
        discard its siblings' answers.

        Governance is *per query* with admission control: each query's
        governor is built at submission time, so its ``timeout``
        deadline covers time spent queued behind other work.  A query
        that reaches a worker with its deadline already expired aborts
        before opening its iterators.  A governed abort only ever fails
        its own future — the worker thread is released back to the pool,
        and neither the plan cache nor other queries in the batch are
        affected (budgets are per query, not shared).
        """
        request = self._request(eval_options)
        codegen = request.codegen or self.codegen_mode
        namespaces = request.namespace_map()
        node = resolve_context_node(target)
        if not queries:
            return []
        distinct = list(dict.fromkeys(queries))
        plans = {
            query: self.compile(
                query, options=options, namespaces=namespaces,
                target=target,
            )
            for query in distinct
        }
        workers = max(
            1, min(max_workers or self.max_workers, len(distinct))
        )

        # Submission-time admission control: one governor per distinct
        # query, anchored *now* — queue wait counts against the deadline.
        governors = {query: request.governor() for query in distinct}

        def run_one(query: str) -> XPathValue:
            return self._execute(
                plans[query], node, request.variables, namespaces,
                ordered, governors[query], codegen,
            )

        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-xpath"
        ) as pool:
            futures = {
                query: pool.submit(run_one, query) for query in distinct
            }
            by_query = {}
            first_error: Optional[BaseException] = None
            for query, future in futures.items():
                try:
                    by_query[query] = future.result()
                except BaseException as error:
                    if not return_exceptions and first_error is None:
                        first_error = error
                    by_query[query] = error
        with self._lock:
            self._engine_counters["concurrent_batches"] += 1
            self._engine_counters["concurrent_executions"] += len(distinct)
        if first_error is not None:
            raise first_error
        return [
            list(result) if isinstance(result, list) else result
            for result in (by_query[query] for query in queries)
        ]

    @staticmethod
    def _scatter(query, collection, request, options):
        """``collection.evaluate`` under the limits of ``request``."""
        return collection.evaluate(
            query,
            variables=request.variables,
            namespaces=request.namespace_map(),
            options=options,
            timeout=request.timeout,
            max_tuples=request.max_tuples,
            max_bytes=request.max_bytes,
            cancel=request.cancel,
        )

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
        """
        request = self._request(eval_options)

        def run():
            with _Scope(
                self, collection=collection, tags=("collection_queries",)
            ):
                return self._scatter(query, collection, request, options)

        key = self._coalesce_key(
            request, options, "collection", query, collection.fingerprint
        )
        if key is None:
            return run()
        result, led = self._singleflight.do(key, run)
        if not led:
            with self._lock:
                self._engine_counters["coalesced_requests"] += 1
        return result

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
        if page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {page_size}")
        request = self._request(eval_options)
        return self._collection_stream_pages(
            query, collection, request, options, page_size
        )

    def _collection_stream_pages(
        self, query, collection, request, options, page_size,
    ):
        """Generator body of :meth:`evaluate_collection_stream`."""
        with _Scope(
            self, collection=collection,
            tags=("collection_queries", "stream_queries"),
        ):
            result = self._scatter(query, collection, request, options)
            for page in self._pages(result.merged(), page_size):
                yield result.kind, page

    def count(
        self,
        query: str,
        target: EvalTarget,
        eval_options: Optional[EvalOptions] = None,
        *,
        options: Optional[TranslationOptions] = None,
    ) -> int:
        """Count result tuples without materializing them."""
        request = self._request(eval_options)
        codegen = request.codegen or self.codegen_mode
        namespaces = request.namespace_map()
        plan = self.compile(
            query, options=options, namespaces=namespaces, target=target,
        )
        node = resolve_context_node(target)
        governor = request.governor()
        with _Scope(self, plan, node) as scope:
            result = plan.count(
                node, variables=request.variables, namespaces=namespaces,
                governor=governor, codegen=codegen,
            )
            scope.note_codegen(plan, codegen)
        return result

    # -- observability -------------------------------------------------

    def stats(self) -> EngineStats:
        """A snapshot of every counter this engine maintains."""
        runtime_counters: Counter = Counter()
        for plan in self.cache.plans():
            runtime_counters.update(plan.stats)
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
                buffer=self._last_buffer,
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
            self._engine_counters.clear()
            self._engine_counters.update(
                {name: 0 for name in GOVERNANCE_COUNTERS}
            )
            self._last_buffer = None
            self._last_collection_stats = None
        self.cache.reset_counters()
        for plan in self.cache.plans():
            plan.reset_stats()

    def clear_cache(self) -> None:
        self.cache.clear()

    # ------------------------------------------------------------------

    def _execute(
        self,
        plan: CompiledQuery,
        node: Node,
        variables: Optional[Mapping[str, XPathValue]],
        namespaces: Optional[Mapping[str, str]],
        ordered: bool,
        governor,
        codegen: str,
    ) -> XPathValue:
        """One governed plan execution inside its accounting scope."""
        with _Scope(self, plan, node) as scope:
            result = plan.evaluate(
                node, variables, namespaces, ordered=ordered,
                governor=governor, codegen=codegen,
            )
            scope.note_codegen(plan, codegen)
            scope.note_estimation(plan, result)
        return result

    def _coalesce_key(
        self,
        request: EvalOptions,
        options: Optional[TranslationOptions],
        *what: Hashable,
    ) -> Optional[Hashable]:
        """The singleflight key, or None when coalescing is off.

        ``what`` identifies the work apart from its request: the query,
        the target and the result shape.  Calls with variables are never
        coalesced (variable values may be unhashable node-sets).  A node
        target enters by ``id`` — the leader keeps the node alive for
        the duration of the flight, so the id cannot be recycled
        mid-call — with the effective ``codegen`` backend next to it (a
        forced-compiled call must not share a flight with an
        interpreted one); a collection enters by fingerprint.  The
        governance limits are part of the key: two calls with different
        deadlines or budgets must never share a flight (a
        tightly-limited leader would fail loosely-limited followers),
        and a distinct cancel token keys a distinct flight for the same
        reason.
        """
        if not self.coalesce or request.variables:
            return None
        cancel = request.cancel
        return what + (
            options or self.options,
            request.namespaces or (),
            request.timeout,
            request.max_tuples,
            request.max_bytes,
            id(cancel) if cancel is not None else None,
        )


def _buffer_snapshot(node: Node) -> Optional[BufferSnapshot]:
    """Buffer-manager counters when ``node`` is page-backed, else None."""
    document = getattr(node, "document", None)
    buffer = getattr(document, "buffer", None)
    stats = getattr(buffer, "stats", None)
    if stats is None:
        return None
    by_kind = None
    stats_fn = getattr(document, "buffer_stats", None)
    if stats_fn is not None:
        by_kind = stats_fn().get("by_kind")
    return BufferSnapshot(
        hits=stats.hits,
        misses=stats.misses,
        evictions=stats.evictions,
        cached_pages=buffer.cached_pages,
        capacity=buffer.capacity,
        by_kind=by_kind,
    )

"""The differential oracle: ten execution routes, one answer.

Every query is executed through ten independent paths:

``naive``
    the main-memory :class:`~repro.baselines.naive.NaiveInterpreter`
    (independent spec-oracle semantics, no algebra involved),
``canonical``
    the section-3 canonical algebraic translation,
``improved``
    the section-4/5 improved translation through an
    :class:`~repro.engine.session.XPathEngine` (plan cache included),
``stored``
    the improved translation over the *stored* document — page file,
    buffer manager, record decoding — via
    :class:`~repro.storage.DocumentStore` with index routing pinned
    off,
``indexed``
    the same stored document through an engine with ``index="force"``
    (interpreted): every eligible name step is rewritten onto the
    structural indexes (:mod:`repro.index`) regardless of selectivity,
    so the posting-list route is differentially checked against plain
    navigation — this is the reference leg for the iterator engine's
    adaptive index scans (:mod:`repro.engine.index_scans`),
``concurrent``
    the improved translation through
    :meth:`XPathEngine.evaluate_concurrent` (thread pool, shared plans,
    singleflight coalescing),
``compiled``
    the improved translation through an engine with ``codegen="auto"``:
    plans that the :mod:`repro.codegen` backend supports run as
    generated Python (fused loops, inlined node tests), everything else
    falls back to the interpreter — so the code generator is
    differentially checked against all interpreted routes,
``cost``
    the stored document through an engine with ``index="auto"``,
    ``optimizer="cost"`` and ``codegen="auto"`` — the composed fast
    path a serving deployment would configure: the synopsis-fed cost
    model of :mod:`repro.compiler.cost` decides index routing and memo
    placement instead of the hard-coded selectivity gates, and the
    chosen plan, index scans included, runs as generated Python — the
    cost optimizer may pick different physical plans (page and
    ``next()`` counts change) and the backend differs from every other
    stored leg, but neither may ever change answers,
``collection``
    the document split into per-subtree shards
    (:func:`repro.collection.split_document`), written as a sharded
    collection and served through the multi-process scatter-gather
    pool (:class:`repro.collection.Collection` via
    :meth:`XPathEngine.evaluate_collection`).  Sharding changes the
    data, so this route is *not* compared against the whole-document
    baseline; its reference leg (``collection_ref``) evaluates the
    very same shard stores in-process through the single-document
    stored route and merges per-shard canonical results identically —
    the multi-process pipeline (plan shipping, worker-side back-end
    compilation, cross-process result records, global document-order
    merge) must be observationally identical to in-process serving,
    shard for shard.  The workers run generated Python wherever a plan
    lowers and the reference leg interprets, so the pair also checks
    the two backends against each other.  The leg runs with synopsis
    pruning enabled and, on ungoverned runs, overlaps a second
    pruning-disabled submission from another thread — concurrent
    in-flight queries on the one pool — asserting both return
    identical canonical results (or the same typed error),
``server``
    the stored document served over loopback HTTP through the
    streaming front end (:mod:`repro.server`): each query is POSTed to
    a thread-hosted :class:`~repro.server.XPathServer` with a tiny
    page size (so every non-trivial node-set crosses the wire as
    several chunked page frames), the client reassembles the pages and
    canonicalizes them — the whole serialization round trip (NDJSON
    frames, canonical node records, typed error frames) must agree
    with the in-process baseline.  Stored node ids are preorder ranks,
    so the wire-side sort keys line up with the in-memory document's,
    and error frames carry the engine's exception type name, so
    error-outcome agreement works transparently.

Results are compared in a document-independent canonical form: node-sets
become document-order tuples of ``(sort_key, kind, name, string_value)``
(stored node ids are preorder ranks, so sort keys line up across the
in-memory and stored builds), scalars are compared by type and value
with NaN normalized.  Errors are part of the contract too: a
:class:`~repro.errors.ReproError` of the same type on every route is
agreement; a non-``ReproError`` exception anywhere is always reported
(``crash``), because no input may take the engine down with a raw
``IndexError``/``AttributeError``.
"""

from __future__ import annotations

import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api import EvalOptions
from repro.baselines.naive import NaiveInterpreter
from repro.collection import Collection, create_collection_from_document
from repro.compiler.improved import TranslationOptions
from repro.compiler.pipeline import XPathCompiler
from repro.dom.document import Document
from repro.engine.governor import ResourceGovernor
from repro.engine.session import XPathEngine
from repro.errors import ReproError
from repro.storage import DocumentStore
from repro.xpath.context import make_context
from repro.xpath.datamodel import XPathValue

#: All route names, in reporting order.  ``naive`` is the baseline.
ROUTE_NAMES: Tuple[str, ...] = (
    "naive",
    "canonical",
    "improved",
    "stored",
    "indexed",
    "concurrent",
    "compiled",
    "cost",
    "collection",
    "server",
)

#: Routes that need the document written to a page file.
_STORE_ROUTES = ("stored", "indexed", "cost", "server")

#: The loopback HTTP route, and the page size its requests pin (small,
#: so ordinary fuzz node-sets stream as several page frames).
SERVER_ROUTE = "server"
SERVER_PAGE_SIZE = 7

#: The scatter-gather route; compared against its in-process reference
#: leg (``collection_ref``), never against the whole-document baseline.
COLLECTION_ROUTE = "collection"
COLLECTION_REF_ROUTE = "collection_ref"

#: Shards the collection route splits each fuzz document into, and
#: worker processes serving them (workers < shards on purpose: one
#: process owning several shards is the harder multiplexing case).
COLLECTION_SHARDS = 3
COLLECTION_WORKERS = 2

BASELINE_ROUTE = "naive"

#: Exception type names a *governed* route may legitimately raise while
#: the ungoverned baseline succeeds: aborting on a limit is correct
#: behaviour, any other disagreement is still a divergence.
GOVERNANCE_ERROR_NAMES = frozenset(
    {"QueryTimeoutError", "QueryBudgetError", "QueryCancelledError"}
)


@dataclass(frozen=True)
class Outcome:
    """Canonical result of one route: a value, an error, or a crash."""

    kind: str  #: ``"value"`` | ``"error"`` | ``"crash"``
    payload: object  #: canonical value, or the exception type name
    detail: str = field(default="", compare=False)

    def describe(self) -> str:
        if self.kind == "value":
            return repr(self.payload)
        return f"<{self.kind}: {self.payload}: {self.detail}>"


def canonical_value(value: XPathValue) -> object:
    """Document-independent canonical form of an XPath value.

    Node-sets keep duplicates (a backend returning duplicate nodes is a
    bug) and are normalized to document order — XPath 1.0 node-sets are
    unordered, and the engines make no ordering promise unless asked
    with ``ordered=True``, so document order is the only stable
    cross-backend sequence.
    """
    if isinstance(value, list):
        return (
            "node-set",
            tuple(
                sorted(
                    (
                        tuple(node.sort_key),
                        node.kind.value,
                        node.name or "",
                        node.string_value(),
                    )
                    for node in value
                )
            ),
        )
    if isinstance(value, bool):
        return ("boolean", value)
    if isinstance(value, float):
        if value != value:
            return ("number", "NaN")
        return ("number", value)
    return ("string", value)


def outcome_of(run: Callable[[], XPathValue]) -> Outcome:
    """Run one route and fold its result/exception into an Outcome."""
    return _outcome_of_canonical(lambda: canonical_value(run()))


def _outcome_of_canonical(run: Callable[[], object]) -> Outcome:
    """Like :func:`outcome_of` for runs returning pre-canonical values
    (the collection legs canonicalize per shard themselves)."""
    try:
        return Outcome("value", run())
    except ReproError as error:
        return Outcome("error", type(error).__name__, str(error))
    except Exception as error:  # noqa: BLE001 - crashes are findings
        return Outcome("crash", type(error).__name__, str(error))


@dataclass
class Divergence:
    """One route disagreeing with its reference on one query.

    The reference is the naive baseline for every route except
    ``collection``, which is compared against its in-process
    ``collection_ref`` leg (sharding changes the data, so the
    whole-document baseline is not comparable).
    """

    query: str
    route: str
    outcome: Outcome
    baseline: Outcome
    baseline_route: str = BASELINE_ROUTE

    def describe(self) -> str:
        return (
            f"{self.route} disagrees on {self.query!r}:\n"
            f"  {self.baseline_route:>10}: {self.baseline.describe()}\n"
            f"  {self.route:>10}: {self.outcome.describe()}"
        )


class DifferentialRunner:
    """Executes queries on one document across all ten routes.

    The stored and indexed routes share one page file (indexes are
    built at write time), written once in a private temporary directory
    unless ``store_dir`` is given, and kept open for the runner's
    lifetime — use as a context manager or call :meth:`close`.  The
    stored route pins ``index="off"`` and the indexed route pins
    ``index="force"``, so the two legs exercise disjoint physical
    plans over identical pages.

    ``extra_routes`` maps extra route names to callables
    ``run(query, context_node) -> XPathValue`` evaluated against the
    in-memory document; the shrinker tests use this to inject synthetic
    divergences.

    ``governance`` (a mapping with any of ``timeout``, ``max_tuples``,
    ``max_bytes``, or an :class:`~repro.api.EvalOptions` carrying those
    limits) runs every *algebraic* route under a fresh
    :class:`~repro.engine.governor.ResourceGovernor` per query while the
    naive baseline stays ungoverned.  The comparison contract then
    becomes: a governed route must either agree with the baseline
    exactly, or abort with exactly a governance error
    (:data:`GOVERNANCE_ERROR_NAMES`) — any other exception, and any
    wrong *value*, is still a divergence.  This is the fuzzing mode that
    proves the governor never changes answers, only truncates work.
    """

    def __init__(
        self,
        document: Document,
        *,
        variables: Optional[Mapping[str, XPathValue]] = None,
        namespaces: Optional[Mapping[str, str]] = None,
        routes: Sequence[str] = ROUTE_NAMES,
        extra_routes: Optional[
            Mapping[str, Callable[[str, object], XPathValue]]
        ] = None,
        store_dir: Optional[Path] = None,
        buffer_pages: int = 64,
        governance: Optional[object] = None,
    ):
        self.document = document
        self.variables = dict(variables or {})
        self.namespaces = dict(namespaces or {})
        self.routes = tuple(routes)
        self.extra_routes = dict(extra_routes or {})
        if isinstance(governance, EvalOptions):
            if governance.cancel is not None:
                raise ValueError(
                    "cancel tokens are not supported as differential "
                    "governance; use timeout/max_tuples/max_bytes"
                )
            governance = {
                key: value
                for key, value in (
                    ("timeout", governance.timeout),
                    ("max_tuples", governance.max_tuples),
                    ("max_bytes", governance.max_bytes),
                )
                if value is not None
            }
        self.governance = dict(governance) if governance else None
        if self.governance:
            unknown = set(self.governance) - {
                "timeout", "max_tuples", "max_bytes",
            }
            if unknown:
                raise ValueError(
                    f"unknown governance key(s) {sorted(unknown)}"
                )
        self._naive = NaiveInterpreter()
        self._canonical = XPathCompiler(TranslationOptions.canonical())
        self._engine = XPathEngine(TranslationOptions.improved())
        self._stored_engine = XPathEngine(
            TranslationOptions.improved(), index="off"
        )
        self._indexed_engine = XPathEngine(
            TranslationOptions.improved(), index="force"
        )
        self._compiled_engine = XPathEngine(
            TranslationOptions.improved(), codegen="auto"
        )
        self._cost_engine = XPathEngine(
            TranslationOptions.improved(), index="auto", optimizer="cost",
            codegen="auto",
        )
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._stored = None
        self._collection: Optional[Collection] = None
        self._shard_stores: List[DocumentStore] = []
        self._server_handle = None
        self._server_client = None
        needs_store = any(route in self.routes for route in _STORE_ROUTES)
        needs_collection = COLLECTION_ROUTE in self.routes
        if (needs_store or needs_collection) and store_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fuzz-")
            store_dir = Path(self._tmp.name)
        if needs_store:
            store_path = Path(store_dir) / "fuzz.natix"
            DocumentStore.write(document, store_path)
            self._stored = DocumentStore.open(
                store_path, buffer_pages=buffer_pages
            )
        if needs_collection:
            catalog = create_collection_from_document(
                document,
                Path(store_dir) / "collection",
                shards=COLLECTION_SHARDS,
                name="fuzz",
            )
            self._collection = Collection(
                catalog.directory, workers=COLLECTION_WORKERS
            )
            # The reference leg: the *same* shard stores, evaluated
            # in-process through the single-document stored route.
            self._collection_engine = XPathEngine(
                TranslationOptions.improved(), index="off"
            )
            for info in catalog.shards:
                self._shard_stores.append(
                    DocumentStore.open(
                        catalog.shard_path(info.shard),
                        buffer_pages=buffer_pages,
                    )
                )
        if SERVER_ROUTE in self.routes:
            # Imported here so runners without the server route never
            # touch the asyncio serving machinery.
            from repro.server import (
                ServerClient,
                ServerConfig,
                start_in_thread,
            )

            assert self._stored is not None
            self._server_handle = start_in_thread(
                {"fuzz": self._stored},
                engine=XPathEngine(
                    TranslationOptions.improved(), index="off"
                ),
                config=ServerConfig(
                    port=0,
                    page_size=SERVER_PAGE_SIZE,
                    default_timeout=None,
                ),
            )
            self._server_client = ServerClient(
                self._server_handle.host,
                self._server_handle.port,
                client_id="oracle",
            )

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._server_client is not None:
            self._server_client.close()
            self._server_client = None
        if self._server_handle is not None:
            self._server_handle.stop()
            self._server_handle = None
        if self._collection is not None:
            self._collection.close()
            self._collection = None
        for stored in self._shard_stores:
            stored.close()
        self._shard_stores = []
        if self._stored is not None:
            self._stored.close()
            self._stored = None
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "DifferentialRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Single-route executions
    # ------------------------------------------------------------------

    def _engine_governance(self) -> Dict[str, object]:
        """Governance kwargs for the engine-session routes."""
        return dict(self.governance) if self.governance else {}

    def _eval_options(self) -> EvalOptions:
        """Per-call options for the engine-session routes."""
        return EvalOptions(
            variables=self.variables or None,
            namespaces=self.namespaces or None,
            **self._engine_governance(),
        )

    def _fresh_governor(self) -> Optional[ResourceGovernor]:
        """A per-query governor for the compiled (non-session) route."""
        if not self.governance:
            return None
        return ResourceGovernor(
            timeout=self.governance.get("timeout"),
            max_tuples=self.governance.get("max_tuples"),
            max_bytes=self.governance.get("max_bytes"),
        )

    def _run_naive(self, query: str) -> XPathValue:
        context = make_context(
            self.document.root, self.variables, self.namespaces
        )
        return self._naive.evaluate(query, context)

    def _run_canonical(self, query: str) -> XPathValue:
        compiled = self._canonical.compile(query)
        return compiled.evaluate(
            self.document.root, self.variables, self.namespaces,
            governor=self._fresh_governor(),
        )

    def _run_improved(self, query: str) -> XPathValue:
        return self._engine.evaluate(
            query, self.document.root, self._eval_options()
        )

    def _run_stored(self, query: str) -> XPathValue:
        assert self._stored is not None
        return self._stored_engine.evaluate(
            query, self._stored.root, self._eval_options()
        )

    def _run_indexed(self, query: str) -> XPathValue:
        assert self._stored is not None
        return self._indexed_engine.evaluate(
            query, self._stored.root, self._eval_options()
        )

    def _run_concurrent_single(self, query: str) -> XPathValue:
        return self._engine.evaluate_concurrent(
            [query],
            self.document.root,
            self._eval_options(),
            max_workers=2,
        )[0]

    def _run_compiled(self, query: str) -> XPathValue:
        return self._compiled_engine.evaluate(
            query, self.document.root, self._eval_options()
        )

    def _run_cost(self, query: str) -> XPathValue:
        assert self._stored is not None
        return self._cost_engine.evaluate(
            query, self._stored.root, self._eval_options()
        )

    def _collection_pair(self, query: str) -> Tuple[Outcome, Outcome]:
        """Outcomes of the scatter-gather leg and its reference leg.

        Both legs produce the same canonical shape — one ``(shard id,
        canonical payload)`` pair per shard — so agreement means the
        multi-process pipeline returned exactly what in-process
        evaluation of the identical shard stores returns, shard for
        shard, in global document order.

        When the run is ungoverned, the scatter-gather leg additionally
        *overlaps* a second, pruning-disabled submission of the same
        query from another thread: the two submissions are genuinely
        concurrent in-flight queries on the one pool (qid-multiplexed,
        not serialized), and the leg asserts their canonical results —
        or their typed errors — agree, so synopsis pruning and query
        multiplexing can never change an answer without the oracle
        noticing.  Governed runs skip the overlap: a tripped limit may
        legally surface on either submission, which would make their
        comparison meaningless.
        """
        assert self._collection is not None

        def run_unpruned_leg() -> tuple:
            result = self._collection.evaluate(
                query,
                variables=self.variables or None,
                namespaces=self.namespaces or None,
                pruning=False,
            )
            return result.canonical()

        def run_collection() -> tuple:
            if self.governance:
                result = self._collection_engine.evaluate_collection(
                    query, self._collection, self._eval_options()
                )
                return result.canonical()
            sibling: List[Tuple[str, object]] = []

            def run_sibling() -> None:
                try:
                    sibling.append(("value", run_unpruned_leg()))
                except Exception as error:  # noqa: BLE001 - compared
                    sibling.append(("error", error))

            thread = threading.Thread(
                target=run_sibling, name="oracle-unpruned-leg"
            )
            thread.start()
            try:
                result = self._collection_engine.evaluate_collection(
                    query, self._collection, self._eval_options()
                )
            except Exception as error:
                thread.join()
                kind, payload = sibling[0]
                if (kind != "error"
                        or type(payload) is not type(error)):
                    raise AssertionError(
                        "pruned and unpruned collection legs disagree: "
                        f"pruned raised {type(error).__name__}, "
                        f"unpruned returned {kind}"
                    ) from error
                raise
            thread.join()
            kind, payload = sibling[0]
            canonical = result.canonical()
            if kind != "value" or payload != canonical:
                raise AssertionError(
                    "pruned and unpruned collection legs disagree: "
                    f"unpruned leg {kind} does not match the pruned "
                    "scatter"
                )
            return canonical

        def run_reference() -> tuple:
            return tuple(
                (
                    shard,
                    canonical_value(
                        self._collection_engine.evaluate(
                            query, stored.root, self._eval_options()
                        )
                    ),
                )
                for shard, stored in enumerate(self._shard_stores)
            )

        return (
            _outcome_of_canonical(run_collection),
            _outcome_of_canonical(run_reference),
        )

    def _run_server_canonical(self, query: str) -> object:
        """One loopback HTTP round trip, reassembled and canonical.

        Streams with a deliberately tiny page size so node-sets cross
        the wire as several chunked page frames; the client's
        ``canonical()`` mirrors :func:`canonical_value`, so the result
        compares directly against the naive baseline.  Error frames
        re-raise the typed engine exception by its wire-carried name —
        error-outcome agreement (including governance aborts) needs no
        special handling.
        """
        assert self._server_client is not None
        request: Dict[str, object] = {
            "page_size": SERVER_PAGE_SIZE,
        }
        if self.variables:
            request["variables"] = self.variables
        if self.namespaces:
            request["namespaces"] = self.namespaces
        if self.governance:
            request.update(self.governance)
        result = self._server_client.query(query, **request)
        result.raise_for_error()
        return result.canonical()

    def _route_runner(self, route: str) -> Callable[[str], XPathValue]:
        if route in self.extra_routes:
            run = self.extra_routes[route]
            return lambda query: run(query, self.document.root)
        return {
            "naive": self._run_naive,
            "canonical": self._run_canonical,
            "improved": self._run_improved,
            "stored": self._run_stored,
            "indexed": self._run_indexed,
            "concurrent": self._run_concurrent_single,
            "compiled": self._run_compiled,
            "cost": self._run_cost,
        }[route]

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def outcomes(self, query: str) -> Dict[str, Outcome]:
        """Outcome of every configured route for one query."""
        return self._route_outcomes(query)

    def _route_outcomes(
        self, query: str, skip: Sequence[str] = ()
    ) -> Dict[str, Outcome]:
        results: Dict[str, Outcome] = {}
        for route in self.routes:
            if route in skip:
                continue
            if route == COLLECTION_ROUTE:
                (
                    results[COLLECTION_ROUTE],
                    results[COLLECTION_REF_ROUTE],
                ) = self._collection_pair(query)
                continue
            if route == SERVER_ROUTE:
                results[route] = _outcome_of_canonical(
                    lambda: self._run_server_canonical(query)
                )
                continue
            runner = self._route_runner(route)
            results[route] = outcome_of(lambda: runner(query))
        for route in self.extra_routes:
            if route not in results:
                runner = self._route_runner(route)
                results[route] = outcome_of(lambda: runner(query))
        return results

    def check(self, query: str) -> List[Divergence]:
        """Divergences (vs the baseline route) for one query."""
        return self._compare(query, self.outcomes(query))

    def check_batch(
        self, queries: Sequence[str]
    ) -> List[Divergence]:
        """Check a batch; the concurrent route runs as one real batch.

        Queries whose baseline outcome is an error are checked
        one-by-one on the concurrent route (a thread-pool batch
        propagates the first exception, losing per-query attribution).
        """
        divergences: List[Divergence] = []
        per_query = [
            self._route_outcomes(query, skip=("concurrent",))
            for query in queries
        ]

        if "concurrent" in self.routes:
            clean = [
                (slot, query)
                for slot, query in enumerate(queries)
                if per_query[slot]
                .get(BASELINE_ROUTE, Outcome("value", None))
                .kind
                == "value"
            ]
            batch_results: Dict[int, Outcome] = {}
            if clean:
                try:
                    values = self._engine.evaluate_concurrent(
                        [query for _, query in clean],
                        self.document.root,
                        self._eval_options(),
                        max_workers=4,
                    )
                except Exception:  # noqa: BLE001 - fall back per query
                    values = None
                if values is not None:
                    for (slot, _), value in zip(clean, values):
                        batch_results[slot] = Outcome(
                            "value", canonical_value(value)
                        )
            for slot, query in enumerate(queries):
                if slot in batch_results:
                    per_query[slot]["concurrent"] = batch_results[slot]
                else:
                    per_query[slot]["concurrent"] = outcome_of(
                        lambda: self._run_concurrent_single(query)
                    )

        for query, outcomes in zip(queries, per_query):
            divergences.extend(self._compare(query, outcomes))
        return divergences

    def _compare(
        self, query: str, outcomes: Mapping[str, Outcome]
    ) -> List[Divergence]:
        baseline = outcomes[BASELINE_ROUTE]
        divergences = []
        for route, outcome in outcomes.items():
            if route == BASELINE_ROUTE:
                if outcome.kind == "crash":
                    divergences.append(
                        Divergence(query, route, outcome, outcome)
                    )
                continue
            if route == COLLECTION_REF_ROUTE:
                # The reference leg exists only as the collection
                # route's comparison target — sharding changes the
                # data, so it is never compared to the whole-document
                # baseline.  A crash there is still a finding.
                if outcome.kind == "crash":
                    divergences.append(
                        Divergence(query, route, outcome, outcome, route)
                    )
                continue
            reference = baseline
            reference_route = BASELINE_ROUTE
            if route == COLLECTION_ROUTE:
                reference = outcomes[COLLECTION_REF_ROUTE]
                reference_route = COLLECTION_REF_ROUTE
            if outcome.kind == "crash":
                divergences.append(
                    Divergence(
                        query, route, outcome, reference, reference_route
                    )
                )
                continue
            if self.governance and (
                (
                    outcome.kind == "error"
                    and outcome.payload in GOVERNANCE_ERROR_NAMES
                )
                or (
                    route == COLLECTION_ROUTE
                    and reference.kind == "error"
                    and reference.payload in GOVERNANCE_ERROR_NAMES
                )
            ):
                # Under governance a limit abort is a legal outcome on
                # any governed route; the baseline is never governed.
                # The collection reference leg *is* governed, so a trip
                # on either collection leg voids the comparison.
                continue
            if outcome != reference:
                divergences.append(
                    Divergence(
                        query, route, outcome, reference, reference_route
                    )
                )
        return divergences

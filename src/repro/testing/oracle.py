"""The differential oracle: one route table, one answer.

Every query is executed through the rows of :data:`ROUTES`, and every
row must agree with its ``reference`` row.  A row names what it
evaluates against (the in-memory document, its page-file build, a
sharded collection of it, a loopback server over it, or the naive
spec interpreter), the engine configuration it evaluates with (a
:class:`~repro.compiler.improved.TranslationOptions` preset plus the
``index``/``codegen``/``optimizer`` modes of an
:class:`~repro.engine.session.XPathEngine`), and its sink (one
``evaluate`` per query, or an ``evaluate_concurrent`` batch run from
two threads at once).
Adding or deleting a backend is adding or deleting a row; see
``docs/testing.md`` for what each row exercises.

The reference of nearly every row is the ``naive`` baseline (the
main-memory :class:`~repro.baselines.naive.NaiveInterpreter`:
independent spec-oracle semantics, no algebra involved).  The
exception is ``collection``: sharding changes the data, so the
scatter-gather leg is compared against ``collection_ref``, the very
same shard stores evaluated in-process and merged identically.  The
workers run a per-shard plan's repeat tasks as generated Python
wherever it lowers (its first task interprets) and the reference
interprets, so the pair also checks the two backends against each
other.  On ungoverned runs the scatter overlaps a second,
pruning-disabled submission of the same query from another thread, and
the two must agree.

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

import contextlib
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api import EvalOptions
from repro.baselines.naive import NaiveInterpreter
from repro.collection import Collection, create_collection_from_document
from repro.compiler.improved import TranslationOptions
from repro.dom.document import Document
from repro.engine.session import XPathEngine
from repro.errors import ReproError
from repro.storage import DocumentStore
from repro.xpath.context import make_context
from repro.xpath.datamodel import XPathValue

BASELINE_ROUTE = "naive"

#: The page size the server row's requests pin (small, so ordinary fuzz
#: node-sets stream as several page frames).
SERVER_PAGE_SIZE = 7

#: Shards the collection rows split each fuzz document into, and
#: worker processes serving them (workers < shards on purpose: one
#: process owning several shards is the harder multiplexing case).
COLLECTION_SHARDS = 3
COLLECTION_WORKERS = 2

#: Exception type names a *governed* route may legitimately raise while
#: the ungoverned baseline succeeds: aborting on a limit is correct
#: behaviour, any other disagreement is still a divergence.
GOVERNANCE_ERROR_NAMES = frozenset(
    {"QueryTimeoutError", "QueryBudgetError", "QueryCancelledError"}
)

#: The governance limits a runner accepts.
_LIMITS = ("timeout", "max_tuples", "max_bytes")


@dataclass(frozen=True)
class Route:
    """One row of the route table.

    ``target`` is what the row evaluates against: ``naive`` (the spec
    interpreter on the in-memory document, never governed), ``memory``
    (an engine on the in-memory document), ``store`` (an engine on its
    page-file build), ``collection`` (an engine scattering over its
    sharded build through the worker pool), ``shards`` (an engine on
    each shard store in-process), ``server`` (loopback HTTP to a server
    over the page file, evaluating with the server's own default
    engine) or ``callable`` (``run(query, context_node)`` on the
    in-memory document).  Engine targets build
    ``XPathEngine(translation(), index=, codegen=, optimizer=)``.
    ``sink`` is ``value`` (one ``evaluate`` per query) or ``batch``
    (``evaluate_concurrent``; :meth:`DifferentialRunner.check_batch`
    runs a whole batch from two threads at once on the row's engine,
    so its cached plans execute on two threads).  ``reference`` names
    the row this one must agree with; a row without one is checked for
    crashes only.
    """

    name: str
    target: str
    translation: Callable[[], TranslationOptions] = (
        TranslationOptions.improved
    )
    index: str = "auto"
    codegen: str = "off"
    optimizer: str = "heuristic"
    sink: str = "value"
    reference: Optional[str] = BASELINE_ROUTE
    run: Optional[Callable[[str, object], XPathValue]] = None


#: The selectable rows, in reporting order.
ROUTES: Tuple[Route, ...] = (
    Route("naive", "naive", reference=None),
    Route("canonical", "memory", translation=TranslationOptions.canonical),
    Route("improved", "memory"),
    Route("stored", "store", index="off"),
    Route("indexed", "store", index="force"),
    Route("concurrent", "memory", sink="batch"),
    Route("compiled", "memory", codegen="auto"),
    Route("cost", "store", codegen="auto", optimizer="cost"),
    Route("collection", "collection", index="off",
          reference="collection_ref"),
    Route("server", "server"),
)

#: Rows that exist only as another row's reference: built whenever a
#: selected row names them, never selected on their own.
REFERENCE_ROUTES: Tuple[Route, ...] = (
    Route("collection_ref", "shards", index="off", reference=None),
)

#: All selectable route names, in reporting order.
ROUTE_NAMES: Tuple[str, ...] = tuple(route.name for route in ROUTES)

#: Targets evaluated through an engine built from the row.
_ENGINE_TARGETS = frozenset({"memory", "store", "collection", "shards"})


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
    """Like :func:`outcome_of` for runs returning canonical values."""
    try:
        return Outcome("value", run())
    except ReproError as error:
        return Outcome("error", type(error).__name__, str(error))
    except Exception as error:  # noqa: BLE001 - crashes are findings
        return Outcome("crash", type(error).__name__, str(error))


def _on_two_threads(run: Callable[[], object]) -> List[object]:
    """``run()`` on this thread and on a second one, started together;
    each call's result or ``Exception``, in that order."""
    barrier = threading.Barrier(2)
    results: List[object] = [None, None]

    def call(slot: int) -> None:
        try:
            barrier.wait()
            results[slot] = run()
        except Exception as error:  # noqa: BLE001 - returned
            results[slot] = error

    thread = threading.Thread(
        target=call, args=(1,), name="oracle-batch-leg"
    )
    thread.start()
    call(0)
    thread.join()
    return results


def _governance_abort(outcome: Outcome) -> bool:
    return outcome.kind == "error" and (
        outcome.payload in GOVERNANCE_ERROR_NAMES
    )


def _limits(governance: Optional[object]) -> Dict[str, object]:
    """The resource limits of a ``governance`` argument, validated."""
    if governance is None:
        return {}
    if isinstance(governance, EvalOptions):
        if governance.cancel is not None:
            raise ValueError(
                "cancel tokens are not supported as differential "
                "governance; use timeout/max_tuples/max_bytes"
            )
        return {
            key: getattr(governance, key)
            for key in _LIMITS
            if getattr(governance, key) is not None
        }
    unknown = set(governance) - set(_LIMITS)
    if unknown:
        raise ValueError(f"unknown governance key(s) {sorted(unknown)}")
    return dict(governance)


@dataclass
class Divergence:
    """One route disagreeing with its reference on one query."""

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
    """Executes queries on one document across the selected rows.

    ``routes`` selects rows of :data:`ROUTES` by name; the reference
    row of every selected row is built too, so the naive baseline
    always is.  Only the targets the built rows need are opened: the
    page file (shared by every ``store`` row and the server) and the
    sharded collection are written once in a private temporary
    directory unless ``store_dir`` is given, and kept open for the
    runner's lifetime — use as a context manager or call :meth:`close`.

    ``extra_routes`` maps extra route names to callables
    ``run(query, context_node) -> XPathValue`` evaluated against the
    in-memory document and compared against the baseline; the shrinker
    tests use this to inject synthetic divergences.

    ``governance`` (a mapping with any of ``timeout``, ``max_tuples``,
    ``max_bytes``, or an :class:`~repro.api.EvalOptions` carrying those
    limits) runs every *algebraic* row under those limits, with a fresh
    governor per query, while the naive baseline stays ungoverned.  The
    comparison contract then becomes: a row must either agree with its
    reference exactly, or one side must abort with exactly a governance
    error (:data:`GOVERNANCE_ERROR_NAMES`) — any other exception, and
    any wrong *value*, is still a divergence.  This is the fuzzing mode
    that proves the governor never changes answers, only truncates work.
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
        self.governance = _limits(governance) or None
        self.options = EvalOptions(
            variables=self.variables or None,
            namespaces=self.namespaces or None,
            **(self.governance or {}),
        )
        extra_routes = dict(extra_routes or {})
        table = {route.name: route for route in ROUTES + REFERENCE_ROUTES}
        table.update(
            (name, Route(name, "callable", run=run))
            for name, run in extra_routes.items()
        )
        names = list(dict.fromkeys([*routes, *extra_routes]))
        for name in names:  # grows while iterated: references join in
            reference = table[name].reference
            if reference is not None and reference not in names:
                names.append(reference)
        self.routes: Tuple[str, ...] = tuple(names)
        self._rows = {name: table[name] for name in names}
        self._naive = NaiveInterpreter()
        self._engines = {
            route.name: XPathEngine(
                route.translation(), index=route.index,
                codegen=route.codegen, optimizer=route.optimizer,
            )
            for route in self._rows.values()
            if route.target in _ENGINE_TARGETS
        }
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._stored = None
        self._collection: Optional[Collection] = None
        self._shard_stores: List[DocumentStore] = []
        self._server_handle = None
        self._server_client = None
        try:
            self._open({route.target for route in self._rows.values()},
                       store_dir, buffer_pages)
        except BaseException:
            self.close()
            raise

    def _open(self, targets, store_dir, buffer_pages) -> None:
        """Write and open exactly the targets the built rows need."""
        on_disk = targets & {"store", "server", "collection", "shards"}
        if on_disk and store_dir is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fuzz-")
            store_dir = Path(self._tmp.name)
        if targets & {"store", "server"}:
            store_path = Path(store_dir) / "fuzz.natix"
            DocumentStore.write(self.document, store_path)
            self._stored = DocumentStore.open(
                store_path, buffer_pages=buffer_pages
            )
        if targets & {"collection", "shards"}:
            catalog = create_collection_from_document(
                self.document,
                Path(store_dir) / "collection",
                shards=COLLECTION_SHARDS,
                name="fuzz",
            )
            if "collection" in targets:
                self._collection = Collection(
                    catalog.directory, workers=COLLECTION_WORKERS
                )
            if "shards" in targets:
                self._shard_stores = [
                    DocumentStore.open(
                        catalog.shard_path(info.shard),
                        buffer_pages=buffer_pages,
                    )
                    for info in catalog.shards
                ]
        if "server" in targets:
            # Imported here so runners without a server row never
            # touch the asyncio serving machinery.
            from repro.server import (
                ServerClient,
                ServerConfig,
                start_in_thread,
            )

            self._server_handle = start_in_thread(
                {"fuzz": self._stored},
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
    # Evaluation
    # ------------------------------------------------------------------

    def _root(self, route: Route):
        if route.target == "store":
            return self._stored.root
        return self.document.root

    def _answer(self, route: Route, query: str) -> object:
        """``route``'s canonical answer to ``query``; errors raise."""
        if route.target == "naive":
            context = make_context(
                self.document.root, self.variables, self.namespaces
            )
            return canonical_value(self._naive.evaluate(query, context))
        if route.target == "callable":
            return canonical_value(route.run(query, self.document.root))
        if route.target == "server":
            return self._serve(query)
        engine = self._engines[route.name]
        if route.target == "collection":
            return self._scatter(engine, query)
        if route.target == "shards":
            return tuple(
                (shard, canonical_value(
                    engine.evaluate(query, stored.root, self.options)
                ))
                for shard, stored in enumerate(self._shard_stores)
            )
        root = self._root(route)
        if route.codegen != "off":
            # "auto" emits a plan on its second execution; the row runs
            # each query once, so emit up front to test generated code.
            engine.compile(
                query, namespaces=self.options.namespace_map(), target=root,
            ).ensure_generated()
        if route.sink == "batch":
            return canonical_value(engine.evaluate_concurrent(
                [query], root, self.options,
            )[0])
        return canonical_value(engine.evaluate(query, root, self.options))

    def _scatter(self, engine: XPathEngine, query: str) -> tuple:
        """The collection's canonical answer: one ``(shard id, canonical
        payload)`` pair per shard, in global document order.

        Ungoverned, the pruned scatter overlaps a second, pruning-disabled
        submission of the same query from another thread — genuinely
        concurrent in-flight queries on the one pool (qid-multiplexed,
        not serialized) — and their canonical results, or their typed
        errors, must agree, so neither synopsis pruning nor query
        multiplexing can change an answer unnoticed.  Governed runs skip
        the overlap: a tripped limit may legally surface on either
        submission, which would make their comparison meaningless.
        Instead they submit the query once before the answer that
        counts, so that answer comes from each per-shard plan's second
        task: generated worker code, budget trips included.
        """
        if self.options.governed():
            with contextlib.suppress(ReproError):
                engine.evaluate_collection(
                    query, self._collection, self.options
                )
            return engine.evaluate_collection(
                query, self._collection, self.options
            ).canonical()
        sibling: List[Tuple[str, object]] = []

        def run_unpruned() -> None:
            try:
                sibling.append(("value", self._collection.evaluate(
                    query,
                    variables=self.variables or None,
                    namespaces=self.namespaces or None,
                    pruning=False,
                ).canonical()))
            except Exception as error:  # noqa: BLE001 - compared
                sibling.append(("error", error))

        thread = threading.Thread(
            target=run_unpruned, name="oracle-unpruned-leg"
        )
        thread.start()
        try:
            result = engine.evaluate_collection(
                query, self._collection, self.options
            )
        except Exception as error:
            thread.join()
            kind, payload = sibling[0]
            if kind != "error" or type(payload) is not type(error):
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
                f"unpruned leg {kind} does not match the pruned scatter"
            )
        return canonical

    def _serve(self, query: str) -> object:
        """One loopback HTTP round trip, reassembled and canonical.

        The client's ``canonical()`` mirrors :func:`canonical_value`,
        and error frames re-raise the typed engine exception by its
        wire-carried name, so error-outcome agreement (governance aborts
        included) needs no special handling.
        """
        request: Dict[str, object] = {"page_size": SERVER_PAGE_SIZE}
        if self.variables:
            request["variables"] = self.variables
        if self.namespaces:
            request["namespaces"] = self.namespaces
        request.update(self.governance or {})
        result = self._server_client.query(query, **request)
        result.raise_for_error()
        return result.canonical()

    def _outcome(self, route: Route, query: str) -> Outcome:
        return _outcome_of_canonical(lambda: self._answer(route, query))

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------

    def outcomes(self, query: str) -> Dict[str, Outcome]:
        """Outcome of every built row for one query."""
        return {
            name: self._outcome(route, query)
            for name, route in self._rows.items()
        }

    def batch_outcomes(
        self, queries: Sequence[str]
    ) -> List[Dict[str, Outcome]]:
        """:meth:`outcomes` of a batch; a ``batch`` row runs it as one
        ``evaluate_concurrent`` call from each of two threads at once,
        and a slot whose two answers differ is a crash.

        Queries whose reference outcome is not a value run one by one
        on a batch row (a batch propagates the first exception, losing
        per-query attribution), and so does the whole batch when
        either call raises anyway.
        """
        batched = [
            route for route in self._rows.values() if route.sink == "batch"
        ]
        per_query = [
            {
                name: self._outcome(route, query)
                for name, route in self._rows.items()
                if route.sink != "batch"
            }
            for query in queries
        ]
        for route in batched:
            clean = [
                slot for slot, outcomes in enumerate(per_query)
                if outcomes[route.reference].kind == "value"
            ]
            engine = self._engines[route.name]
            batch = [queries[slot] for slot in clean]
            root = self._root(route)
            runs = _on_two_threads(lambda: [
                canonical_value(value) for value in
                engine.evaluate_concurrent(batch, root, self.options)
            ])
            values: Dict[int, Tuple[object, ...]] = {}
            if not any(isinstance(run, Exception) for run in runs):
                values = dict(zip(clean, zip(*runs)))
            for slot, query in enumerate(queries):
                if slot not in values:
                    outcome = self._outcome(route, query)
                elif values[slot][0] != values[slot][1]:
                    outcome = Outcome(
                        "crash", "AssertionError",
                        "the two threads' batches disagree",
                    )
                else:
                    outcome = Outcome("value", values[slot][0])
                per_query[slot][route.name] = outcome
        return per_query

    def check(self, query: str) -> List[Divergence]:
        """Divergences (each row vs its reference) for one query."""
        return self.compare(query, self.outcomes(query))

    def check_batch(self, queries: Sequence[str]) -> List[Divergence]:
        """Divergences of a batch (see :meth:`batch_outcomes`)."""
        return [
            divergence
            for query, outcomes in zip(
                queries, self.batch_outcomes(queries)
            )
            for divergence in self.compare(query, outcomes)
        ]

    def compare(
        self, query: str, outcomes: Mapping[str, Outcome]
    ) -> List[Divergence]:
        """Divergences of one query's outcomes, each row against its
        own reference row; a crash anywhere is a divergence.  A row
        without a reference is its own, so only a crash can diverge."""
        divergences = []
        for name, outcome in outcomes.items():
            reference_name = self._rows[name].reference or name
            reference = outcomes[reference_name]
            governed_abort = self.options.governed() and (
                _governance_abort(outcome) or _governance_abort(reference)
            )
            if outcome.kind == "crash" or (
                outcome != reference and not governed_abort
            ):
                divergences.append(
                    Divergence(
                        query, name, outcome, reference, reference_name
                    )
                )
        return divergences

"""Sharded collections: scatter-gather serving across worker processes.

Covers the collection layer end to end: catalog round-trips, the global
document-order merge guarantee (hypothesis property: the merged result
is a permutation-free concatenation of per-shard runs), statistics
reconciliation (``submitted == completed + timed_out + cancelled +
failed + pruned`` at every quiescent point), worker-crash recovery
(SIGKILL mid query → typed :class:`~repro.errors.ShardFailedError`,
pool recycle, next query succeeds), per-shard deadline expiry
cancelling sibling shards, concurrent scatter-gather (two queries
provably overlap on the pool; a worker death fails *every* in-flight
query exactly once), synopsis-driven shard pruning (selective queries
ship to strictly fewer shards yet return canonically identical
results — hypothesis property: pruned ≡ unpruned), the workers'
generated-Python backend (every lowerable task runs compiled and is
counted; an unlowerable plan is interpreted and counted as a fallback;
deadlines and cancels abort inside generated loops), and the
collection-fingerprint isolation fix: two collections with
byte-identical documents must never share compiled plans or coalesced
results.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import EvalOptions, XPathEngine, parse_document
from repro.collection import (
    Collection,
    create_collection_from_document,
    load_catalog,
    split_document,
)
from repro.engine.governor import CancelToken
from repro.errors import (
    CollectionError,
    ExecutionError,
    QueryCancelledError,
    QueryTimeoutError,
    ShardFailedError,
    UnboundVariableError,
    XPathSyntaxError,
)
from repro.storage import DocumentStore
from repro.workloads.dblp import generate_dblp

pytestmark = pytest.mark.multiprocess

CORPUS_XML = (
    "<root kind=\"corpus\">"
    + "".join(
        f"<item n=\"{n}\"><name>item-{n:03d}</name>"
        f"<price>{(n * 7) % 90}</price>"
        f"{'<flag/>' if n % 3 == 0 else ''}</item>"
        for n in range(24)
    )
    + "</root>"
)

QUERIES = (
    "//item",
    "//name",
    "/root/item[position() mod 2 = 1]",
    "//item[@n > 10]/name",
    "//item[flag]",
    "//price[. > 40]",
    "count(//item)",
    "sum(//price)",
    "string(//name)",
    "boolean(//flag)",
    "//item/@n",
    "//*",
    "//item[price > 50 or flag]/name/text()",
)


@pytest.fixture(scope="module")
def corpus_collection(tmp_path_factory):
    directory = tmp_path_factory.mktemp("coll") / "corpus"
    document = parse_document(CORPUS_XML)
    create_collection_from_document(document, directory, shards=4)
    with Collection(directory, workers=2) as collection:
        yield collection


@pytest.fixture(scope="module")
def shard_engines(corpus_collection):
    """In-process reference: each shard store + one engine."""
    engine = XPathEngine(index="off")
    stores = [
        DocumentStore.open(
            corpus_collection.catalog.shard_path(info.shard),
            buffer_pages=32,
        )
        for info in corpus_collection.catalog.shards
    ]
    yield engine, stores
    for stored in stores:
        stored.close()


#: Quadratic in the shard size: every element scans its whole following
#: axis.  Over ``long_collection`` it runs for many seconds unbounded.
LONG_QUERY = "count(//*/following::*)"


@pytest.fixture(scope="module")
def long_collection(tmp_path_factory):
    """Two DBLP shards big enough that ``LONG_QUERY`` cannot finish
    within the governance tests' few-second bound."""
    directory = tmp_path_factory.mktemp("long") / "dblp"
    create_collection_from_document(
        generate_dblp(1000, seed=3), directory, shards=2
    )
    with Collection(directory, workers=2) as collection:
        yield collection


def _crash_collection(tmp_path, shards=4, workers=2):
    directory = tmp_path / "crash"
    create_collection_from_document(
        parse_document(CORPUS_XML), directory, shards=shards
    )
    return Collection(directory, workers=workers)


# ----------------------------------------------------------------------
# Catalog and splitting
# ----------------------------------------------------------------------


class TestCatalog:
    def test_split_preserves_every_child(self):
        document = parse_document(CORPUS_XML)
        shards = split_document(document, 4)
        assert len(shards) == 4
        names = [
            child.name
            for shard in shards
            for child in shard.root.children[0].children
        ]
        original = [
            child.name for child in document.root.children[0].children
        ]
        assert names == original

    def test_split_never_creates_empty_shards(self):
        document = parse_document("<r><a/><b/></r>")
        shards = split_document(document, 8)
        assert len(shards) == 2

    def test_catalog_round_trip(self, corpus_collection):
        catalog = load_catalog(corpus_collection.catalog.directory)
        assert catalog.shard_count == 4
        assert [info.shard for info in catalog.shards] == [0, 1, 2, 3]
        assert catalog.fingerprint() == corpus_collection.fingerprint

    def test_missing_catalog_raises(self, tmp_path):
        with pytest.raises(CollectionError):
            load_catalog(tmp_path)


# ----------------------------------------------------------------------
# Merge ordering: hypothesis property
# ----------------------------------------------------------------------


class TestMergeOrdering:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(query=st.sampled_from(QUERIES))
    def test_merged_is_global_document_order(
        self, corpus_collection, query
    ):
        """The merge is a permutation-free concatenation: sorting the
        merged records by ``(shard, sort_key)`` changes nothing, and the
        per-shard runs are exactly the shard results, in shard order."""
        result = corpus_collection.evaluate(query)
        merged = result.merged()
        if result.kind != "node-set":
            assert len(merged) == corpus_collection.shard_count
            return
        assert merged == sorted(
            merged, key=lambda r: (r.shard, r.sort_key)
        )
        # Permutation-free concatenation of the per-shard runs.
        concatenated = [
            record for shard in result.shards for record in shard.value
        ]
        assert merged == concatenated
        # No duplicate global positions.
        positions = [(r.shard, r.sort_key) for r in merged]
        assert len(positions) == len(set(positions))

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(query=st.sampled_from(QUERIES))
    def test_matches_in_process_shard_evaluation(
        self, corpus_collection, shard_engines, query
    ):
        """Scatter-gather result == in-process evaluation, shard for
        shard (the same property the differential oracle enforces).
        The workers run generated Python; the in-process reference
        engine interprets, so this also pits the two backends against
        each other on every shard."""
        engine, stores = shard_engines
        result = corpus_collection.evaluate(query)
        from repro.testing.oracle import canonical_value

        reference = tuple(
            (shard, canonical_value(engine.evaluate(query, stored.root)))
            for shard, stored in enumerate(stores)
        )
        assert result.canonical() == reference

    def test_stable_across_repeats(self, corpus_collection):
        first = corpus_collection.evaluate("//item[@n > 5]")
        second = corpus_collection.evaluate("//item[@n > 5]")
        assert first.canonical() == second.canonical()


# ----------------------------------------------------------------------
# Statistics reconciliation
# ----------------------------------------------------------------------


def _assert_reconciled(stats):
    assert stats.submitted == (
        stats.completed + stats.timed_out + stats.cancelled
        + stats.failed + stats.shards_pruned
    )
    for key, attr in (
        ("submitted", "submitted"), ("completed", "completed"),
        ("timed_out", "timed_out"), ("cancelled", "cancelled"),
        ("failed", "failed"), ("pruned", "shards_pruned"),
    ):
        assert getattr(stats, attr) == sum(
            counters[key] for counters in stats.per_shard.values()
        )


class TestStatistics:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(queries=st.lists(st.sampled_from(QUERIES), max_size=4))
    def test_counters_reconcile_at_quiescence(
        self, corpus_collection, queries
    ):
        for query in queries:
            corpus_collection.evaluate(query)
        _assert_reconciled(corpus_collection.stats())

    def test_counters_reconcile_after_governance(self, tmp_path):
        with _crash_collection(tmp_path) as collection:
            collection.evaluate("//item")
            with pytest.raises(QueryTimeoutError):
                collection._debug_sleep(30.0, timeout=0.2)
            stats = collection.stats()
            _assert_reconciled(stats)
            assert stats.queries == 2
            assert stats.submitted == 8
            assert stats.timed_out >= 1

    def test_shipped_plan_cache(self, corpus_collection):
        before = corpus_collection.stats()
        corpus_collection.evaluate("//item/name")
        corpus_collection.evaluate("//item/name")
        after = corpus_collection.stats()
        assert after.plans_shipped == before.plans_shipped + 1
        assert after.shipped_cache_hits >= before.shipped_cache_hits + 1


# ----------------------------------------------------------------------
# Governance: deadlines, cancellation, budgets
# ----------------------------------------------------------------------


class TestGovernance:
    def test_one_shard_deadline_cancels_siblings(self, tmp_path):
        """One shard's deadline expiring must cancel the remaining
        shards' in-flight work — the query ends when the trip
        propagates, not after every sibling's full sleep."""
        with _crash_collection(tmp_path) as collection:
            started = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                collection._debug_sleep(30.0, timeouts={0: 0.3})
            elapsed = time.monotonic() - started
            assert elapsed < 10.0
            stats = collection.stats()
            _assert_reconciled(stats)
            assert stats.timed_out == 1
            assert stats.cancelled == 3

    def test_cancel_token_aborts_collection_query(self, tmp_path):
        with _crash_collection(tmp_path) as collection:
            token = CancelToken()
            timer = threading.Timer(0.3, token.cancel)
            timer.start()
            try:
                started = time.monotonic()
                with pytest.raises(Exception) as excinfo:
                    collection._debug_sleep(30.0, cancel=token)
                assert time.monotonic() - started < 10.0
                assert "Cancelled" in type(excinfo.value).__name__
            finally:
                timer.cancel()
            _assert_reconciled(collection.stats())

    def test_per_shard_tuple_budget(self, corpus_collection):
        """The budget trips inside generated worker code: the plan
        settles its tuple count with the governor as it finishes."""
        from repro.errors import QueryBudgetError

        with pytest.raises(QueryBudgetError):
            corpus_collection.evaluate("//*//*", max_tuples=3)
        _assert_reconciled(corpus_collection.stats())

    def test_deadline_aborts_generated_worker_code(self, long_collection):
        """A real quadratic query (not a test sleep) stops at the
        collection deadline: the workers' generated loops flush to the
        governor every 256 events, well before the parent's
        unresponsive-worker failsafe would fire."""
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            long_collection.evaluate(LONG_QUERY, timeout=0.5)
        assert time.monotonic() - started < 5.0
        _assert_reconciled(long_collection.stats())
        assert sum(long_collection.evaluate("count(/dblp)").merged()) == 2

    def test_cancel_token_aborts_generated_worker_code(
        self, long_collection
    ):
        token = CancelToken()
        timer = threading.Timer(0.5, token.cancel)
        timer.start()
        try:
            started = time.monotonic()
            with pytest.raises(QueryCancelledError):
                long_collection.evaluate(LONG_QUERY, cancel=token)
            assert time.monotonic() - started < 5.0
        finally:
            timer.cancel()
        _assert_reconciled(long_collection.stats())
        assert sum(long_collection.evaluate("count(/dblp)").merged()) == 2


# ----------------------------------------------------------------------
# Backend: shard workers run generated Python
# ----------------------------------------------------------------------

#: The ledger's ``collection_scatter`` queries.
SCATTER_QUERIES = (
    "count(//author)",
    "/dblp/*/title",
    "/dblp/article[year = '1991']/title",
    "//needle",
)


@pytest.fixture(scope="module")
def dblp_collection(tmp_path_factory):
    """Four small DBLP shards; only shard 2 holds a ``<needle>``."""
    from repro.collection import create_collection
    from repro.dom.serializer import serialize

    documents = split_document(generate_dblp(120, seed=0), 4)
    xml = serialize(documents[2])
    cut = xml.rindex("</dblp>")
    documents[2] = parse_document(
        xml[:cut] + '<needle id="n2"><v>hit</v></needle>' + xml[cut:]
    )
    directory = tmp_path_factory.mktemp("dblp") / "dblp"
    create_collection(directory, documents)
    with Collection(directory, workers=2) as collection:
        yield collection


def _patch_unlowerable(monkeypatch):
    """Make the worker's back end graft a Γ the emitter cannot lower
    onto every plan (as ``test_codegen.TestFallback`` does).  Emission
    is lazy, so the already built iterator tree still evaluates the
    original query."""
    from repro.algebra import operators as ops
    from repro.collection import worker

    compile_shipped = worker.compile_shipped

    def grafted(shipped, index_info=None):
        compiled = compile_shipped(shipped, index_info=index_info)
        translation = compiled.translation
        translation.plan = ops.BinaryGroup(
            translation.plan, ops.SingletonScan(), "g",
            translation.result_attr, "=", translation.result_attr,
            "count",
        )
        return compiled

    monkeypatch.setattr(worker, "compile_shipped", grafted)


class TestGeneratedBackend:
    def test_scatter_queries_run_generated(self, dblp_collection):
        """A per-shard plan's first task interprets and counts neither
        way; from the second on every scattered task of the ledger's
        queries runs as generated Python.  Pruned shards count neither
        way."""
        engine = XPathEngine()
        for query in SCATTER_QUERIES:
            for run_generated in (False, True):
                before = dblp_collection.stats()
                engine.evaluate_collection(query, dblp_collection)
                after = dblp_collection.stats()
                scattered = (
                    after.submitted - before.submitted
                    - (after.shards_pruned - before.shards_pruned)
                )
                assert scattered == (1 if query == "//needle" else 4)
                assert (after.codegen_compiled - before.codegen_compiled
                        == (scattered if run_generated else 0)), query
                assert after.codegen_fallbacks == before.codegen_fallbacks
        payload = engine.stats().to_dict()["collection"]
        assert payload["codegen_compiled"] == after.codegen_compiled
        assert payload["codegen_fallbacks"] == 0
        _assert_reconciled(after)

    def test_unlowerable_plan_is_interpreted_in_the_worker(
        self, dblp_collection, monkeypatch
    ):
        from repro.collection import ship_plan, worker
        from repro.testing.oracle import canonical_value

        _patch_unlowerable(monkeypatch)
        query = "/dblp/*/title"
        shipped = ship_plan(query)
        plan_cache: dict = {}
        with DocumentStore.open(
            dblp_collection.catalog.shard_path(0), buffer_pages=32
        ) as stored:
            reference = canonical_value(
                XPathEngine(index="off").evaluate(query, stored.root)
            )
            # A plan-cache miss interprets without trying emission; the
            # hits try it, fail, and report a fallback.
            for expected in (None, False, False):
                payload, generated = worker._run_query(
                    stored, 0, "auto", plan_cache, shipped, None, None,
                    (None, None, None, None), [-1], 1,
                )
                assert payload == reference
                assert generated is expected
        (compiled,) = plan_cache.values()
        assert compiled.codegen_state == "unsupported"
        assert "BinaryGroup" in compiled.codegen_detail

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers inherit the patched back end only when forked",
    )
    def test_fallbacks_are_counted_per_shard_task(
        self, tmp_path, monkeypatch
    ):
        _patch_unlowerable(monkeypatch)
        directory = tmp_path / "fallback"
        create_collection_from_document(
            parse_document(CORPUS_XML), directory, shards=2
        )
        with Collection(directory, workers=1) as collection:
            first = collection.evaluate("//name")
            interpreted = collection.stats()
            result = collection.evaluate("//name")
            stats = collection.stats()
        assert first.merged() == result.merged()
        assert len(result.merged()) == 24
        # Each shard's first task interprets without trying emission.
        assert interpreted.codegen_fallbacks == 0
        assert stats.codegen_fallbacks == 2
        assert stats.codegen_compiled == 0


# ----------------------------------------------------------------------
# Concurrent scatter-gather: the qid-multiplexed pool
# ----------------------------------------------------------------------


class TestConcurrentQueries:
    def test_two_queries_overlap_on_the_pool(self, tmp_path):
        """While query A is parked mid-shard on worker 0, query B
        scatters *and completes* on worker 1 — impossible under the
        old serialized scatter, which held a pool-wide lock across A's
        entire gather."""
        with _crash_collection(tmp_path) as collection:
            # 4 shards, 2 workers: worker 0 serves shards {0, 2},
            # worker 1 serves shards {1, 3}.
            blocker_done = threading.Event()

            def blocker():
                try:
                    collection._debug_sleep(2.0, shards=[0])
                finally:
                    blocker_done.set()

            thread = threading.Thread(target=blocker)
            thread.start()
            try:
                time.sleep(0.3)  # let A land on worker 0
                started = time.monotonic()
                result = collection._debug_sleep(0.0, shards=[1, 3])
                elapsed = time.monotonic() - started
                # B resolved while A was still mid-sleep on worker 0.
                assert not blocker_done.is_set()
                assert elapsed < 1.5
                assert sorted(s.shard for s in result.shards) == [1, 3]
            finally:
                thread.join()
            stats = collection.stats()
            _assert_reconciled(stats)
            assert stats.queries == 2

    def test_concurrent_real_queries_are_isolated(
        self, corpus_collection
    ):
        """Overlapping *real* queries each get their own answer — no
        cross-talk between multiplexed flights."""
        barrier = threading.Barrier(3)
        results = {}
        errors = []

        def run(name, query):
            barrier.wait()
            try:
                results[name] = sum(
                    corpus_collection.evaluate(query).merged()
                )
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=("items", "count(//item)")),
            threading.Thread(target=run, args=("flags", "count(//flag)")),
            threading.Thread(target=run, args=("names", "count(//name)")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert results == {"items": 24.0, "flags": 8.0, "names": 24.0}
        _assert_reconciled(corpus_collection.stats())

    def test_worker_death_fails_every_inflight_query_once(
        self, tmp_path
    ):
        """A worker dying with several queries in flight fails *all* of
        them, each exactly once: shards on the dead worker as
        ``worker-died``, everything else as ``pool-recycled``
        collateral — and one recycle restores service."""
        with _crash_collection(tmp_path) as collection:
            victim = collection.pool.worker_pids()[0]
            outcomes = {}

            def run(name, shard_ids):
                try:
                    collection._debug_sleep(
                        30.0, timeout=60.0, shards=shard_ids
                    )
                    outcomes[name] = None
                except ShardFailedError as error:
                    outcomes[name] = error

            threads = [
                threading.Thread(target=run, args=("a", [0, 2])),
                threading.Thread(target=run, args=("b", [1, 3])),
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # both flights in the air
            os.kill(victim, signal.SIGKILL)
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert isinstance(outcomes["a"], ShardFailedError)
            assert isinstance(outcomes["b"], ShardFailedError)
            assert outcomes["a"].reason == "worker-died"
            assert outcomes["b"].reason == "pool-recycled"
            stats = collection.stats()
            assert stats.recycles == 1
            _assert_reconciled(stats)
            result = collection.evaluate("count(//item)")
            assert sum(result.merged()) == 24.0
            _assert_reconciled(collection.stats())


# ----------------------------------------------------------------------
# Synopsis-driven shard pruning
# ----------------------------------------------------------------------

#: Queries whose pruned and unpruned evaluations must agree exactly.
#: Mixes selective paths, absent paths, wildcards, attributes,
#: predicates, scalars, reverse axes and node-type tests (whose text
#: leaves the synopsis does not record) over the skewed corpus below.
PRUNE_QUERIES = (
    "//needle",
    "//needle/inner",
    "/doc/needle",
    "//needle/@id",
    "//common",
    "//leaf",
    "/doc/common/leaf",
    "//nosuch",
    "/doc/absent/child",
    "//*",
    "//common[needle]",
    "//needle/../common",
    "/doc/needle/inner/text()",
    "count(//needle)",
    "string(//needle)",
    "//needle | //leaf",
    "//leaf/parent::needle",
    "//leaf/../needle",
    "/doc/common/leaf/node()",
    "//needle/following::leaf",
)


@pytest.fixture(scope="module")
def skewed_collection(tmp_path_factory):
    """8 shards; only shards 2 and 5 contain ``<needle>`` subtrees."""
    from repro.collection import create_collection

    directory = tmp_path_factory.mktemp("prune") / "skewed"
    documents = []
    for n in range(8):
        body = f'<common n="{n}"><leaf>v{n}</leaf></common>'
        if n in (2, 5):
            body += f'<needle id="n{n}"><inner>x{n}</inner></needle>'
        documents.append(parse_document(f"<doc>{body}</doc>"))
    create_collection(directory, documents)
    with Collection(directory, workers=2) as collection:
        yield collection


def _pruned_delta(collection, query, **kwargs):
    """Evaluate and return (result, shards pruned by this query)."""
    before = collection.stats().shards_pruned
    result = collection.evaluate(query, **kwargs)
    return result, collection.stats().shards_pruned - before


class TestPruning:
    def test_selective_query_ships_to_fewer_shards(
        self, skewed_collection
    ):
        """The ISSUE's acceptance shape: a leading-step-selective query
        over a skewed corpus ships to strictly fewer shards than the
        shard count while returning canonically identical results to
        the unpruned run."""
        pruned_result, pruned = _pruned_delta(
            skewed_collection, "//needle"
        )
        assert pruned == 6  # only shards 2 and 5 admit //needle
        unpruned = skewed_collection.evaluate("//needle", pruning=False)
        assert pruned_result.canonical() == unpruned.canonical()
        assert len(pruned_result.merged()) == 2
        assert sorted(
            record.shard for record in pruned_result.merged()
        ) == [2, 5]
        _assert_reconciled(skewed_collection.stats())

    def test_all_shards_pruned_skips_the_pool_entirely(
        self, skewed_collection
    ):
        before = skewed_collection.stats()
        result, pruned = _pruned_delta(skewed_collection, "//nosuch")
        assert pruned == skewed_collection.shard_count
        assert result.merged() == []
        after = skewed_collection.stats()
        # Nothing was scattered: no shard completed (or failed).
        assert after.completed == before.completed
        assert after.failed == before.failed
        _assert_reconciled(after)

    def test_scalar_queries_are_never_pruned(self, skewed_collection):
        """Only ``sequence``-kind plans are prunable: an aggregate
        needs every shard's contribution (``count`` of an absent path
        is 0 per shard, not an omitted shard)."""
        result, pruned = _pruned_delta(
            skewed_collection, "count(//needle)"
        )
        assert pruned == 0
        assert sum(result.merged()) == 2.0

    @pytest.mark.parametrize(
        "query", ["//leaf/parent::needle", "//leaf/../needle"]
    )
    def test_reverse_axis_steps_prune(self, skewed_collection, query):
        """No shard has a ``leaf`` below a ``needle``: the walk goes
        past the reverse step and refutes every shard."""
        result, pruned = _pruned_delta(skewed_collection, query)
        assert pruned == skewed_collection.shard_count
        assert result.merged() == []

    def test_text_leaves_are_never_refuted(self, skewed_collection):
        """``node()`` reaches text children, which have no synopsis
        entry: every shard ships and answers its text node."""
        result, pruned = _pruned_delta(
            skewed_collection, "/doc/common/leaf/node()"
        )
        assert pruned == 0
        assert len(result.merged()) == skewed_collection.shard_count

    @pytest.mark.parametrize(
        "query,variables,error",
        [
            ("//common[$missing]/needle", None, UnboundVariableError),
            ("//common[$v/x]/needle", {"v": 1.0}, ExecutionError),
        ],
    )
    def test_variable_errors_survive_pruning(
        self, skewed_collection, query, variables, error
    ):
        """The predicate runs on shards that have ``common``, so the
        unpruned query raises; a plan reading a variable is therefore
        never refuted, and the pruned query raises the same way."""
        for pruning in (True, False):
            with pytest.raises(error):
                skewed_collection.evaluate(
                    query, variables=variables, pruning=pruning
                )
        _assert_reconciled(skewed_collection.stats())

    def test_pruning_disabled_ships_everywhere(self, skewed_collection):
        _, pruned = _pruned_delta(
            skewed_collection, "//needle", pruning=False
        )
        assert pruned == 0

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(query=st.sampled_from(PRUNE_QUERIES))
    def test_pruned_equals_unpruned(self, skewed_collection, query):
        """The hypothesis property the differential oracle also
        enforces: pruning never changes a result, only which shards
        the scatter ships to."""
        pruned = skewed_collection.evaluate(query, pruning=True)
        unpruned = skewed_collection.evaluate(query, pruning=False)
        assert pruned.canonical() == unpruned.canonical()
        _assert_reconciled(skewed_collection.stats())

    def test_catalog_mirrors_the_synopsis_frontier(
        self, skewed_collection
    ):
        catalog = load_catalog(skewed_collection.catalog.directory)
        assert all(
            info.synopsis is not None for info in catalog.shards
        )
        # The mirror is identity-neutral: fingerprints unchanged.
        assert catalog.fingerprint() == skewed_collection.fingerprint

    def test_legacy_catalog_backfills_synopsis_from_stores(
        self, tmp_path
    ):
        """A collection.json written before the synopsis mirror (no
        ``synopsis`` rows) gains one on open, lifted from each shard
        store's own path synopsis — old collections prune too."""
        import json as json_module

        directory = tmp_path / "legacy"
        create_collection_from_document(
            parse_document(CORPUS_XML), directory, shards=3
        )
        catalog_path = directory / "collection.json"
        payload = json_module.loads(catalog_path.read_text())
        for row in payload["shards"]:
            row.pop("synopsis", None)
        catalog_path.write_text(json_module.dumps(payload))
        catalog = load_catalog(directory)
        assert all(
            info.synopsis is not None for info in catalog.shards
        )


# ----------------------------------------------------------------------
# Worker-crash robustness
# ----------------------------------------------------------------------


class TestCrashRobustness:
    def test_sigkill_mid_query_recycles_and_recovers(self, tmp_path):
        with _crash_collection(tmp_path) as collection:
            victim = collection.pool.worker_pids()[0]

            def kill():
                time.sleep(0.3)
                os.kill(victim, signal.SIGKILL)

            killer = threading.Thread(target=kill)
            killer.start()
            started = time.monotonic()
            with pytest.raises(ShardFailedError) as excinfo:
                collection._debug_sleep(30.0, timeout=60.0)
            killer.join()
            # Typed error, promptly — not a hang until the deadline.
            assert time.monotonic() - started < 10.0
            assert excinfo.value.reason == "worker-died"
            stats = collection.stats()
            assert stats.recycles == 1
            _assert_reconciled(stats)
            # The recycled pool serves subsequent queries.
            assert set(collection.pool.worker_pids()).isdisjoint({victim})
            result = collection.evaluate("count(//item)")
            assert sum(result.merged()) == 24.0
            _assert_reconciled(collection.stats())

    def test_typed_errors_cross_the_process_boundary(
        self, corpus_collection
    ):
        with pytest.raises(XPathSyntaxError):
            corpus_collection.evaluate("//item[")
        with pytest.raises(UnboundVariableError):
            corpus_collection.evaluate("//item[@n = $missing]")
        _assert_reconciled(corpus_collection.stats())


# ----------------------------------------------------------------------
# Fingerprint isolation (the evaluate-cache fix)
# ----------------------------------------------------------------------


class TestFingerprintIsolation:
    def test_identical_content_distinct_fingerprints(self, tmp_path):
        document = parse_document(CORPUS_XML)
        create_collection_from_document(document, tmp_path / "a", shards=3)
        create_collection_from_document(document, tmp_path / "b", shards=3)
        catalog_a = load_catalog(tmp_path / "a")
        catalog_b = load_catalog(tmp_path / "b")
        # Byte-identical shards...
        assert [i.fingerprint for i in catalog_a.shards] == [
            i.fingerprint for i in catalog_b.shards
        ]
        # ...but distinct collection identities: plan caches and
        # singleflight coalescing key on the collection fingerprint.
        assert catalog_a.fingerprint() != catalog_b.fingerprint()

    def test_engine_never_shares_results_across_collections(
        self, tmp_path
    ):
        """Concurrent identical queries against two *different*
        collections must not coalesce into one flight: each caller gets
        its own collection's answer."""
        create_collection_from_document(
            parse_document("<r><x>1</x><x>2</x></r>"),
            tmp_path / "small", shards=2,
        )
        create_collection_from_document(
            parse_document("<r>" + "<x>9</x>" * 10 + "</r>"),
            tmp_path / "big", shards=2,
        )
        engine = XPathEngine(coalesce=True)
        with Collection(tmp_path / "small", workers=1) as small, \
                Collection(tmp_path / "big", workers=1) as big:
            barrier = threading.Barrier(2)
            results = {}

            def run(name, collection):
                barrier.wait()
                result = engine.evaluate_collection(
                    "count(//x)", collection
                )
                results[name] = sum(result.merged())

            threads = [
                threading.Thread(target=run, args=("small", small)),
                threading.Thread(target=run, args=("big", big)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results == {"small": 2.0, "big": 10.0}

    def test_same_collection_coalesces(self, corpus_collection):
        """Sanity check the other direction: identical concurrent
        queries on the *same* collection may share one flight."""
        engine = XPathEngine(coalesce=True)
        barrier = threading.Barrier(4)
        values = []
        lock = threading.Lock()

        def run():
            barrier.wait()
            result = engine.evaluate_collection(
                "count(//item)", corpus_collection
            )
            with lock:
                values.append(sum(result.merged()))

        threads = [threading.Thread(target=run) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert values == [24.0] * 4
        counters = engine.stats().runtime_counters
        assert counters.get("collection_queries", 0) >= 1


# ----------------------------------------------------------------------
# Engine surface
# ----------------------------------------------------------------------


class TestEngineSurface:
    def test_engine_stats_carry_collection_snapshot(
        self, corpus_collection
    ):
        engine = XPathEngine()
        result = engine.evaluate_collection(
            "//item[@n < 3]", corpus_collection,
            EvalOptions(timeout=30.0),
        )
        assert len(result.merged()) == 3
        stats = engine.stats()
        assert stats.collection is not None
        assert stats.collection.fingerprint == (
            corpus_collection.fingerprint
        )
        payload = stats.to_dict()
        assert payload["collection"]["shard_count"] == 4
        assert payload["collection"]["submitted"] >= 4

    def test_collection_stream_pages_partition_the_merge(
        self, corpus_collection
    ):
        """``evaluate_collection_stream`` is the collection analogue of
        ``evaluate_stream``: pages reassemble to exactly the merged
        result, in global document order."""
        engine = XPathEngine()
        pages = list(
            engine.evaluate_collection_stream(
                "//item", corpus_collection, page_size=7
            )
        )
        assert {kind for kind, _ in pages} == {"node-set"}
        assert max(len(page) for _, page in pages) <= 7
        assert len(pages) >= 2
        reassembled = [record for _, page in pages for record in page]
        reference = engine.evaluate_collection(
            "//item", corpus_collection
        ).merged()
        assert reassembled == reference
        counters = engine.stats().runtime_counters
        assert counters["stream_queries"] >= 1
        assert counters["collection_queries"] >= 2

    def test_never_pulled_collection_stream_counts_nothing(
        self, corpus_collection
    ):
        # Submitted at the first next(), like evaluate_stream: closing
        # the stream before that must leave no unsettled submission.
        engine = XPathEngine()
        engine.evaluate_collection_stream(
            "//item", corpus_collection, page_size=7
        ).close()
        stats = engine.stats()
        assert stats.runtime_counters["queries_submitted"] == 0
        assert stats.runtime_counters.get("collection_queries", 0) == 0
        assert stats.execution_count == 0

    def test_closed_collection_raises(self, tmp_path):
        collection = _crash_collection(tmp_path)
        collection.close()
        with pytest.raises(CollectionError):
            collection.evaluate("//item")

"""Stress tests: many threads, one engine, no shared mutable state.

The contracts exercised here:

* the striped plan cache never loses a count — ``hits + misses ==
  lookups`` in aggregate and per shard, even while eight threads force
  constant evictions;
* a plan-cache hit hands each thread its *own* physical plan instance
  (``CompiledQuery.thread_physical``), so two threads evaluating the
  same cached plan simultaneously cannot corrupt each other's iterator
  state (the regression this suite was built around);
* the buffer manager serves concurrent readers with per-page images
  intact and monotone hit/miss accounting;
* ``evaluate_concurrent`` keeps input order, runs each distinct query
  once in the calling thread and propagates the first exception, and
  identical concurrent ``evaluate`` requests coalesce.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import XPathEngine, parse_document
from repro.compiler import CompiledQuery
from repro.errors import ReproError
from repro.storage import DocumentStore
from repro.workloads import generate_document

pytestmark = pytest.mark.slow

THREADS = 8

DOC = parse_document(
    "<xdoc>"
    + "".join(f'<a id="{i}"><b/><b/><b/></a>' for i in range(12))
    + "</xdoc>"
)

#: Twenty distinct queries with known answers on ``DOC``; far more than
#: the stress engine's cache capacity, so evictions are constant.
WORKLOAD = {
    **{f"count(/xdoc/a[@id = '{i}']/b)": 3.0 for i in range(12)},
    "count(//a)": 12.0,
    "count(//b)": 36.0,
    "count(//@id)": 12.0,
    "count(/xdoc/a[position() = last()])": 1.0,
    "count(//a[b])": 12.0,
    "count(/xdoc/a[1]/following-sibling::a)": 11.0,
    "count(//b/parent::a)": 12.0,
    "count(/xdoc/descendant::*)": 48.0,
}


class TestStripedCacheStress:
    def test_eight_threads_small_cache(self):
        engine = XPathEngine(cache_size=4, cache_shards=4, coalesce=False)
        queries = sorted(WORKLOAD)
        wrong = []

        def hammer(slot):
            # Different starting offsets → different eviction pressure.
            for round_ in range(5):
                for step, _ in enumerate(queries):
                    query = queries[(slot + step) % len(queries)]
                    result = engine.evaluate(query, DOC)
                    if result != WORKLOAD[query]:
                        wrong.append((query, result))

        threads = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not wrong, wrong[:5]
        cache = engine.stats().cache
        assert cache.lookups == THREADS * 5 * len(queries)
        assert cache.hits + cache.misses == cache.lookups
        for shard in cache.shards:
            assert shard.hits + shard.misses == shard.lookups
            assert shard.size <= shard.capacity
        assert cache.evictions > 0
        assert cache.size <= 4

    def test_counters_consistent_under_interleaved_resets(self):
        """hits + misses == lookups while 8 threads hammer the cache and
        a ninth resets the counters.

        The regression: the aggregate counter properties read shard
        fields without the shard latch, so a checker could observe a
        lookup that had been counted whose hit/miss had not — or a
        reset applied to one counter but not yet the others.  Every
        snapshot (``counters()``, ``stats()``, per shard) must be
        internally consistent at any interleaving.
        """
        from repro.engine.cache import StripedPlanCache

        cache = StripedPlanCache(capacity=16, shards=8)
        stop = threading.Event()
        violations = []

        def hammer(slot):
            keys = [f"q{slot}-{i}" for i in range(24)]
            while not stop.is_set():
                for key in keys:
                    if cache.get(key) is None:
                        cache.put(key, object())
                    # Cross-shard traffic: read a neighbour's keys too.
                    cache.get(f"q{(slot + 1) % THREADS}-{slot}")

        def resetter():
            while not stop.is_set():
                cache.reset_counters()

        def checker():
            while not stop.is_set():
                hits, misses, _, lookups = cache.counters()
                if hits + misses != lookups:
                    violations.append(("counters", hits, misses, lookups))
                snapshot = cache.stats()
                if snapshot.hits + snapshot.misses != snapshot.lookups:
                    violations.append(
                        ("stats", snapshot.hits, snapshot.misses,
                         snapshot.lookups)
                    )
                for shard in snapshot.shards:
                    if shard.hits + shard.misses != shard.lookups:
                        violations.append(
                            ("shard", shard.shard, shard.hits,
                             shard.misses, shard.lookups)
                        )

        threads = [
            threading.Thread(target=hammer, args=(slot,))
            for slot in range(THREADS)
        ] + [
            threading.Thread(target=resetter),
            threading.Thread(target=checker),
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.8)
        stop.set()
        for thread in threads:
            thread.join()

        assert not violations, violations[:5]
        final = cache.counters()
        assert final[0] + final[1] == final[3]

    def test_interleaved_clear_cache(self):
        engine = XPathEngine(cache_size=8, coalesce=False)
        queries = sorted(WORKLOAD)[:6]
        stop = threading.Event()
        wrong = []

        def clearer():
            while not stop.is_set():
                engine.clear_cache()

        def reader():
            for _ in range(40):
                for query in queries:
                    result = engine.evaluate(query, DOC)
                    if result != WORKLOAD[query]:
                        wrong.append((query, result))

        clear_thread = threading.Thread(target=clearer)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        clear_thread.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        clear_thread.join()
        assert not wrong, wrong[:5]
        cache = engine.stats().cache
        assert cache.hits + cache.misses == cache.lookups


class TestSharedPlanRegression:
    def test_cached_plan_used_by_two_threads_at_once(self):
        """Two threads drive the *same cached plan* simultaneously.

        Before plans were thread-confined this interleaved two cursors
        through one iterator tree; now each thread gets its own
        instance re-generated from the shared translation.
        """
        engine = XPathEngine(coalesce=False)
        query = "count(/xdoc/descendant::a/b)"
        engine.evaluate(query, DOC)  # populate the cache
        other = parse_document(
            "<xdoc>" + "<a><b/></a>" * 5 + "</xdoc>"
        )
        expected = {id(DOC): 36.0, id(other): 5.0}

        barrier = threading.Barrier(2)
        results = {}

        def run(document):
            barrier.wait()
            for _ in range(50):
                value = engine.evaluate(query, document)
                assert value == expected[id(document)], value
            results[id(document)] = value

        threads = [
            threading.Thread(target=run, args=(doc,))
            for doc in (DOC, other)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == expected
        # Exactly one compile; both threads hit the same cached plan.
        assert engine.stats().compile_count == 1

    def test_warm_cache_compiles_nothing_under_concurrent_clients(self):
        engine = XPathEngine()
        for query in WORKLOAD:
            engine.evaluate(query, DOC)
        engine.reset_stats()
        barrier = threading.Barrier(4, timeout=30)
        answers = []

        def client():
            # Lockstep, so every query has concurrent askers.
            for query in WORKLOAD:
                barrier.wait()
                answers.append((query, engine.evaluate(query, DOC)))

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(answers) == 4 * len(WORKLOAD)
        wrong = [(q, a) for q, a in answers if a != WORKLOAD[q]]
        assert not wrong, wrong[:5]
        stats = engine.stats()
        assert stats.compile_count == 0
        assert stats.cache.misses == 0

    def test_threads_get_distinct_plan_instances(self):
        engine = XPathEngine(coalesce=False)
        compiled = engine.compile("count(//b)")
        seen = {}
        barrier = threading.Barrier(4)

        def grab(slot):
            barrier.wait()
            seen[slot] = id(compiled.thread_physical)

        threads = [
            threading.Thread(target=grab, args=(slot,)) for slot in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(seen.values())) == 4
        assert len(compiled.instances()) >= 4


class TestStorageConcurrency:
    def test_concurrent_readers_under_buffer_pressure(self, tmp_path):
        document = generate_document(800, 6, 4)
        path = tmp_path / "doc.natix"
        DocumentStore.write(document, path, page_size=512)
        with DocumentStore.open(path, buffer_pages=2) as stored:
            engine = XPathEngine(coalesce=False)
            expected = engine.evaluate("count(//*)", stored.root)
            wrong = []

            def scan():
                for _ in range(5):
                    stored.clear_node_cache()
                    value = engine.evaluate("count(//*)", stored.root)
                    if value != expected:
                        wrong.append(value)

            threads = [threading.Thread(target=scan) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            assert not wrong, wrong[:5]
            stats = stored.buffer.stats
            assert stats.evictions > 0
            assert stats.hits >= 0 and stats.misses > 0

    def test_stored_results_match_across_pool(self, tmp_path):
        document = generate_document(200, 4, 3)
        path = tmp_path / "doc.natix"
        DocumentStore.write(document, path)
        queries = [
            "count(//*)",
            "count(/xdoc/*/@id)",
            "count(/xdoc/descendant::*/ancestor::*)",
            "count(//*[@id])",
        ]
        with DocumentStore.open(path, buffer_pages=4) as stored:
            engine = XPathEngine()
            sequential = [
                engine.evaluate(query, stored.root) for query in queries
            ]
            with ThreadPoolExecutor(max_workers=4) as pool:
                concurrent = list(pool.map(
                    lambda query: engine.evaluate(query, stored.root),
                    queries,
                ))
            assert concurrent == sequential


class TestEvaluateConcurrent:
    def test_results_in_input_order(self):
        engine = XPathEngine()
        queries = ["count(//a)", "count(//b)", "count(//a)", "count(//@id)"]
        assert engine.evaluate_concurrent(queries, DOC) == [
            12.0, 36.0, 12.0, 12.0,
        ]

    def test_duplicate_queries_executed_once(self):
        engine = XPathEngine()
        engine.evaluate_concurrent(["count(//b)"] * 6, DOC)
        stats = engine.stats()
        assert stats.execution_count == 1
        assert stats.runtime_counters["concurrent_executions"] == 1

    def test_worker_exception_propagates(self):
        engine = XPathEngine()
        with pytest.raises(ReproError):
            engine.evaluate_concurrent(
                ["count(//a)", "count(unknown-function())"], DOC
            )

    def test_empty_batch(self):
        assert XPathEngine().evaluate_concurrent([], DOC) == []

    def test_every_query_runs_on_the_calling_thread(self, monkeypatch):
        threads = []
        evaluate = CompiledQuery.evaluate

        def recording(self, *args, **kwargs):
            threads.append(threading.get_ident())
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(CompiledQuery, "evaluate", recording)
        engine = XPathEngine()
        engine.evaluate_concurrent(
            ["count(//a)", "count(//b)", "count(//@id)"], DOC, max_workers=4
        )
        assert threads == [threading.get_ident()] * 3


class TestSingleflightCoalescing:
    def test_identical_concurrent_requests_coalesce(self):
        engine = XPathEngine()
        query = "count(/xdoc/descendant-or-self::*/descendant::b)"
        engine.evaluate(query, DOC)  # warm: compile outside the race
        barrier = threading.Barrier(THREADS)

        def request():
            barrier.wait()
            return engine.evaluate(query, DOC)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            values = [
                future.result()
                for future in [pool.submit(request) for _ in range(THREADS)]
            ]
        assert set(values) == {values[0]}
        counters = engine.stats().runtime_counters
        assert counters.get("coalesced_requests", 0) >= 1

    def test_coalescing_disabled_runs_everything(self):
        engine = XPathEngine(coalesce=False)
        barrier = threading.Barrier(4)

        def request():
            barrier.wait()
            return engine.evaluate("count(//b)", DOC)

        with ThreadPoolExecutor(max_workers=4) as pool:
            [f.result() for f in [pool.submit(request) for _ in range(4)]]
        counters = engine.stats().runtime_counters
        assert counters.get("coalesced_requests", 0) == 0
        assert engine.stats().execution_count == 4

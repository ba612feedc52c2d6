"""Tests for the XPathEngine session layer, plan cache and registry."""

import json
import time

import pytest

from repro import (
    ENGINES,
    EvalOptions,
    TranslationOptions,
    XPathEngine,
    compile_xpath,
    evaluate,
    open_store,
    parse_document,
    register_engine,
    store_document,
    unregister_engine,
)
from repro.api import engine_names, get_engine_factory
from repro.engine.cache import StripedPlanCache
from repro.engine.session import resolve_context_node

DOC = parse_document(
    "<xdoc>"
    + "".join(f'<a id="{i}"><b/><b/></a>' for i in range(10))
    + "</xdoc>"
)


class TestPlanCache:
    def test_identical_query_hits(self):
        engine = XPathEngine()
        engine.evaluate("count(//b)", DOC)
        engine.evaluate("count(//b)", DOC)
        engine.evaluate("count(//b)", DOC)
        stats = engine.stats()
        assert stats.cache.misses == 1
        assert stats.cache.hits == 2
        assert stats.compile_count == 1

    def test_differing_options_miss(self):
        engine = XPathEngine()
        engine.evaluate("//b", DOC)
        engine.evaluate("//b", DOC, options=TranslationOptions.canonical())
        stats = engine.stats()
        assert stats.cache.misses == 2
        assert stats.cache.size == 2

    def test_differing_namespaces_miss(self):
        doc = parse_document('<a xmlns:p="urn:p"><p:b/></a>')
        engine = XPathEngine()
        one = engine.evaluate(
            "count(//x:b)", doc, EvalOptions(namespaces={"x": "urn:p"})
        )
        two = engine.evaluate(
            "count(//x:b)", doc, EvalOptions(namespaces={"x": "urn:other"})
        )
        assert (one, two) == (1.0, 0.0)
        assert engine.stats().cache.misses == 2

    def test_eviction_at_capacity(self):
        # Exact global LRU semantics need a single shard (with striping
        # the eviction order is per shard, i.e. approximate).
        engine = XPathEngine(cache_size=2, cache_shards=1)
        engine.evaluate("//a", DOC)
        engine.evaluate("//b", DOC)
        engine.evaluate("count(//a)", DOC)  # evicts "//a"
        stats = engine.stats()
        assert stats.cache.evictions == 1
        assert stats.cache.size == 2
        engine.evaluate("//a", DOC)  # recompiles
        assert engine.stats().cache.misses == 4

    def test_lru_order_refreshes_on_hit(self):
        engine = XPathEngine(cache_size=2, cache_shards=1)
        engine.evaluate("//a", DOC)
        engine.evaluate("//b", DOC)
        engine.evaluate("//a", DOC)          # refresh "//a"
        engine.evaluate("count(//a)", DOC)   # evicts "//b", not "//a"
        engine.evaluate("//a", DOC)
        stats = engine.stats()
        assert stats.cache.hits == 2

    def test_cached_plans_safe_across_documents(self):
        # A memoizing plan (MemoX + chi^mat) must not leak state from
        # one document's evaluation into the next.
        query = "//a[count(b) = 2]/@id"
        doc1 = parse_document(
            '<xdoc><a id="x"><b/><b/></a><a id="y"><b/></a></xdoc>'
        )
        doc2 = parse_document(
            '<xdoc><a id="p"><b/><b/></a><a id="q"><b/><b/></a></xdoc>'
        )
        engine = XPathEngine()
        first = engine.evaluate(query, doc1)
        second = engine.evaluate(query, doc2)
        assert sorted(n.value for n in first) == ["x"]
        assert sorted(n.value for n in second) == ["p", "q"]
        # And back again — still no leakage.
        third = engine.evaluate(query, doc1)
        assert sorted(n.value for n in third) == ["x"]
        assert engine.stats().cache.hits == 2

    def test_cache_capacity_validation(self):
        with pytest.raises(ValueError):
            StripedPlanCache(0)
        with pytest.raises(ValueError):
            StripedPlanCache(8, shards=0)

    def test_clear_cache(self):
        engine = XPathEngine()
        engine.evaluate("//a", DOC)
        engine.clear_cache()
        assert engine.stats().cache.size == 0


class TestStripedCache:
    def test_shard_count_clamped_to_capacity(self):
        assert StripedPlanCache(3, shards=8).shard_count == 3
        assert StripedPlanCache(128, shards=8).shard_count == 8

    def test_capacity_distributed_over_shards(self):
        stats = StripedPlanCache(10, shards=4).stats()
        assert sorted(s.capacity for s in stats.shards) == [2, 2, 3, 3]
        assert stats.capacity == 10

    def test_shard_counters_aggregate(self):
        engine = XPathEngine(cache_size=16, cache_shards=4)
        for query in ("//a", "//b", "count(//a)", "count(//b)"):
            engine.evaluate(query, DOC)
            engine.evaluate(query, DOC)
        cache = engine.stats().cache
        assert cache.shard_count == 4
        assert sum(s.hits for s in cache.shards) == cache.hits == 4
        assert sum(s.misses for s in cache.shards) == cache.misses == 4
        assert sum(s.lookups for s in cache.shards) == cache.lookups == 8
        assert sum(s.size for s in cache.shards) == cache.size == 4
        # Per-shard accounting is itself consistent.
        for shard in cache.shards:
            assert shard.hits + shard.misses == shard.lookups

    def test_reset_counters_covers_all_shards(self):
        engine = XPathEngine(cache_size=16, cache_shards=4)
        for query in ("//a", "//b", "count(//a)"):
            engine.evaluate(query, DOC)
        engine.reset_stats()
        cache = engine.stats().cache
        assert cache.lookups == 0 and cache.hits == 0
        assert cache.size == 3  # contents survive a stats reset


class TestCompileAmortization:
    # Step- and predicate-heavy to compile, near-free to execute on a
    # tiny document: the cold loop pays the compiler 100 times.
    QUERY = (
        "/r/s/a[@k = 'v'][position() = last()]"
        "/b/c[count(d) > 1]/descendant::e/@id"
    )

    def test_hundred_reuses_hit_and_beat_cold(self):
        engine = XPathEngine()
        node = parse_document("<r><s/></r>").root

        start = time.perf_counter()
        for _ in range(100):
            evaluate(self.QUERY, node)
        cold = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(100):
            engine.evaluate(self.QUERY, node)
        warm = time.perf_counter() - start

        stats = engine.stats()
        assert stats.cache.hits >= 99
        assert stats.cache.misses == 1
        assert stats.execution_count == 100
        # Compiling once instead of 100 times must be clearly faster.
        assert cold >= 2 * warm, f"cold={cold:.4f}s warm={warm:.4f}s"


class TestEvaluateMany:
    def test_results_in_input_order(self):
        engine = XPathEngine()
        results = engine.evaluate_many(
            ["count(//a)", "count(//b)", "count(//a)"], DOC
        )
        assert results == [10.0, 20.0, 10.0]

    def test_batch_compiles_each_distinct_query_once(self):
        engine = XPathEngine()
        engine.evaluate_many(["//a", "//b", "//a", "//b"], DOC)
        stats = engine.stats()
        assert stats.compile_count == 2
        assert stats.cache.hits == 2
        assert stats.execution_count == 4

    def test_batch_variables(self):
        engine = XPathEngine()
        results = engine.evaluate_many(
            ["$n + 1", "$n * 2"], DOC, EvalOptions(variables={"n": 10.0})
        )
        assert results == [11.0, 20.0]


class TestStatsSnapshot:
    def test_phase_timings_present(self):
        engine = XPathEngine()
        engine.evaluate("//a", DOC)
        stats = engine.stats()
        for phase in (
            "parse", "semantic", "rewrite", "normalize", "translate",
            "codegen",
        ):
            assert phase in stats.compile_phase_seconds
            assert stats.compile_phase_seconds[phase] >= 0.0

    def test_operator_counters_present(self):
        engine = XPathEngine()
        engine.evaluate("/xdoc/a/b", DOC)
        operators = engine.stats().operators
        names = [entry.operator for entry in operators]
        assert "UnnestMap" in names
        assert any(entry.tuples_out > 0 for entry in operators)
        assert any(entry.next_calls > 0 for entry in operators)

    def test_snapshot_is_json_serializable(self):
        engine = XPathEngine()
        engine.evaluate("//a", DOC)
        payload = json.loads(engine.stats().to_json())
        assert payload["cache"]["misses"] == 1
        assert payload["operators"]
        assert payload["buffer"] is None

    def test_buffer_stats_for_stored_target(self, tmp_path):
        path = tmp_path / "doc.natix"
        store_document(DOC, path)
        engine = XPathEngine()
        with open_store(path) as stored:
            engine.evaluate("count(//b)", stored)
            stats = engine.stats()
            raw = stored.buffer_stats()
        assert stats.buffer is not None
        assert stats.buffer.misses > 0
        assert raw["misses"] == stats.buffer.misses
        assert raw["capacity"] == stats.buffer.capacity

    def test_reset_stats_keeps_cache_contents(self):
        engine = XPathEngine()
        engine.evaluate("//a", DOC)
        engine.reset_stats()
        stats = engine.stats()
        assert stats.cache.hits == 0 and stats.cache.misses == 0
        assert stats.cache.size == 1
        assert stats.execution_count == 0
        engine.evaluate("//a", DOC)
        assert engine.stats().cache.hits == 1


class TestEngineRegistry:
    def test_legacy_names_resolve(self):
        for name in ("natix", "natix-canonical", "naive", "memo"):
            runner = get_engine_factory(name)()
            assert runner("count(//b)", DOC.root, None, None, None) == 20.0

    def test_engines_tuple_matches_builtins(self):
        assert set(ENGINES) == {
            "natix", "natix-canonical", "naive", "memo",
        }

    def test_register_and_unregister(self):
        calls = []

        def factory():
            def run(query, node, variables, namespaces, options):
                calls.append(query)
                return 42.0

            return run

        register_engine("always-42", factory)
        try:
            assert "always-42" in engine_names()
            assert evaluate(
                "//whatever", DOC, EvalOptions(engine="always-42")
            ) == 42.0
            assert calls == ["//whatever"]
        finally:
            unregister_engine("always-42")
        assert "always-42" not in engine_names()

    def test_duplicate_registration_guard(self):
        with pytest.raises(ValueError):
            register_engine("natix", lambda: None)
        # replace=True overrides, then restore.
        original = get_engine_factory("natix")
        register_engine("natix", original, replace=True)

    def test_unknown_engine(self):
        with pytest.raises(ValueError, match="sloth"):
            evaluate("//b", DOC, EvalOptions(engine="sloth"))


class TestKeywordOnlyAPI:
    def test_evaluate_options_keyword(self):
        result = evaluate(
            "count(//b)", DOC, options=TranslationOptions.canonical()
        )
        assert result == 20.0

    def test_compile_namespaces_keyword(self):
        doc = parse_document('<a xmlns:p="urn:p"><p:b/></a>')
        compiled = compile_xpath("count(//x:b)", namespaces={"x": "urn:p"})
        assert compiled.evaluate(doc.root) == 1.0
        # Explicit namespaces still override the compiled defaults.
        assert compiled.evaluate(doc.root, None, {"x": "urn:z"}) == 0.0

    def test_removed_call_forms_are_ordinary_type_errors(self, tmp_path):
        # The pre-2.0 adapters are gone: per-call keywords, positional
        # options and a bare mapping where EvalOptions belongs all fail
        # the way any wrong call does.
        engine = XPathEngine()
        for call in (
            lambda: engine.evaluate("//b", DOC, timeout=1.0),
            lambda: engine.evaluate_many(["//b"], DOC, variables={}),
            lambda: engine.evaluate_concurrent(["//b"], DOC, max_tuples=1),
            lambda: engine.count("//b", DOC, cancel=None),
            lambda: evaluate("//b", DOC, engine="naive"),
            lambda: evaluate("//b", DOC, None, {"n": 1.0}),
            lambda: evaluate("//b", DOC, {"n": 1.0}),
            lambda: compile_xpath("//b", TranslationOptions.canonical()),
            lambda: open_store(tmp_path / "doc.natix", 32),
        ):
            with pytest.raises(TypeError):
                call()


class TestEvaluateTargetProtocol:
    QUERY = "count(//*[@id])"

    def test_store_and_document_targets_agree(self, tmp_path):
        path = tmp_path / "doc.natix"
        store_document(DOC, path)
        in_memory = evaluate(self.QUERY, DOC)
        with open_store(path) as stored:
            # The StoredDocument itself is a valid target, same as the
            # in-memory Document — no .root unwrapping required.
            paged = evaluate(self.QUERY, stored)
            paged_root = evaluate(self.QUERY, stored.root)
        assert in_memory == paged == paged_root == 10.0

    def test_node_target_still_works(self):
        assert resolve_context_node(DOC.root) is DOC.root

    def test_rejects_non_target(self):
        with pytest.raises(TypeError, match="document-like"):
            evaluate("//b", object())

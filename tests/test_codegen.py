"""The plan-to-Python code generation backend (:mod:`repro.codegen`).

Differential by construction: every behavior is pinned against the
interpreted iterator backend on the same compiled plan — identical
values, identical governance aborts, identical error surfaces — plus
the lifecycle contract (lazy compile-once per cached plan, ``auto``
falling back on unsupported operators, ``force`` refusing to).  Index
scans are pinned three ways: generated vs interpreted on the indexed
store, and both vs the in-memory answer.
"""

import random
import warnings
from types import SimpleNamespace

import pytest

from repro import (
    EvalOptions,
    TranslationOptions,
    XPathEngine,
    evaluate,
    open_store,
    parse_document,
    store_document,
)
from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.codegen import CodegenUnsupported, generate_python
from repro.compiler.pipeline import XPathCompiler
from repro.engine.governor import CancelToken, ResourceGovernor
from repro.errors import (
    CodegenError,
    ExecutionError,
    QueryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
)
from repro.testing.documents import DocumentGenerator, build_document
from repro.testing.grammar import (
    DEFAULT_NAMESPACES,
    DEFAULT_VARIABLES,
    QueryGenerator,
)
from repro.testing.oracle import outcome_of

from .conftest import SAMPLE_XML, normalize_result

DOC = parse_document(SAMPLE_XML)

#: Queries spanning the fused operator repertoire: axis chains,
#: predicates (positional, existential, nested), aggregates, set
#: union, arithmetic, string functions, attributes, variables.
PARITY_QUERIES = [
    "//b",
    "/xdoc/a/b",
    "//a[b = 'x']",
    "//b[position() = last()]",
    "//b[2]",
    "//a[descendant::b[. = 'w']]",  # nested-plan register inheritance
    "//a[not(c)]",
    "//b/ancestor::a",
    "//b/following-sibling::*",
    "//a/@x",
    "//*[@id > 5]",
    "count(//b)",
    "sum(//e)",
    "string(//c)",
    "normalize-space(//e)",
    "name(//b[1])",
    "//b | //c",
    "//a[position() mod 2 = 1]",
    "boolean(//d/b)",
    "concat(string(//c), '-', string(count(//a)))",
]


def _compile(query):
    return XPathCompiler(TranslationOptions.improved()).compile(query)


class TestParityWithInterpreter:
    @pytest.mark.parametrize("query", PARITY_QUERIES)
    def test_generated_matches_interpreted(self, query):
        compiled = _compile(query)
        interpreted = compiled.evaluate(DOC.root, {}, {})
        generated = compiled.evaluate(DOC.root, {}, {}, codegen="force")
        assert normalize_result(generated) == normalize_result(interpreted)
        assert compiled.codegen_state == "compiled"

    def test_variables_and_namespaces(self):
        doc = parse_document(
            '<r xmlns:p="urn:x"><p:i>1</p:i><p:i>2</p:i></r>'
        )
        compiled = _compile("count(//p:i) + $n")
        for codegen in ("off", "force"):
            assert compiled.evaluate(
                doc.root, {"n": 40.0}, {"p": "urn:x"}, codegen=codegen
            ) == 42.0

    def test_ordered_results_match(self):
        engine = XPathEngine(codegen="force")
        nodes = engine.evaluate(
            "//b | //c", DOC, ordered=True
        )
        keys = [node.sort_key for node in nodes]
        assert keys == sorted(keys)

    def test_errors_surface_identically(self):
        compiled = _compile("$missing + 1")
        with pytest.raises(ReproError) as interpreted:
            compiled.evaluate(DOC.root, {}, {})
        with pytest.raises(ReproError) as generated:
            compiled.evaluate(DOC.root, {}, {}, codegen="force")
        assert type(generated.value) is type(interpreted.value)


class TestLifecycle:
    def test_compile_once_per_plan(self):
        compiled = _compile("//b")
        assert compiled.codegen_state == "pending"
        compiled.ensure_generated()
        first = compiled._generated
        compiled.ensure_generated()
        assert compiled._generated is first
        assert compiled.codegen_state == "compiled"

    def test_invalid_mode_rejected(self):
        compiled = _compile("//b")
        with pytest.raises(ValueError, match="codegen"):
            compiled.evaluate(DOC.root, {}, {}, codegen="sometimes")

    def test_engine_counts_compiled_executions(self):
        engine = XPathEngine(codegen="auto")
        engine.evaluate("//b", DOC)
        engine.evaluate("//b", DOC)
        stats = engine.stats()
        assert stats.runtime_counters["codegen_compiled"] == 2
        assert stats.runtime_counters.get("codegen_executions", 0) == 2
        assert stats.cache.misses == 1  # generated fn reused via the cache

    def test_off_mode_never_compiles(self):
        engine = XPathEngine()  # codegen defaults to "off"
        engine.evaluate("//b", DOC)
        counters = engine.stats().runtime_counters
        assert counters.get("codegen_compiled", 0) == 0
        assert counters.get("codegen_executions", 0) == 0

    def test_per_call_override_beats_engine_default(self):
        engine = XPathEngine()  # off by default
        engine.evaluate("//b", DOC, EvalOptions(codegen="force"))
        assert engine.stats().runtime_counters["codegen_compiled"] == 1


#: Elements named ``item`` at several depths, as attribute owners, and
#: once inside a default namespace: that one shares the stored QName
#: (so it sits in the posting list) but fails a plain-name test.
INDEX_XML = (
    '<root xmlns:p="urn:p">'
    '<sec id="s1"><item k="1">a</item><item k="2">b</item>'
    '<sub><item k="3">c</item></sub></sec>'
    '<sec id="s2"><item k="4">d</item></sec>'
    '<ns xmlns="urn:default"><item k="5">n</item></ns>'
    '</root>'
)
INDEX_DOC = parse_document(INDEX_XML)

INDEX_QUERIES = [
    "//item",                       # IdxDesc from the root
    "/root/sec/item",               # IdxName chain
    "//sec//item",                  # IdxDesc per context tuple
    "//sec[item]/@id",              # routed step inside exists()
    "//sec[count(item) = 2]/@id",   # routed step inside an aggregate
    "//sub/item | //sec/item",      # routed steps under ⊕
    "//item[2]",
    "count(//item)",
    "string(//sec[2]/item)",
    "//sec/@id/descendant::item",   # attribute context: not an interval
    "//sec/namespace::*/descendant::item",
    "//item/@k/../../item",
]


def _keys(value):
    if isinstance(value, list):
        return sorted(node.sort_key for node in value)
    return value


def _index_counters(counters):
    return {
        name: counters.get(name, 0)
        for name in ("index_hits", "index_skips", "index_candidates")
    }


class TestIndexScans:
    """``IdxName``/``IdxDesc`` run as generated Python: same answers and
    the same probe counters as the interpreter's adaptive scans."""

    @pytest.fixture
    def stored(self, tmp_path):
        path = tmp_path / "doc.natix"
        store_document(INDEX_DOC, path, indexes=True)
        with open_store(path) as handle:
            yield handle

    @pytest.fixture
    def unindexed(self, tmp_path):
        path = tmp_path / "bare.natix"
        store_document(INDEX_DOC, path, indexes=False)
        with open_store(path) as handle:
            yield handle

    @pytest.mark.parametrize("query", INDEX_QUERIES)
    def test_generated_matches_interpreter_and_memory(self, stored, query):
        generated = XPathEngine(index="force", codegen="force")
        interpreted = XPathEngine(index="force", codegen="off")
        answer = _keys(generated.evaluate(query, stored))
        assert answer == _keys(interpreted.evaluate(query, stored))
        assert answer == _keys(evaluate(query, INDEX_DOC))
        plan = generated.compile(query, target=stored)
        assert plan.optimizer_report.index_scans > 0
        assert plan.codegen_state == "compiled"
        # Same probes, same candidates: both backends call one helper.
        assert _index_counters(generated.stats().runtime_counters) == (
            _index_counters(interpreted.stats().runtime_counters)
        )

    def test_routed_plan_navigates_on_unindexed_targets(self, stored,
                                                        unindexed):
        engine = XPathEngine(index="force", codegen="force")
        plan = engine.compile("//sec[item]/@id", target=stored)
        expected = _keys(evaluate("//sec[item]/@id", INDEX_DOC))
        for target in (INDEX_DOC, unindexed):
            result = plan.evaluate(target.root, codegen="force")
            assert _keys(result) == expected
        assert plan.stats["index_hits"] == 0
        assert plan.stats["index_skips"] > 0
        assert plan.stats["index_candidates"] == 0

    def test_non_interval_contexts_take_the_navigation_branch(self, stored):
        engine = XPathEngine(index="force", codegen="force")
        # With the interval probe an attribute would answer with its
        # owner's subtree (they share a pre-order rank).
        assert engine.evaluate("//sec/@id/descendant::item", stored) == []
        assert engine.evaluate(
            "//sec/namespace::*/descendant::item", stored
        ) == []
        counters = engine.stats().runtime_counters
        assert counters["index_skips"] >= 2 + 4  # 2 @id, 4 namespace nodes

    def test_recheck_rejects_namespaced_element_of_same_name(self, stored):
        assert len(stored.indexes.element_ids("item")) == 5
        engine = XPathEngine(index="force", codegen="force")
        result = engine.evaluate("//item", stored)
        assert [node.attributes[0].value for node in result] == [
            "1", "2", "3", "4",
        ]
        assert engine.stats().runtime_counters["index_candidates"] == 5

    def test_count_runs_through_execute_count(self, stored):
        engine = XPathEngine(index="force", codegen="force")
        assert engine.count("//item", stored) == 4
        assert engine.count("/root/sec/item", stored) == 3
        counters = engine.stats().runtime_counters
        assert counters["codegen_executions"] == 2
        assert counters["index_hits"] > 0

    def test_counters_survive_early_exit(self, stored):
        # A scalar plan is closed after its first tuple, and exists()
        # abandons its nested generator at the first witness.
        engine = XPathEngine(index="force", codegen="force")
        assert engine.evaluate("boolean(//sec[item])", stored) is True
        counters = engine.stats().runtime_counters
        assert counters["index_hits"] >= 2
        assert counters["index_candidates"] >= 2

    def test_consumer_is_emitted_once_per_routed_step(self, stored):
        query = "//sec[item]/@id | //sub/item"
        engine = XPathEngine(index="force", codegen="force")
        assert _keys(engine.evaluate(query, stored)) == _keys(
            evaluate(query, INDEX_DOC)
        )
        plan = engine.compile(query, target=stored)
        routed = plan.optimizer_report.index_scans
        assert routed == 4  # //sec, [item], //sub and sub/item; not @id

        def location_steps(op):
            own = isinstance(op, ops.UnnestMap)
            below = list(op.children()) + [
                nested.plan
                for subscript in op.subscripts()
                for nested in S.nested_plans(subscript)
            ]
            return own + sum(location_steps(child) for child in below)

        source = plan._generated.source
        # Index and navigation candidates share one loop, so every step
        # — routed or not — is one ``for`` with one copy of whatever
        # consumes it: two ⊕ branches, two result yields.
        assert source.count("for _c") == location_steps(plan.logical_plan)
        assert source.count("_index_candidates(") == routed
        assert source.count("yield r") == 2 + 1  # + the exists() witness

    def test_generated_size_is_linear_in_routed_steps(self, stored):
        engine = XPathEngine(index="force", codegen="force")

        def lines(query):
            engine.evaluate(query, stored)
            plan = engine.compile(query, target=stored)
            return len(plan._generated.source.splitlines())

        one = lines("/root")
        assert lines("/root/sec/sub") - lines("/root/sec") == (
            lines("/root/sec") - one
        )
        assert lines("/root/sec/sub/item") - one == 3 * (
            lines("/root/sec") - one
        )


@pytest.mark.fuzz
@pytest.mark.parametrize("seed", range(6))
def test_forced_index_plans_agree_on_fuzzed_queries(seed, tmp_path):
    """Seeded grammar fuzz with *every* eligible step routed.

    The oracle's ``cost`` route runs generated index loops only where
    the cost model routes, which is rare on fuzz-sized documents; here
    ``index="force"`` puts them on every name step, and the generated
    plan must match the interpreted one and the naive baseline in
    canonical value or in typed error.
    """
    rng = random.Random(seed)
    document = build_document(DocumentGenerator(rng).generate_spec())
    path = tmp_path / "fuzz.natix"
    store_document(document, path, indexes=True)
    options = EvalOptions(
        variables=dict(DEFAULT_VARIABLES),
        namespaces=dict(DEFAULT_NAMESPACES),
    )
    generator = QueryGenerator(rng)
    generated = XPathEngine(index="force", codegen="auto")
    interpreted = XPathEngine(index="force", codegen="off")
    with open_store(path) as stored:
        for _ in range(150):
            query = generator.query()
            expected = outcome_of(lambda: evaluate(
                query, document, options.replace(engine="naive")
            ))
            for engine in (generated, interpreted):
                outcome = outcome_of(
                    lambda: engine.evaluate(query, stored, options)
                )
                assert outcome == expected, (query, outcome.describe())
    counters = generated.stats().runtime_counters
    assert counters.get("codegen_fallbacks", 0) == 0
    assert counters["index_hits"] > 0
    assert _index_counters(counters) == _index_counters(
        interpreted.stats().runtime_counters
    )


class TestIndexScanGovernance:
    """A long posting-list loop checks the governor like any other."""

    ITEMS = 3000

    @pytest.fixture
    def plan(self, tmp_path):
        document = parse_document(
            "<root>" + "<item/>" * self.ITEMS + "</root>"
        )
        path = tmp_path / "many.natix"
        store_document(document, path, indexes=True)
        with open_store(path) as stored:
            engine = XPathEngine(index="force", codegen="force")
            # Decodes every proxy: the governed run below then loops
            # over one materialised posting-list batch.
            assert engine.count("//item", stored) == self.ITEMS
            yield engine.compile("//item", target=stored), stored

    def _aborts(self, plan_and_store, governor, error):
        plan, stored = plan_and_store
        before = plan.stats
        with pytest.raises(error):
            plan.evaluate(stored.root, governor=governor, codegen="force")
        # Aborted inside the loop, within one 256-event flush window —
        # and the partial probe counters were still flushed.
        after = plan.stats
        assert after["index_hits"] - before["index_hits"] == 1
        seen = after["index_candidates"] - before["index_candidates"]
        assert 0 < seen <= 256

    def test_tuple_budget(self, plan):
        self._aborts(plan, ResourceGovernor(max_tuples=5), QueryBudgetError)

    def test_deadline(self, plan, monkeypatch):
        ticks = iter(range(10**6))
        monkeypatch.setattr(
            "repro.engine.governor.time",
            SimpleNamespace(monotonic=lambda: float(next(ticks))),
        )
        # Clock reads: 0 at construction, 1 at the pre-execution check,
        # 2 at the first amortised flush inside the loop.
        self._aborts(plan, ResourceGovernor(timeout=1.5), QueryTimeoutError)

    def test_cancel(self, plan):
        class TripsOnSecondLook(CancelToken):
            looks = 0

            @property
            def cancelled(self):
                self.looks += 1
                return self.looks > 1

        self._aborts(
            plan, ResourceGovernor(cancel=TripsOnSecondLook()),
            QueryCancelledError,
        )


class TestFallback:
    """A plan with an operator the emitter cannot lower: ``auto``
    interprets it (counted), ``force`` refuses."""

    @staticmethod
    def _plan_with_binary_group(engine):
        """Cache ``//b`` and graft a Γ on top of its logical plan.

        Python emission is lazy, so the (already built) iterator tree
        still evaluates ``//b`` while the emitter meets a BinaryGroup.
        """
        plan = engine.compile("//b", target=DOC)
        translation = plan.translation
        translation.plan = ops.BinaryGroup(
            translation.plan, ops.SingletonScan(), "g",
            translation.result_attr, "=", translation.result_attr,
            "count",
        )
        return plan

    def test_auto_falls_back_and_counts(self):
        engine = XPathEngine(codegen="auto")
        self._plan_with_binary_group(engine)
        result = engine.evaluate("//b", DOC)
        assert normalize_result(result) == normalize_result(
            evaluate("//b", DOC)
        )
        counters = engine.stats().runtime_counters
        assert counters["codegen_fallbacks"] == 1
        assert counters.get("codegen_compiled", 0) == 0

    def test_force_raises_codegen_error(self):
        engine = XPathEngine(codegen="force")
        self._plan_with_binary_group(engine)
        with pytest.raises(CodegenError):
            engine.evaluate("//b", DOC)

    def test_unsupported_detail_is_recorded(self):
        engine = XPathEngine(codegen="auto")
        plan = self._plan_with_binary_group(engine)
        engine.evaluate("//b", DOC)
        assert plan.codegen_state == "unsupported"
        assert "BinaryGroup" in plan.codegen_detail

    def test_plan_without_result_attribute(self):
        compiled = _compile("//b")
        compiled.translation.result_attr = None
        with pytest.raises(CodegenUnsupported):
            generate_python(compiled.translation)


class TestGovernance:
    def test_generous_limits_do_not_change_answers(self):
        engine = XPathEngine(codegen="force")
        governed = engine.evaluate(
            "//a[b]", DOC,
            EvalOptions(max_tuples=1_000_000, max_bytes=50_000_000,
                        timeout=60.0),
        )
        assert normalize_result(governed) == normalize_result(
            evaluate("//a[b]", DOC)
        )

    def test_tuple_budget_aborts_generated_code(self):
        engine = XPathEngine(codegen="force")
        with pytest.raises(QueryBudgetError):
            engine.evaluate("//*//*", DOC, EvalOptions(max_tuples=2))

    def test_byte_budget_aborts_materialization(self):
        engine = XPathEngine(codegen="force")
        with pytest.raises(QueryBudgetError):
            engine.evaluate(
                "//*[count(preceding::*) >= 0]", DOC,
                EvalOptions(max_bytes=8),
            )


class TestSessionSurfaces:
    def test_count(self):
        engine = XPathEngine(codegen="force")
        assert engine.count("//b", DOC) == 4

    def test_evaluate_many(self):
        engine = XPathEngine(codegen="force")
        values = engine.evaluate_many(["count(//b)", "count(//a)"], DOC)
        assert values == [4.0, 2.0]

    def test_evaluate_concurrent_shares_generated_plans(self):
        engine = XPathEngine(codegen="force")
        queries = ["count(//b)", "//a[b = 'x']", "string(//c)"] * 4
        values = engine.evaluate_concurrent(queries, DOC, max_workers=4)
        assert values[0::3] == [4.0] * 4
        assert engine.stats().runtime_counters["codegen_compiled"] >= 3


class TestGeneratePython:
    def test_source_is_attached(self):
        compiled = _compile("//b")
        compiled.ensure_generated()
        source = compiled._generated.source
        assert source.startswith("def __plan__(ctx):")
        assert "yield" in source

    def test_scalar_plan_kind(self):
        compiled = _compile("count(//b)")
        compiled.ensure_generated()
        assert compiled._generated.kind == "scalar"

    def test_unsupported_is_a_codegen_error(self):
        assert issubclass(CodegenUnsupported, CodegenError)

"""Tests for the synopsis-driven cardinality estimator and cost gates.

The estimator (:mod:`repro.compiler.cost`) walks the DataGuide with a
per-entry distribution, so exact path cardinalities are checkable
against a hand-built synopsis; without a synopsis it falls back to the
model's default fanouts.  The cost optimizer mode is checked against
the heuristic gates through a fake ``DocumentIndexes`` stub, and the
session layer's estimation-error counters and the page reads of both
modes through a real store.  The walk's provable-emptiness answer (what
collection shard pruning reads) is checked against hand-picked
counterexamples and, as a hypothesis property, against the naive
interpreter on generated documents and queries.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    EvalOptions,
    TranslationOptions,
    XPathEngine,
    compile_xpath,
    parse_document,
    store_document,
    open_store,
)
from repro.algebra import operators as ops
from repro.baselines.naive import NaiveInterpreter
from repro.collection.plans import translate_front_end
from repro.compiler.cost import (
    DEFAULT_MODEL,
    Dist,
    PlanEstimator,
    explain_with_costs,
    summarize_plan,
)
from repro.compiler.optimize import optimize_plan
from repro.errors import ReproError
from repro.index.build import build_index_data
from repro.index.synopsis import (
    KIND_ATTRIBUTE,
    KIND_ELEMENT,
    ROOT_ENTRY,
    PathSynopsis,
    SynopsisEntry,
)
from repro.testing.documents import DocumentGenerator
from repro.testing.grammar import GrammarConfig, QueryGenerator
from repro.workloads import generate_document
from repro.xpath.axes import Axis, NodeTestKind
from repro.xpath.context import make_context

# A hand-built DataGuide:
#   /xdoc                    1
#   /xdoc/section            6
#   /xdoc/section/item      36   (6 per section)
#   /xdoc/section/item/entry 216 (6 per item)
#   /xdoc/section/item/@id  36
SYNOPSIS = PathSynopsis([
    SynopsisEntry(ROOT_ENTRY, KIND_ELEMENT, "xdoc", 1),
    SynopsisEntry(0, KIND_ELEMENT, "section", 6),
    SynopsisEntry(1, KIND_ELEMENT, "item", 36),
    SynopsisEntry(2, KIND_ELEMENT, "entry", 216),
    SynopsisEntry(2, KIND_ATTRIBUTE, "id", 36),
])


def estimate_rows(query, synopsis=SYNOPSIS):
    plan = compile_xpath(query).logical_plan
    return PlanEstimator(synopsis).estimate(plan).root_rows


class TestSynopsisCardinalities:
    """Exact expected estimates over the hand-built DataGuide."""

    @pytest.mark.parametrize(
        "query,expected",
        [
            ("/xdoc", 1.0),
            ("/xdoc/section", 6.0),
            ("/xdoc/section/item", 36.0),
            ("//item", 36.0),
            ("//entry", 216.0),
            ("/xdoc//entry", 216.0),
            ("//item/entry", 216.0),
            ("/xdoc/section/item/@id", 36.0),
            # `entry` exists globally (216 nodes) but never directly
            # below /xdoc — the frontier walk sees the level, a global
            # selectivity estimate cannot.
            ("/xdoc/entry", 0.0),
            ("//missing", 0.0),
            # parent:: folds back onto the section entry.
            ("/xdoc/section/item/..", 6.0),
        ],
    )
    def test_exact_path_counts(self, query, expected):
        assert estimate_rows(query) == expected

    def test_predicate_applies_default_selectivity(self):
        # σ halves the stream (select_selectivity = 0.5): 36 → 18.
        assert estimate_rows("/xdoc/section/item[@id]") == 18.0

    def test_empty_synopsis_estimates_like_none(self):
        empty = PathSynopsis([])
        assert estimate_rows("//item", empty) == estimate_rows(
            "//item", None
        )

    def test_aliased_prefixed_name_is_not_estimated_empty(self):
        # q and p may name one URI: a prefixed test cannot be matched
        # against the QName text the synopsis records.
        document = parse_document('<r xmlns:p="urn:u"><p:x/></r>')
        synopsis = build_index_data(document).synopsis
        assert estimate_rows("/r/q:x", synopsis) > 0.0


class TestDefaultFallbacks:
    """No synopsis: the model's default fanouts drive the estimates."""

    def test_child_chain_uses_fanout_and_name_selectivity(self):
        # Each child::name step: ×4 fanout ×0.3 name selectivity.
        model = DEFAULT_MODEL
        step = model.fanout(Axis.CHILD) * model.name_test_selectivity
        assert estimate_rows("/a/b", None) == pytest.approx(step * step)

    def test_descendant_estimate_positive(self):
        assert estimate_rows("//c", None) > 0.0

    def test_every_operator_annotated(self):
        plan = compile_xpath("/a/b[@x]/c").logical_plan
        estimates = PlanEstimator(None).estimate(plan)
        for op in ops.plan_operators(plan):
            assert estimates.rows_of(op) is not None

    def test_explain_and_summary_render(self):
        plan = compile_xpath("//a[1]").logical_plan
        estimates = PlanEstimator(SYNOPSIS).estimate(plan)
        text = explain_with_costs(plan, estimates)
        assert "rows≈" in text and "pages≈" in text
        summary = summarize_plan(plan, estimates)
        assert summary["op"] and "rows" in summary
        assert set(summary["cost"]) == {
            "data_pages", "index_pages", "cpu",
        }


PATHS = st.sampled_from([
    "/xdoc/section", "/xdoc/section/item", "//item", "//entry",
    "/xdoc//entry", "//item/entry",
])
PREDICATES = st.lists(
    st.sampled_from(["[@id]", "[entry]", "[item][@id]"]),
    min_size=0, max_size=2,
)


class TestMonotonicity:
    """Adding predicates never increases the estimated cardinality."""

    @pytest.mark.hypothesis
    @settings(max_examples=60, deadline=None)
    @given(path=PATHS, preds=PREDICATES)
    def test_predicates_shrink_estimates(self, path, preds):
        base = estimate_rows(path)
        filtered = estimate_rows(path + "".join(preds))
        assert filtered <= base + 1e-9
        assert filtered >= 0.0

    @pytest.mark.hypothesis
    @settings(max_examples=60, deadline=None)
    @given(path=PATHS, preds=PREDICATES)
    def test_monotone_without_synopsis(self, path, preds):
        base = estimate_rows(path, None)
        filtered = estimate_rows(path + "".join(preds), None)
        assert filtered <= base + 1e-9
        assert not math.isnan(filtered)


class FakeIndexes:
    """The slice of ``DocumentIndexes`` the optimizer reads."""

    def __init__(self, synopsis, element_names=()):
        self.synopsis = synopsis
        self._names = frozenset(element_names)

    def has_element_index(self, name):
        return name in self._names


def route(query, optimizer, index_info, index_mode="auto"):
    plan = compile_xpath(query).logical_plan
    return optimize_plan(
        plan, index_info=index_info, index_mode=index_mode,
        optimizer=optimizer,
    )


INDEXES = FakeIndexes(SYNOPSIS, {"xdoc", "section", "item", "entry"})


class TestCostGate:
    """Cost-vs-heuristic routing decisions on the fake index stub."""

    def test_descendant_step_routed_by_both_modes(self):
        for mode in ("heuristic", "cost"):
            _, report = route("//item", mode, INDEXES)
            assert report.index_scans == 1, mode

    def test_cost_declines_level_missing_name(self):
        # `entry` is globally rare (216/259 is common actually at the
        # bottom level, but absent directly below /xdoc) — heuristic's
        # global child gate cannot see the level; the frontier walk can.
        _, heuristic = route("/xdoc/section", "heuristic", INDEXES)
        _, cost = route("/xdoc/section", "cost", INDEXES)
        # heuristic: 6/259 elements is far below the 10% child gate.
        assert heuristic.index_scans >= 1
        # cost: navigating 1 root record beats probing the posting list.
        assert cost.index_scans == 0
        assert cost.index_skips >= 1
        assert any(
            r["rule"] == "route-index-scan" and r["action"] == "declined"
            for r in cost.rules
        )

    def test_force_bypasses_cost_gate(self):
        _, report = route("/xdoc/section", "cost", INDEXES, "force")
        assert report.index_scans >= 1
        assert report.index_skips == 0

    def test_rule_trace_counts(self):
        _, report = route("//item", "cost", INDEXES)
        assert report.rules_fired + report.rules_declined == len(
            report.rules
        )
        assert report.mode == "cost"
        assert report.est_root_rows is not None
        assert set(report.est_cost) == {
            "data_pages", "index_pages", "cpu",
        }

    def test_unknown_optimizer_rejected(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            route("//item", "greedy", INDEXES)


class TestEvidenceGate:
    """Missing evidence declines the rewrite in both modes."""

    @pytest.mark.parametrize("mode", ["heuristic", "cost"])
    def test_empty_synopsis_declines(self, mode):
        stale = FakeIndexes(PathSynopsis([]), {"item"})
        _, report = route("//item", mode, stale)
        assert report.index_scans == 0
        assert report.index_skips >= 1
        assert any("no index evidence" in note for note in report.notes)

    @pytest.mark.parametrize("mode", ["heuristic", "cost"])
    def test_name_without_count_or_posting_declines(self, mode):
        _, report = route("//missing", mode, INDEXES)
        assert report.index_scans == 0
        assert report.index_skips >= 1

    def test_posting_list_rescues_zero_count_name(self):
        # A name absent from the synopsis but with a posting list is
        # evidence enough (count=0 always passes the selectivity gate).
        rescued = FakeIndexes(SYNOPSIS, {"ghost"})
        _, report = route("//ghost", "heuristic", rescued)
        assert report.index_scans == 1

    def test_force_routes_without_evidence(self):
        stale = FakeIndexes(PathSynopsis([]), set())
        _, report = route("//item", "heuristic", stale, "force")
        assert report.index_scans == 1


class TestMemoPruning:
    """Cost mode drops 𝔐 memos whose producer is cheap to recompute."""

    def _memo_plan(self):
        # χ[c1 := root()] over □, memoized on no keys: trivially cheap.
        plan = compile_xpath("/xdoc").logical_plan
        return ops.MemoX(plan, ())

    def test_cheap_memo_dropped_in_cost_mode(self):
        _, report = optimize_plan(self._memo_plan(), optimizer="cost")
        assert report.removed_memos == 1
        assert any("prune-memo" == r["rule"] for r in report.rules)

    def test_memo_kept_in_heuristic_mode(self):
        plan, report = optimize_plan(
            self._memo_plan(), optimizer="heuristic"
        )
        assert report.removed_memos == 0
        assert isinstance(plan, ops.MemoX)

    def test_memo_answers_unchanged(self):
        doc = parse_document("<xdoc><a/><a/></xdoc>")
        compiled_plain = compile_xpath("//a")
        compiled_cost = compile_xpath(
            "//a", options=TranslationOptions(optimize=True)
        )
        assert len(compiled_plain.evaluate(doc.root)) == 2
        assert len(compiled_cost.evaluate(doc.root)) == 2


class TestCostHelpers:
    def test_navigation_vs_index_scores_finite(self):
        estimator = PlanEstimator(SYNOPSIS)
        dist = Dist(1.0, {0: 1.0})
        nav = estimator.navigation_cost(
            dist, Axis.CHILD, NodeTestKind.NAME, "section"
        )
        idx = estimator.index_scan_cost(dist, Axis.CHILD, "section")
        assert nav.score(DEFAULT_MODEL) > 0
        assert idx.score(DEFAULT_MODEL) > 0

    def test_cost_addition(self):
        estimator = PlanEstimator(SYNOPSIS)
        dist = Dist(1.0, {0: 1.0})
        one = estimator.navigation_cost(
            dist, Axis.CHILD, NodeTestKind.NAME, "section"
        )
        double = one + one
        assert double.cpu == pytest.approx(2 * one.cpu)
        assert double.data_pages == pytest.approx(2 * one.data_pages)


class TestSessionCounters:
    """The engine records estimation error for cost-mode plans."""

    DOC_XML = (
        "<xdoc>"
        + "".join(
            "<section>" + "<item/>" * 4 + "</section>" for _ in range(3)
        )
        + "</xdoc>"
    )

    def test_estimation_error_counters(self, tmp_path):
        document = parse_document(self.DOC_XML)
        path = tmp_path / "doc.natix"
        store_document(document, path, indexes=True)
        engine = XPathEngine(
            TranslationOptions.improved(), index="auto", optimizer="cost"
        )
        with open_store(path) as stored:
            result = engine.evaluate("//item", stored.root)
        assert len(result) == 12
        counters = engine.stats().runtime_counters
        assert counters["cost_estimates_recorded"] == 1
        assert counters["cost_actual_rows"] == 12
        assert counters["cost_estimated_rows"] == 12
        assert counters["cost_estimate_abs_error"] == 0
        assert counters["plans_cost_optimized"] >= 1

    def test_every_entry_point_records_estimates(self, tmp_path):
        """The batch and concurrent paths account like ``evaluate``:
        one recorded estimate per executed cost-optimized plan."""
        document = parse_document(self.DOC_XML)
        path = tmp_path / "doc.natix"
        store_document(document, path, indexes=True)
        engine = XPathEngine(
            TranslationOptions.improved(), index="auto", optimizer="cost"
        )
        runs = [
            lambda root: engine.evaluate("//item", root),
            lambda root: engine.evaluate_many(["//item", "//section"], root),
            lambda root: engine.evaluate_concurrent(["//item"], root),
        ]
        recorded = []
        with open_store(path) as stored:
            for run in runs:
                before = engine.stats().runtime_counters.get(
                    "cost_estimates_recorded", 0
                )
                run(stored.root)
                recorded.append(
                    engine.stats().runtime_counters[
                        "cost_estimates_recorded"
                    ] - before
                )
        assert recorded == [1, 2, 1]

    def test_heuristic_engine_records_no_estimates(self, tmp_path):
        document = parse_document(self.DOC_XML)
        path = tmp_path / "doc.natix"
        store_document(document, path, indexes=True)
        engine = XPathEngine(TranslationOptions.improved(), index="auto")
        with open_store(path) as stored:
            engine.evaluate("//item", stored.root)
        counters = engine.stats().runtime_counters
        assert counters.get("cost_estimates_recorded", 0) == 0

    def test_per_call_optimizer_conflict_raises(self):
        engine = XPathEngine(
            TranslationOptions.improved(), optimizer="cost"
        )
        doc = parse_document("<a><b/></a>")
        with pytest.raises(ValueError, match="optimizer"):
            engine.evaluate(
                "//b", doc.root, EvalOptions(optimizer="heuristic")
            )

    def test_eval_options_optimizer_validated(self):
        with pytest.raises(ValueError):
            EvalOptions(optimizer="greedy")


class TestPlanQuality:
    """On a real indexed store the cost mode never reads more pages than
    the heuristic gates, and strictly fewer where a globally rare name
    is absent or clustered at the navigated level."""

    SHOWCASE = ("/xdoc/entry", "/xdoc/section/entry", "//item")
    BUFFER_PAGES = 4096

    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("plan-quality") / "gen.natix"
        store_document(generate_document(4000, 6, 5), path)
        return path

    def _cold_run(self, optimizer, query, path):
        """(sorted result keys, data + index page misses) on a fresh
        open, with the plan compiled against the store beforehand."""
        engine = XPathEngine(
            TranslationOptions.improved(), index="auto", optimizer=optimizer
        )
        with open_store(path, buffer_pages=self.BUFFER_PAGES) as stored:
            engine.compile(query, target=stored)
        with open_store(path, buffer_pages=self.BUFFER_PAGES) as stored:
            result = engine.evaluate(query, stored)
            by_kind = stored.buffer_stats()["by_kind"]
        pages = by_kind["data"]["misses"] + by_kind.get(
            "index", {}
        ).get("misses", 0)
        return sorted(node.sort_key for node in result), pages

    def test_cost_reads_no_more_pages_than_heuristic(self, store_path):
        strict_wins = []
        for query in self.SHOWCASE:
            heuristic = self._cold_run("heuristic", query, store_path)
            cost = self._cold_run("cost", query, store_path)
            assert cost[0] == heuristic[0], query
            assert cost[1] <= heuristic[1], (query, cost[1], heuristic[1])
            if cost[1] < heuristic[1]:
                strict_wins.append(query)
        assert strict_wins


# ----------------------------------------------------------------------
# Provable emptiness (what collection shard pruning reads)
# ----------------------------------------------------------------------

NAIVE = NaiveInterpreter()
FUZZ_URI = "urn:repro:fuzz"


def walk_empty(query, document):
    """The estimator's answer at the document root of ``document``."""
    plan = translate_front_end(query).plan
    synopsis = build_index_data(document).synopsis
    return PlanEstimator(synopsis).estimate(plan, at_root=True).empty


def naive_nodes(query, document, namespaces=None):
    return NAIVE.evaluate(
        query, make_context(document.root, None, namespaces)
    )


SKEWED_XML = (
    "<doc><common n='1'><leaf>v</leaf></common>"
    "<needle id='n'><inner>x</inner></needle></doc>"
)


class TestProvableEmptiness:
    @pytest.mark.parametrize(
        "xml,query",
        [
            # Text children have no synopsis entry.
            (SKEWED_XML, "/doc/common/leaf/node()"),
            (SKEWED_XML, "/doc/needle/inner/text()"),
            # q and p bound to one URI.
            ('<r xmlns:p="urn:u"><p:x/></r>', "/r/q:x"),
            # Comments and PIs have no synopsis entry either.
            ("<doc><!--c--></doc>", "/doc/comment()"),
            ("<doc><!--c--></doc>", "/doc/node()"),
            ("<doc><?t d?></doc>", "/doc/processing-instruction()"),
            ("<doc><?t d?></doc>", "//processing-instruction('t')"),
            ("<doc><x/></doc>", "//x/.."),
            # No tree locality the DataGuide can follow.
            ("<doc><a/><b/></doc>", "/doc/a/following::b"),
            ('<doc xmlns:p="urn:u"/>', "/doc/namespace::*"),
            # A text sibling, and steps back up from text leaves.
            ("<doc><a/>t</doc>", "/doc/a/following-sibling::node()"),
            (SKEWED_XML, "//leaf/node()/.."),
            (SKEWED_XML, "//leaf/node()/self::node()"),
            (SKEWED_XML, "//inner//node()/ancestor::needle"),
        ],
    )
    def test_not_provably_empty(self, xml, query):
        document = parse_document(xml)
        namespaces = {"p": "urn:u", "q": "urn:u"}
        assert len(naive_nodes(query, document, namespaces)) > 0
        assert not walk_empty(query, document)

    @pytest.mark.parametrize(
        "query",
        [
            "//nosuch",
            "//nosuch | /doc/absent",
            "//absent/text()",
            "//absent/following::y",
            "//leaf/parent::needle",
            "//leaf/../needle",
            "//leaf/node()/leaf",
            "//common[needle]/needle",
            "needle/common",
            "self::doc",
            "..",
        ],
    )
    def test_provably_empty(self, query):
        document = parse_document(SKEWED_XML)
        assert len(naive_nodes(query, document)) == 0
        assert walk_empty(query, document)

    @pytest.mark.parametrize(
        "query", ["//common[$missing]/absent", "$v/absent"],
    )
    def test_plans_reading_variables_are_never_empty(self, query):
        # Evaluated on a non-empty stream, the variable may raise.
        assert not walk_empty(query, parse_document(SKEWED_XML))

    def test_no_synopsis_proves_nothing(self):
        plan = translate_front_end("//nosuch").plan
        assert not PlanEstimator(None).estimate(plan, at_root=True).empty


class TestEmptinessSoundness:
    """Whenever the walk refutes a generated query, the naive
    interpreter returns the empty node-set on that document."""

    GRAMMAR = GrammarConfig(
        namespaces={"p": FUZZ_URI, "q": FUZZ_URI},
        prefixed_test_probability=0.3,
    )

    @pytest.mark.hypothesis
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_refuted_queries_are_empty(self, seed):
        rng = random.Random(seed)
        document = DocumentGenerator(rng).generate()
        estimator = PlanEstimator(build_index_data(document).synopsis)
        context = make_context(
            document.root, self.GRAMMAR.variables, self.GRAMMAR.namespaces
        )
        for query in QueryGenerator(rng, self.GRAMMAR).queries(25):
            try:
                translation = translate_front_end(query)
            except ReproError:
                continue
            if translation.kind != "sequence":
                continue
            if estimator.estimate(translation.plan, at_root=True).empty:
                assert NAIVE.evaluate(query, context) == [], query

"""Unit tests for the fuzzing package itself.

The fuzzer is test infrastructure, so it gets its own tests: the
generator must be deterministic and emit only valid XPath, the document
generator must round-trip, coverage must count what it sees, and a tiny
campaign must run clean end to end.
"""

import random
import re
from pathlib import Path

import pytest

from repro.compiler import TranslationOptions, XPathCompiler
from repro.dom.parser import parse as parse_xml
from repro.dom.serializer import serialize
from repro.errors import ReproError
from repro.xpath.parser import parse_xpath

from repro.testing import __main__ as cli
from repro.testing.corpus import CorpusEntry, append_entry, load_corpus
from repro.testing.coverage import CoverageTracker
from repro.testing.documents import (
    DocumentConfig,
    DocumentGenerator,
    build_document,
    spec_from_document,
)
from repro.testing import fuzzer, oracle
from repro.testing.fuzzer import run_campaign
from repro.testing.grammar import (
    DEFAULT_NAMESPACES,
    DEFAULT_VARIABLES,
    GrammarConfig,
    QueryGenerator,
)
from repro.testing.oracle import ROUTE_NAMES, DifferentialRunner, Route
from repro.testing.shrink import ast_size, spec_size


class TestQueryGenerator:
    def test_deterministic(self):
        first = QueryGenerator(random.Random(42), GrammarConfig())
        second = QueryGenerator(random.Random(42), GrammarConfig())
        assert first.queries(50) == second.queries(50)

    def test_seeds_differ(self):
        first = QueryGenerator(random.Random(1), GrammarConfig())
        second = QueryGenerator(random.Random(2), GrammarConfig())
        assert first.queries(20) != second.queries(20)

    def test_all_queries_parse_and_compile(self):
        generator = QueryGenerator(random.Random(7), GrammarConfig())
        compiler = XPathCompiler(TranslationOptions.improved())
        for query in generator.queries(150):
            ast = parse_xpath(query)
            # unparse must round-trip through the parser
            assert parse_xpath(ast.unparse()) is not None
            compiler.compile(query)

    def test_grammar_breadth(self):
        """A modest batch must already touch the whole surface grammar."""
        generator = QueryGenerator(random.Random(0), GrammarConfig())
        tracker = CoverageTracker()
        for _ in range(400):
            tracker.record_query(generator.query_ast())
        missing = tracker.missing()
        assert not missing["axes"], missing["axes"]
        assert not missing["node_tests"], missing["node_tests"]
        assert not missing["operators"], missing["operators"]


class TestDocumentGenerator:
    def test_deterministic(self):
        first = DocumentGenerator(random.Random(5), DocumentConfig())
        second = DocumentGenerator(random.Random(5), DocumentConfig())
        assert serialize(first.generate()) == serialize(second.generate())

    def test_round_trip(self):
        generator = DocumentGenerator(random.Random(11), DocumentConfig())
        spec = generator.generate_spec()
        document = build_document(spec)
        xml = serialize(document)
        reparsed = parse_xml(xml)
        rebuilt = build_document(spec_from_document(reparsed))
        assert serialize(rebuilt) == xml

    def test_mixed_content_appears(self):
        """Across seeds, comments, PIs and namespaces must all occur."""
        saw_comment = saw_pi = saw_namespace = False
        for seed in range(30):
            generator = DocumentGenerator(
                random.Random(seed), DocumentConfig()
            )
            xml = serialize(generator.generate())
            saw_comment = saw_comment or "<!--" in xml
            saw_pi = saw_pi or "<?" in xml
            saw_namespace = saw_namespace or "xmlns:" in xml
        assert saw_comment and saw_pi and saw_namespace


class TestCoverageTracker:
    def test_counts_known_query(self):
        tracker = CoverageTracker()
        tracker.record_query(parse_xpath("//a[count(b) > 1] | //c"))
        tracker.record_query(parse_xpath("-($num + 2)"))
        assert tracker.axes["descendant-or-self"] >= 1
        assert tracker.functions["count"] == 1
        assert tracker.operators[">"] == 1
        assert tracker.operators["|"] == 1
        assert tracker.operators["unary-minus"] == 1
        assert tracker.variables_used == 1
        assert tracker.max_predicate_depth == 1

    def test_render_lists_missing(self):
        tracker = CoverageTracker()
        tracker.record_query(parse_xpath("//a"))
        text = tracker.render()
        assert "NOT exercised" in text
        assert "axes" in text


class TestCorpus:
    def test_append_and_dedup(self, tmp_path):
        path = tmp_path / "c.json"
        entry = CorpusEntry(
            name="one",
            query="//a",
            document={"kind": "xml", "xml": "<r><a/></r>"},
        )
        assert append_entry(path, entry) is True
        assert append_entry(path, entry) is False  # same query+document
        other = CorpusEntry(
            name="one",  # same name, different query → uniqued
            query="//b",
            document={"kind": "xml", "xml": "<r><a/></r>"},
        )
        assert append_entry(path, other) is True
        entries = [e for _, e in load_corpus(tmp_path)]
        assert [e.name for e in entries] == ["one", "one-2"]


@pytest.mark.fuzz
class TestCampaign:
    def test_small_campaign_is_clean(self):
        report = run_campaign(seed=3, n=30, queries_per_doc=10)
        assert report.ok, [f.divergence.describe() for f in report.findings]
        assert report.queries_run == 30
        assert report.documents == 3
        assert report.coverage.queries == 30
        assert report.value_outcomes + report.error_outcomes == 30

    def test_campaign_detects_and_shrinks_injected_bug(
        self, tmp_path, monkeypatch
    ):
        """End-to-end: a broken route is caught, shrunk, and recorded,
        and every shrink candidate runs only the baseline, the diverging
        route and its reference."""
        broken = Route("improved", "callable", run=lambda query, node: [])
        monkeypatch.setattr(oracle, "ROUTES", tuple(
            broken if route.name == "improved" else route
            for route in oracle.ROUTES
        ))
        built = []

        class RecordingRunner(DifferentialRunner):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.routes)

        monkeypatch.setattr(fuzzer, "DifferentialRunner", RecordingRunner)
        corpus = tmp_path / "found.json"
        report = run_campaign(
            seed=0, n=10, queries_per_doc=10, shrink=True, max_findings=1,
            routes=("improved", "collection"), corpus_path=corpus,
        )
        [finding] = report.findings
        assert finding.divergence.route == "improved"
        assert ast_size(parse_xpath(finding.shrunk_query)) <= 3
        shrunk_document = parse_xml(finding.shrunk_document_xml)
        assert spec_size(spec_from_document(shrunk_document)) <= 2
        assert [entry.query for _, entry in load_corpus(tmp_path)] == [
            finding.shrunk_query
        ]
        campaign, *candidates = built
        assert campaign == (
            "naive", "improved", "collection", "collection_ref"
        )
        assert candidates
        assert all(routes == ("naive", "improved") for routes in candidates)

    def test_cli_gen(self, capsys):
        assert cli.main(["gen", "--seed", "0", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            parse_xpath(line)

    def test_cli_fuzz_smoke(self, capsys):
        code = cli.main(
            ["fuzz", "--seed", "1", "--n", "10", "--no-report"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "no divergences" in out

    def test_cli_replay_corpus(self, capsys, tmp_path):
        path = tmp_path / "mini.json"
        append_entry(
            path,
            CorpusEntry(
                name="mini",
                query="count(//a)",
                document={"kind": "xml", "xml": "<r><a/><a/></r>"},
            ),
        )
        code = cli.main(["replay", "--corpus-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "1 corpus entries" in out


class TestDifferentialRunnerOutcomes:
    def test_routes_and_variables(self):
        document = parse_xml("<r><a>2</a></r>")
        with DifferentialRunner(
            document,
            variables=DEFAULT_VARIABLES,
            namespaces=DEFAULT_NAMESPACES,
        ) as runner:
            outcomes = runner.outcomes("count(//a) = $num - 1")
            # The collection route brings its paired reference leg.
            assert set(outcomes) == set(ROUTE_NAMES) | {"collection_ref"}
            kinds = {o.kind for o in outcomes.values()}
            assert kinds == {"value"}
            assert not runner.check("count(//a) = $num - 1")

    def test_error_agreement_is_not_a_divergence(self):
        document = parse_xml("<r/>")
        with DifferentialRunner(document) as runner:
            outcomes = runner.outcomes("$nope")
            assert all(o.kind == "error" for o in outcomes.values())
            assert not runner.check("$nope")

    def test_batch_matches_single(self):
        document = parse_xml("<r><a>1</a><b>2</b></r>")
        queries = ["//a", "count(//b)", "$nope", "string(//a)"]
        with DifferentialRunner(document) as runner:
            batch = runner.check_batch(queries)
            singles = [d for q in queries for d in runner.check(q)]
        assert [d.query for d in batch] == [d.query for d in singles]

    def test_reproerror_subclasses_only(self):
        """Error outcomes carry repro.errors type names, never raw ones."""
        document = parse_xml("<r/>")
        with DifferentialRunner(document) as runner:
            for query in ("$nope", "//a[", "nosuchfn(1)", "count()"):
                for route, outcome in runner.outcomes(query).items():
                    assert outcome.kind == "error", (query, route, outcome)
                    assert issubclass(
                        getattr(
                            __import__("repro.errors", fromlist=["x"]),
                            str(outcome.payload),
                        ),
                        ReproError,
                    )


def test_docs_route_table_lists_every_route():
    """docs/testing.md's route table names exactly the oracle's rows."""
    docs = Path(__file__).parents[1] / "docs" / "testing.md"
    section = docs.read_text(encoding="utf-8").split(
        "### The differential oracle", 1
    )[1].split("\n### ", 1)[0]
    documented = re.findall(r"^\| `(\w+)` +\|", section, flags=re.M)
    assert tuple(documented) == ROUTE_NAMES


class TestGovernedOracle:
    """Governed routes must match the ungoverned baseline or abort with
    exactly a governance error — the contract behind
    ``fuzz --timeout/--max-tuples/--max-bytes``."""

    DOC_XML = "<r>" + "<a><b/><b/></a>" * 30 + "</r>"

    def test_generous_limits_change_nothing(self):
        document = parse_xml(self.DOC_XML)
        queries = ["count(//b)", "//a[1]/b", "string(//a)"]
        with DifferentialRunner(document) as plain, DifferentialRunner(
            document,
            governance={
                "timeout": 30.0,
                "max_tuples": 10**7,
                "max_bytes": 10**9,
            },
        ) as governed:
            for query in queries:
                assert plain.outcomes(query) == governed.outcomes(query)
                assert not governed.check(query)

    def test_budget_abort_is_not_a_divergence(self):
        document = parse_xml(self.DOC_XML)
        with DifferentialRunner(
            document, governance={"max_tuples": 5}
        ) as runner:
            outcomes = runner.outcomes("count(//b)")
            # The ungoverned baseline answers; governed routes abort.
            assert outcomes["naive"].kind == "value"
            for route in ("canonical", "improved", "stored",
                          "indexed", "concurrent"):
                outcome = outcomes[route]
                assert (outcome.kind, outcome.payload) == (
                    "error", "QueryBudgetError",
                ), (route, outcome)
            assert not runner.check("count(//b)")

    def test_wrong_value_still_diverges_under_governance(self):
        document = parse_xml("<r><a>1</a></r>")
        with DifferentialRunner(
            document,
            routes=("naive", "improved"),
            extra_routes={"broken": lambda query, node: []},
            governance={"timeout": 30.0},
        ) as runner:
            assert [d.route for d in runner.check("//a")] == ["broken"]

    def test_governed_batch_matches_single(self):
        document = parse_xml(self.DOC_XML)
        queries = ["count(//b)", "//a[1]/b", "$nope"]
        with DifferentialRunner(
            document, governance={"max_tuples": 5}
        ) as runner:
            assert runner.check_batch(queries) == []

    def test_unknown_governance_key_rejected(self):
        with pytest.raises(ValueError):
            DifferentialRunner(
                parse_xml("<r/>"), governance={"max_seconds": 1}
            )

    def test_governed_campaign_smoke(self):
        report = run_campaign(
            seed=3, n=20, queries_per_doc=10,
            governance={"timeout": 30.0, "max_tuples": 10**7},
        )
        assert report.ok, [f.divergence.describe() for f in report.findings]
        assert "governed" in report.summary()

    def test_cli_governed_fuzz(self, capsys):
        code = cli.main([
            "fuzz", "--seed", "1", "--n", "10", "--no-report",
            "--timeout", "30", "--max-tuples", "10000000",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "no divergences" in out
        assert "governed" in out


class TestCollectionPruningOracle:
    """The collection leg runs with synopsis pruning *on* while (in
    ungoverned runs) a sibling thread concurrently submits the same
    query pruning-disabled — two genuinely overlapping in-flight
    queries on one multiplexed pool.  A clean ``check`` therefore
    proves pruning and multiplexing change neither answers nor typed
    errors on any route."""

    #: Skewed corpus: ``<needle>`` lives in exactly one root child, so
    #: shard splitting leaves most shards unable to contribute to a
    #: needle-selective query — the pruned and unpruned legs really do
    #: scatter to different shard sets.
    DOC_XML = (
        "<r>"
        + "".join(f"<a><k>{n}</k></a>" for n in range(6))
        + "<z><needle id='n1'>x</needle></z></r>"
    )

    def test_selective_queries_agree_across_routes(self):
        document = parse_xml(self.DOC_XML)
        queries = [
            "//needle",
            "//needle/@id",
            "//a/k",
            "//nosuch",
            "count(//needle)",
            "//needle | //k",
            "string(//needle)",
        ]
        with DifferentialRunner(document) as runner:
            assert runner.check_batch(queries) == []

    def test_typed_errors_agree_between_pruned_and_unpruned(self):
        document = parse_xml(self.DOC_XML)
        with DifferentialRunner(document) as runner:
            for query in (
                "$nope", "//needle[@id = $missing]", "//a[$nope]/needle",
            ):
                assert not runner.check(query), query

    def test_governed_runs_still_agree(self):
        document = parse_xml(self.DOC_XML)
        with DifferentialRunner(
            document, governance={"timeout": 30.0}
        ) as runner:
            assert not runner.check("//needle")

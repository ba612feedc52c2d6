"""Differential oracle over the paper's documents and query sets.

The fuzzer's :class:`~repro.testing.oracle.DifferentialRunner` checks
three fixed corpora (a DBLP document with the Fig. 10 queries, a
generated document with the Fig. 5 queries and axis paths, and the
hand-written sample) on the routes that matter for whole documents:

* ``improved`` — the algebraic engine on the in-memory document,
* ``stored`` — the page file, buffer manager and record decoding,
* ``concurrent`` — one ``evaluate_concurrent`` batch run from two
  threads at once on one engine (shared plan cache, per-thread plan
  instances),
* ``server`` — the same page file behind the streaming HTTP front end
  and its default engine (``index="auto"``, ``optimizer="heuristic"``,
  ``codegen="auto"``; streamed pages interpret), the configuration
  ``python -m repro.server`` serves,

each against the ``naive`` spec interpreter.  A single divergence
anywhere is a bug in translation, storage, the concurrent plumbing or
the wire protocol; the assertion reports every divergent query at once.
"""

from __future__ import annotations

import random

import pytest

from repro import XPathEngine, parse_document
from repro.errors import ReproError
from repro.testing.documents import DocumentGenerator, build_document
from repro.testing.grammar import (
    DEFAULT_NAMESPACES,
    DEFAULT_VARIABLES,
    QueryGenerator,
)
from repro.testing.oracle import DifferentialRunner
from repro.workloads import generate_dblp, generate_document
from repro.workloads.querygen import (
    FIG5_QUERIES,
    FIG10_QUERIES,
    sample_axis_paths,
)

from .conftest import SAMPLE_XML

#: Hand-picked conformance-style queries for the SAMPLE_XML document:
#: predicates, positions, unions, functions, non-element node kinds.
SAMPLE_QUERIES = (
    "//b",
    "//b/text()",
    "count(//b)",
    "/xdoc/a[@x = 'p']/b[2]",
    "/xdoc/a[last()]/d//b",
    "//*[@id = '7']",
    "//b | //c",
    "//a[b = 'z']/@id",
    "string(//e)",
    "sum(//e)",
    "normalize-space(//e)",
    "//e/comment()",
    "//e/processing-instruction()",
    "boolean(//missing)",
    "//b[. = //c]",
    "/xdoc/a/preceding-sibling::*/descendant::b/@id",
)

CORPORA = {
    "dblp": (lambda: generate_dblp(120), FIG10_QUERIES),
    "generated": (
        lambda: generate_document(120, 4, 3),
        tuple(FIG5_QUERIES) + tuple(sample_axis_paths(limit=20)),
    ),
    "sample": (lambda: parse_document(SAMPLE_XML), SAMPLE_QUERIES),
}

ROUTES = ("naive", "improved", "stored", "concurrent", "server")


@pytest.fixture(scope="module", params=sorted(CORPORA), ids=sorted(CORPORA))
def corpus(request):
    """(queries, runner) for one corpus."""
    build, queries = CORPORA[request.param]
    with DifferentialRunner(build(), routes=ROUTES) as runner:
        yield queries, runner


def test_routes_agree(corpus):
    queries, runner = corpus
    divergences = runner.check_batch(queries)
    assert not divergences, (
        f"{len(divergences)} divergence(s):\n"
        + "\n".join(divergence.describe() for divergence in divergences)
    )


def test_oracle_covers_node_and_scalar_results(corpus):
    """The corpus is a real oracle: both node-sets and scalars appear."""
    queries, runner = corpus
    engine = XPathEngine()
    results = [
        engine.evaluate(query, runner.document.root) for query in queries
    ]
    assert any(isinstance(result, list) and result for result in results)


def test_codegen_rows_run_generated_code():
    """``compiled`` and ``cost`` evaluate each query once, which
    ``codegen="auto"`` alone would interpret (it emits on a plan's
    second execution): every query whose plan lowers must still run
    as generated Python on both rows."""
    rng = random.Random(7)
    document = build_document(DocumentGenerator(rng).generate_spec())
    generator = QueryGenerator(rng)
    queries = list(dict.fromkeys(generator.query() for _ in range(60)))
    with DifferentialRunner(
        document, variables=DEFAULT_VARIABLES,
        namespaces=DEFAULT_NAMESPACES, routes=("naive", "compiled", "cost"),
    ) as runner:
        assert not runner.check_batch(queries)
        for name, target in (
            ("compiled", document.root), ("cost", runner._stored.root),
        ):
            engine = runner._engines[name]
            executions = engine.stats().runtime_counters.get(
                "codegen_executions", 0
            )
            lowering = 0
            for query in queries:
                try:
                    plan = engine.compile(
                        query, namespaces=DEFAULT_NAMESPACES, target=target,
                    )
                except ReproError:
                    continue
                lowering += plan.ensure_generated() is not None
            assert lowering > len(queries) // 2, name
            assert executions == lowering, name

"""Correctness tooling: grammar-directed fuzzing with a differential oracle.

The paper claims *full-fledged* XPath 1.0 coverage; this package is how
the reproduction keeps that claim honest at scale.  It provides

* :class:`~repro.testing.grammar.QueryGenerator` — seeded, weighted,
  type-directed random queries over the complete XPath 1.0 grammar,
* :class:`~repro.testing.documents.DocumentGenerator` — random XML
  documents (mixed content, comments, PIs, namespaces),
* :class:`~repro.testing.oracle.DifferentialRunner` — executes each
  query through the rows of one route table
  (:data:`~repro.testing.oracle.ROUTES`: the naive interpreter, both
  translations, the stored, indexed, cost-optimized and generated-code
  backends, a two-thread batch, collection and server evaluation)
  and reports any row disagreeing with its reference,
* :mod:`~repro.testing.shrink` — a delta-debugging shrinker minimizing
  both the query AST and the document of a finding,
* :mod:`~repro.testing.corpus` — the persistent regression corpus under
  ``tests/corpus/`` that replays every finding forever,
* :class:`~repro.testing.coverage.CoverageTracker` — reports which
  grammar rules and algebra operators a campaign actually exercised.

Run it: ``python -m repro.testing fuzz --seed 0 --n 500 --shrink``.
See ``docs/testing.md`` for the triage workflow.
"""

from repro.testing.corpus import (
    CorpusEntry,
    DEFAULT_CORPUS_DIR,
    append_entry,
    load_corpus,
)
from repro.testing.coverage import CoverageTracker
from repro.testing.documents import (
    DocumentConfig,
    DocumentGenerator,
    build_document,
    spec_from_document,
)
from repro.testing.fuzzer import CampaignReport, Finding, run_campaign
from repro.testing.grammar import (
    DEFAULT_NAMESPACES,
    DEFAULT_VARIABLES,
    GrammarConfig,
    QueryGenerator,
)
from repro.testing.oracle import (
    BASELINE_ROUTE,
    DifferentialRunner,
    Divergence,
    Outcome,
    ROUTE_NAMES,
    canonical_value,
)
from repro.testing.shrink import (
    ast_size,
    shrink_document,
    shrink_query,
    shrink_repro,
    spec_size,
)

__all__ = [
    "BASELINE_ROUTE",
    "CampaignReport",
    "CorpusEntry",
    "CoverageTracker",
    "DEFAULT_CORPUS_DIR",
    "DEFAULT_NAMESPACES",
    "DEFAULT_VARIABLES",
    "DifferentialRunner",
    "Divergence",
    "DocumentConfig",
    "DocumentGenerator",
    "Finding",
    "GrammarConfig",
    "Outcome",
    "QueryGenerator",
    "ROUTE_NAMES",
    "append_entry",
    "ast_size",
    "build_document",
    "canonical_value",
    "load_corpus",
    "run_campaign",
    "shrink_document",
    "shrink_query",
    "shrink_repro",
    "spec_from_document",
    "spec_size",
]

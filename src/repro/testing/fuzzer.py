"""Campaign orchestration: generate, execute, compare, shrink, record.

One :func:`run_campaign` call is fully determined by ``(seed, n)`` plus
the configuration objects: documents and queries are derived from a
single :class:`random.Random` stream, so any finding is reproducible
from the campaign banner alone.

The campaign loop works document-by-document: generate a random
document, stand up a :class:`~repro.testing.oracle.DifferentialRunner`
(which opens the targets its rows need once), generate a batch of
queries, run the batch through every route (``routes`` narrows the
set), and compare.  On a divergence the delta-debugging shrinker
minimizes the ``(query, document)`` pair, checking each candidate on
the baseline, the diverging route and its reference only, and the
minimized reproducer can be appended to the regression corpus.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.compiler.improved import TranslationOptions
from repro.compiler.pipeline import XPathCompiler
from repro.dom.serializer import serialize
from repro.errors import ReproError
from repro.xpath.parser import parse_xpath

from repro.testing.corpus import CorpusEntry, append_entry
from repro.testing.coverage import CoverageTracker
from repro.testing.documents import (
    DocumentConfig,
    DocumentGenerator,
    ElementSpec,
    build_document,
)
from repro.testing.grammar import GrammarConfig, QueryGenerator
from repro.testing.oracle import (
    BASELINE_ROUTE,
    DifferentialRunner,
    Divergence,
    ROUTE_NAMES,
)
from repro.testing.shrink import ast_size, shrink_repro, spec_size


@dataclass
class Finding:
    """One divergence, with enough context to reproduce and to shrink."""

    divergence: Divergence
    document_xml: str
    shrunk_query: Optional[str] = None
    shrunk_document_xml: Optional[str] = None

    def corpus_entry(self, seed: int, n: int, index: int) -> CorpusEntry:
        from repro.testing.grammar import (
            DEFAULT_NAMESPACES,
            DEFAULT_VARIABLES,
        )

        return CorpusEntry(
            name=f"fuzz-seed{seed}-{index}",
            query=self.shrunk_query or self.divergence.query,
            document={
                "kind": "xml",
                "xml": self.shrunk_document_xml or self.document_xml,
            },
            variables=dict(DEFAULT_VARIABLES),
            namespaces=dict(DEFAULT_NAMESPACES),
            source=f"fuzz --seed {seed} --n {n}",
            notes=(
                f"route {self.divergence.route}: "
                f"{self.divergence.outcome.describe()} vs "
                f"{BASELINE_ROUTE} "
                f"{self.divergence.baseline.describe()}"
            ),
        )


@dataclass
class CampaignReport:
    """Everything a fuzz run learned."""

    seed: int
    n: int
    routes: Tuple[str, ...] = ROUTE_NAMES
    queries_run: int = 0
    documents: int = 0
    generation_rejects: int = 0
    value_outcomes: int = 0
    error_outcomes: int = 0
    governance: Optional[Dict[str, object]] = None
    findings: List[Finding] = field(default_factory=list)
    coverage: CoverageTracker = field(default_factory=CoverageTracker)

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        governed = ""
        if self.governance:
            knobs = ", ".join(
                f"{key}={value}"
                for key, value in sorted(self.governance.items())
            )
            governed = f" [governed: {knobs}]"
        lines = [
            f"fuzz campaign seed={self.seed} n={self.n}: "
            f"{self.queries_run} queries over {self.documents} documents "
            f"across {len(self.routes)} routes "
            f"({', '.join(self.routes)}){governed}",
            f"  value outcomes: {self.value_outcomes}, "
            f"error outcomes: {self.error_outcomes}, "
            f"generator rejects: {self.generation_rejects}",
            f"  divergences: {len(self.findings)}",
        ]
        return "\n".join(lines)


def run_campaign(
    seed: int = 0,
    n: int = 500,
    *,
    shrink: bool = False,
    queries_per_doc: int = 25,
    grammar_config: Optional[GrammarConfig] = None,
    document_config: Optional[DocumentConfig] = None,
    corpus_path: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
    max_findings: int = 25,
    routes: Optional[Sequence[str]] = None,
    governance: Optional[Mapping[str, object]] = None,
) -> CampaignReport:
    """Run one deterministic differential fuzz campaign.

    ``n`` queries are spread over ``ceil(n / queries_per_doc)`` random
    documents.  With ``shrink=True`` every finding is minimized; with
    ``corpus_path`` set, minimized reproducers are appended there.
    ``max_findings`` caps the findings list so a systematic divergence
    does not turn the report into a firehose (the cap is noted by the
    CLI when hit).  ``routes`` selects a subset of
    :data:`~repro.testing.oracle.ROUTE_NAMES` (the baseline is always
    included); the default runs them all.  ``governance`` (``timeout`` /
    ``max_tuples`` / ``max_bytes``) runs the algebraic routes under a
    :class:`~repro.engine.governor.ResourceGovernor`: a governed route
    must agree with the ungoverned baseline or abort with exactly a
    governance error — see
    :class:`~repro.testing.oracle.DifferentialRunner`.
    """
    grammar_config = grammar_config or GrammarConfig()
    document_config = document_config or DocumentConfig()
    route_names = _resolve_routes(routes)
    rng = random.Random(seed)
    report = CampaignReport(
        seed=seed, n=n, routes=route_names,
        governance=dict(governance) if governance else None,
    )
    say = progress or (lambda message: None)
    compiler = XPathCompiler(TranslationOptions.improved())

    remaining = n
    while remaining > 0 and len(report.findings) < max_findings:
        batch_size = min(queries_per_doc, remaining)
        doc_rng = random.Random(rng.getrandbits(64))
        query_rng = random.Random(rng.getrandbits(64))
        spec = DocumentGenerator(doc_rng, document_config).generate_spec()
        document = build_document(spec)
        report.documents += 1

        generator = QueryGenerator(query_rng, grammar_config)
        queries: List[str] = []
        asts = []
        attempts = 0
        while len(queries) < batch_size and attempts < batch_size * 4:
            attempts += 1
            ast = generator.query_ast()
            query = ast.unparse()
            try:
                parse_xpath(query)
            except ReproError:
                report.generation_rejects += 1
                continue
            queries.append(query)
            asts.append(ast)
        for ast in asts:
            report.coverage.record_query(ast)
        _record_plan_coverage(compiler, queries, report.coverage)

        with DifferentialRunner(
            document,
            variables=grammar_config.variables,
            namespaces=grammar_config.namespaces,
            routes=route_names,
            governance=governance,
        ) as runner:
            batch = runner.batch_outcomes(queries)
            divergences = [
                divergence
                for query, outcomes in zip(queries, batch)
                for divergence in runner.compare(query, outcomes)
            ]
        report.queries_run += len(queries)
        # A baseline crash counts as an error (and is also a finding).
        values = sum(
            outcomes[BASELINE_ROUTE].kind == "value" for outcomes in batch
        )
        report.value_outcomes += values
        report.error_outcomes += len(queries) - values

        for divergence in divergences:
            if len(report.findings) >= max_findings:
                break
            say(f"divergence: {divergence.describe()}")
            finding = Finding(
                divergence=divergence,
                document_xml=serialize(document),
            )
            if shrink:
                _shrink_finding(
                    finding, divergence, spec, grammar_config, say,
                    governance=governance,
                )
            report.findings.append(finding)
            if corpus_path is not None:
                entry = finding.corpus_entry(
                    seed, n, len(report.findings)
                )
                if append_entry(Path(corpus_path), entry):
                    say(f"corpus: appended {entry.name} to {corpus_path}")

        remaining -= batch_size

    return report


def _resolve_routes(routes: Optional[Sequence[str]]) -> Tuple[str, ...]:
    """Validate a route subset, keeping reporting order and baseline."""
    if routes is None:
        return ROUTE_NAMES
    requested = set(routes)
    unknown = requested - set(ROUTE_NAMES)
    if unknown:
        raise ValueError(
            f"unknown route(s) {sorted(unknown)}; "
            f"expected a subset of {list(ROUTE_NAMES)}"
        )
    requested.add(BASELINE_ROUTE)
    return tuple(name for name in ROUTE_NAMES if name in requested)


def _record_plan_coverage(
    compiler: XPathCompiler, queries: List[str], tracker: CoverageTracker
) -> None:
    """Record which algebra operators the improved translation used."""
    for query in queries:
        try:
            compiled = compiler.compile(query)
            tracker.record_plan(compiled.logical_plan)
        except Exception:  # noqa: BLE001 - coverage must never kill a run
            continue


def _shrink_finding(
    finding: Finding,
    divergence: Divergence,
    spec: ElementSpec,
    grammar_config: GrammarConfig,
    say: Callable[[str], None],
    governance: Optional[Mapping[str, object]] = None,
) -> None:
    try:
        query_ast = parse_xpath(divergence.query)
    except ReproError:
        return
    routes = (BASELINE_ROUTE, divergence.route, divergence.baseline_route)

    def still_diverges(candidate_ast, candidate_spec) -> bool:
        try:
            candidate_query = candidate_ast.unparse()
            parse_xpath(candidate_query)
            candidate_doc = build_document(candidate_spec)
        except Exception:  # noqa: BLE001 - invalid candidate
            return False
        with DifferentialRunner(
            candidate_doc,
            variables=grammar_config.variables,
            namespaces=grammar_config.namespaces,
            routes=routes,
            governance=governance,
        ) as runner:
            return bool(runner.check(candidate_query))

    shrunk_query, shrunk_spec = shrink_repro(
        query_ast, spec, still_diverges
    )
    finding.shrunk_query = shrunk_query.unparse()
    finding.shrunk_document_xml = serialize(build_document(shrunk_spec))
    say(
        f"shrunk to {ast_size(shrunk_query)} AST nodes / "
        f"{spec_size(shrunk_spec)} document nodes: "
        f"{finding.shrunk_query!r}"
    )

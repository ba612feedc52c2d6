"""Timing and rendering for the evaluation harness.

``run_figure_sweep`` produces the runtime-vs-size series of one paper
figure; ``run_fig10_table`` the DBLP table.  Both print in the paper's
format (series per engine / a two-engine time table) so a reproduction
run can be read side by side with the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import evaluate
from repro.bench.engines import make_engine
from repro.bench.experiments import Ablation, Fig10Table, FigureSweep
from repro.dom.document import Document
from repro.engine.session import XPathEngine
from repro.workloads.dblp import generate_dblp
from repro.workloads.docgen import generate_document

_DOC_CACHE: Dict[Tuple[int, int, int], Document] = {}


def cached_document(size: Tuple[int, int, int]) -> Document:
    """Generated documents are cached per (elements, fanout, depth)."""
    if size not in _DOC_CACHE:
        _DOC_CACHE[size] = generate_document(*size)
    return _DOC_CACHE[size]


_DBLP_CACHE: Dict[int, Document] = {}


def cached_dblp(publications: int) -> Document:
    if publications not in _DBLP_CACHE:
        _DBLP_CACHE[publications] = generate_dblp(publications)
    return _DBLP_CACHE[publications]


def time_once(runner, context_node) -> Tuple[float, int]:
    """(seconds, result count) for one execution."""
    start = time.perf_counter()
    count = runner(context_node)
    return time.perf_counter() - start, count


@dataclass
class SeriesPoint:
    elements: int
    seconds: Optional[float]  # None when capped ("curve stops")
    results: Optional[int]
    #: Plan-cache / operator-count columns (see QueryRunner.stats_columns);
    #: lands in BENCH_*.json so compile-amortization is trackable.
    columns: Dict[str, object] = field(default_factory=dict)


@dataclass
class FigureResult:
    figure: str
    query: str
    series: Dict[str, List[SeriesPoint]]

    def render(self) -> str:
        lines = [f"{self.figure}: {self.query}"]
        header = "elements".rjust(10) + "".join(
            name.rjust(18) for name in self.series
        )
        lines.append(header)
        lengths = {len(points) for points in self.series.values()}
        rows = max(lengths) if lengths else 0
        any_series = next(iter(self.series.values()))
        for index in range(rows):
            row = [str(any_series[index].elements).rjust(10)]
            for points in self.series.values():
                point = points[index]
                if point.seconds is None:
                    row.append("—".rjust(18))
                else:
                    row.append(f"{point.seconds * 1000:.1f} ms".rjust(18))
            lines.append("".join(row))
        return "\n".join(lines)


def run_figure_sweep(
    sweep: FigureSweep,
    sizes: Sequence[Tuple[int, int, int]],
) -> FigureResult:
    """Execute one figure's sweep and return its per-engine series."""
    series: Dict[str, List[SeriesPoint]] = {}
    for engine_name in sweep.engines:
        prepare = make_engine(engine_name)
        runner = prepare(sweep.query)
        cap = sweep.engine_size_caps.get(engine_name)
        points: List[SeriesPoint] = []
        for size in sizes:
            elements = size[0]
            if cap is not None and elements > cap:
                # Mirrors the paper: "the curves sometimes stop before
                # reaching the end of the x-axis".
                points.append(SeriesPoint(elements, None, None))
                continue
            document = cached_document(size)
            seconds, count = time_once(runner, document.root)
            points.append(
                SeriesPoint(
                    elements, seconds, count, runner.stats_columns()
                )
            )
        series[engine_name] = points
    return FigureResult(sweep.figure, sweep.query, series)


@dataclass
class TableRow:
    query: str
    times: Dict[str, float]
    results: int


@dataclass
class TableResult:
    rows: List[TableRow]
    engines: Sequence[str]

    def render(self) -> str:
        width = max(len(r.query) for r in self.rows) + 2
        header = "query".ljust(width) + "".join(
            e.rjust(16) for e in self.engines
        ) + "results".rjust(10)
        lines = [header]
        for row in self.rows:
            line = row.query.ljust(width)
            for engine in self.engines:
                line += f"{row.times[engine] * 1000:.1f} ms".rjust(16)
            line += str(row.results).rjust(10)
            lines.append(line)
        return "\n".join(lines)


def run_fig10_table(table: Fig10Table) -> TableResult:
    """Execute the DBLP table: every query on every engine."""
    document = cached_dblp(table.publications)
    rows: List[TableRow] = []
    for query in table.queries:
        times: Dict[str, float] = {}
        results = 0
        for engine_name in table.engines:
            runner = make_engine(engine_name)(query)
            seconds, results = time_once(runner, document.root)
            times[engine_name] = seconds
        rows.append(TableRow(query, times, results))
    return TableResult(rows, table.engines)


def run_cache_amortization(
    query: str,
    size: Tuple[int, int, int],
    repeats: int = 100,
) -> Dict[str, object]:
    """Cold per-call compilation vs. one session's plan cache.

    Evaluates ``query`` ``repeats`` times the one-shot way (full
    compile every call) and through one :class:`XPathEngine`, and
    returns both wall times plus the session's cache columns — the
    compile-amortization row of BENCH_*.json.
    """
    document = cached_document(size)
    node = document.root

    start = time.perf_counter()
    for _ in range(repeats):
        evaluate(query, node)
    cold_seconds = time.perf_counter() - start

    # The paper's engine (NQE iterators + NVM), not generated Python:
    # the operator counters below only move when the tree interprets.
    engine = XPathEngine(codegen="off")
    start = time.perf_counter()
    for _ in range(repeats):
        engine.evaluate(query, node)
    session_seconds = time.perf_counter() - start

    stats = engine.stats()
    return {
        "query": query,
        "repeats": repeats,
        "cold_seconds": cold_seconds,
        "session_seconds": session_seconds,
        "speedup": cold_seconds / session_seconds
        if session_seconds
        else float("inf"),
        "cache_hits": stats.cache.hits,
        "cache_misses": stats.cache.misses,
        "operator_next_calls": sum(
            o.next_calls for o in stats.operators
        ),
        "operator_tuples": sum(o.tuples_out for o in stats.operators),
    }


def run_ablation(ablation: Ablation) -> Dict[str, float]:
    """Run one ablation; returns seconds per variant."""
    document = cached_document(ablation.document)
    timings: Dict[str, float] = {}
    for variant, options in ablation.variants.items():
        prepare = (
            make_engine(variant, options)
            if options is not None
            else make_engine(variant)
        )
        runner = prepare(ablation.query)
        seconds, _count = time_once(runner, document.root)
        timings[variant] = seconds
    return timings

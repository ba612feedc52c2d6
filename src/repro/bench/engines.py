"""Engine registry for the evaluation harness.

The paper compares the Natix algebraic engine against main-memory XPath
interpreters (Xalan-C, xsltproc).  Here:

* ``natix``            — improved translation, NVM subscripts (the paper's engine),
* ``natix-canonical``  — section-3 canonical translation (ablation),
* ``naive``            — dedup-free main-memory interpreter (the
  xsltproc/Xalan stand-in; see DESIGN.md substitution notes),
* ``memo``             — Gottlob-style memoizing interpreter.

Engines are callables ``engine(query) -> QueryRunner`` where the runner
executes against a context node and returns the result-count (benchmarks
count rather than materialize to keep allocation noise out of the
measurement, like the paper's result-drain).  Runners additionally
expose :meth:`QueryRunner.stats_columns` — plan-cache and per-operator
counters recorded into the benchmark JSON next to the timings.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.baselines.memo import MemoInterpreter
from repro.baselines.naive import NaiveInterpreter
from repro.compiler.improved import TranslationOptions
from repro.compiler.pipeline import XPathCompiler
from repro.dom.node import Node
from repro.xpath.context import make_context

StatsColumns = Dict[str, object]


class QueryRunner:
    """A prepared query: compile once, run many times."""

    def __init__(
        self,
        run: Callable[[Node], int],
        label: str,
        stats_columns: Optional[Callable[[], StatsColumns]] = None,
    ):
        self._run = run
        self.label = label
        self._stats_columns = stats_columns

    def __call__(self, context_node: Node) -> int:
        return self._run(context_node)

    def stats_columns(self) -> StatsColumns:
        """Cache-hit / operator-count columns for benchmark reports."""
        return dict(self._stats_columns()) if self._stats_columns else {}


def _operator_columns(compiled) -> StatsColumns:
    operators = compiled.operator_stats()
    return {
        "operator_count": len(operators),
        "operator_next_calls": sum(o.next_calls for o in operators),
        "operator_tuples": sum(o.tuples_out for o in operators),
    }


def _compiled_engine(options: TranslationOptions, label: str):
    compiler = XPathCompiler(options)

    def prepare(query: str) -> QueryRunner:
        compiled = compiler.compile(query)

        def run(context_node: Node) -> int:
            result = compiled.evaluate(context_node)
            return len(result) if isinstance(result, list) else 1

        def columns() -> StatsColumns:
            # One ahead-of-time compile, no cache in the loop.
            return {"cache_hits": 0, "cache_misses": 1,
                    **_operator_columns(compiled)}

        return QueryRunner(run, label, columns)

    return prepare


def _interpreter_engine(factory, label: str):
    def prepare(query: str) -> QueryRunner:
        interpreter = factory()

        def run(context_node: Node) -> int:
            result = interpreter.evaluate(query, make_context(context_node))
            return len(result) if isinstance(result, list) else 1

        return QueryRunner(run, label)

    return prepare


ENGINE_REGISTRY: Dict[str, Callable[[str], QueryRunner]] = {
    "natix": _compiled_engine(TranslationOptions.improved(), "natix"),
    "natix-canonical": _compiled_engine(
        TranslationOptions.canonical(), "natix-canonical"
    ),
    "naive": _interpreter_engine(NaiveInterpreter, "naive"),
    "memo": _interpreter_engine(MemoInterpreter, "memo"),
}


def make_engine(
    name: str, options: Optional[TranslationOptions] = None
) -> Callable[[str], QueryRunner]:
    """Look up an engine, or build a custom algebraic one from options."""
    if options is not None:
        return _compiled_engine(options, name)
    try:
        return ENGINE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; expected one of "
            f"{sorted(ENGINE_REGISTRY)}"
        ) from None

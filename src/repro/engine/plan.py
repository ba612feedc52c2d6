"""Executable physical plans and the one execution driver.

:class:`PhysicalPlan` owns the iterator tree and the register file.  A
plan is compiled once per query and can be executed many times with
different contexts; memoizing iterators (χ^mat, MemoX) are reset
between executions so results never leak across documents or context
nodes.

Every plan — this module's :class:`PhysicalPlan` and a generated
:class:`~repro.codegen.GeneratedPlan` — has a ``kind`` and a
``rows(context)`` generator of result values, and runs through the
driver below: :func:`collect_results` and :func:`count_results` are
its ``execute`` and ``execute_count``, and :func:`stream_results` the
interpreter's ``execute_stream``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator as PyIterator, List, Optional, Sequence

from repro.engine.context import ExecutionContext
from repro.engine.iterator import Iterator, RuntimeState
from repro.engine.tuples import AttributeManager
from repro.errors import ExecutionError
from repro.xpath.datamodel import XPathValue


def _admitted_rows(plan, context: ExecutionContext):
    """``plan.rows(context)`` after the admission check: a query whose
    deadline passed while it waited for a worker (or whose cancel token
    already tripped) aborts before touching a single page."""
    if context.governor is not None:
        context.governor.check()
    return plan.rows(context)


def stream_results(
    plan, context: ExecutionContext
) -> PyIterator[XPathValue]:
    """Run ``plan`` yielding its results one at a time.

    The rows start on the first ``next()`` and are closed when this
    generator is exhausted, garbage-collected or ``close()``d; a caller
    that abandons a stream must close it before reusing an interpreted
    plan instance.  A scalar plan must yield exactly one value.
    """
    governor = context.governor
    rows = _admitted_rows(plan, context)
    try:
        if plan.kind == "scalar":
            for value in rows:
                yield value
                return
            raise ExecutionError("scalar plan produced no tuple")
        for value in rows:
            if governor is not None:
                # Every result item is a materialization like any
                # other; a star-join producing millions of nodes trips
                # the byte budget here even though every operator
                # upstream pipelines.
                governor.add_bytes(16)
            yield value
    finally:
        rows.close()


def collect_results(plan, context: ExecutionContext) -> XPathValue:
    """Run ``plan``; node-set results are collected as a list."""
    if context.governor is None and plan.kind == "sequence":
        # Ungoverned: nothing to check or charge per item.
        return list(plan.rows(context))
    results = list(stream_results(plan, context))
    return results if plan.kind == "sequence" else results[0]


def count_results(plan, context: ExecutionContext) -> int:
    """Run ``plan`` counting its result tuples without collecting them."""
    return sum(1 for _ in _admitted_rows(plan, context))


@dataclass(frozen=True)
class OperatorStats:
    """Instrumentation snapshot of one physical operator."""

    op_id: int
    operator: str
    next_calls: int
    tuples_out: int


class PhysicalPlan:
    """A compiled, repeatedly executable NQE plan."""

    def __init__(
        self,
        root: Iterator,
        runtime: RuntimeState,
        manager: AttributeManager,
        result_slot: int,
        kind: str,
        context_slot: Optional[int] = None,
        position_slot: Optional[int] = None,
        size_slot: Optional[int] = None,
        resettable: Sequence[Iterator] = (),
    ):
        if kind not in ("sequence", "scalar"):
            raise ValueError(f"unknown plan kind {kind!r}")
        self.root = root
        self.runtime = runtime
        self.manager = manager
        self.result_slot = result_slot
        self.kind = kind
        self.context_slot = context_slot
        self.position_slot = position_slot
        self.size_slot = size_slot
        self.resettable = tuple(resettable)

    # ------------------------------------------------------------------

    def _prepare(self, context: ExecutionContext) -> None:
        runtime = self.runtime
        runtime.context = context
        runtime.governor = context.governor
        for index in range(len(runtime.regs)):
            runtime.regs[index] = None
        if self.context_slot is not None:
            runtime.regs[self.context_slot] = context.context_node
        if self.position_slot is not None:
            runtime.regs[self.position_slot] = float(context.position)
        if self.size_slot is not None:
            runtime.regs[self.size_slot] = float(context.size)
        for iterator in self.resettable:
            _reset_memo(iterator)

    def rows(self, context: ExecutionContext) -> PyIterator[XPathValue]:
        """One execution: the result register of every tuple the
        iterator tree produces."""
        self._prepare(context)
        root, regs, slot = self.root, self.runtime.regs, self.result_slot
        root.open()
        try:
            while root.next():
                yield regs[slot]
        finally:
            root.close()

    execute = collect_results
    execute_stream = stream_results
    execute_count = count_results

    @property
    def stats(self) -> Counter:
        """Runtime counters accumulated across executions."""
        return self.runtime.stats

    def reset_stats(self) -> None:
        self.runtime.stats.clear()
        for iterator in self.iter_operators():
            iterator.reset_counters()

    # ------------------------------------------------------------------

    def iter_operators(self) -> PyIterator[Iterator]:
        """Preorder walk of the iterator tree (main pipeline only;
        iterators nested inside subscripts are not visited)."""
        stack = [self.root]
        while stack:
            iterator = stack.pop()
            yield iterator
            stack.extend(reversed(list(iterator.children())))

    def operator_stats(self) -> "List[OperatorStats]":
        """Per-operator instrumentation counters, in preorder.

        Counters accumulate across executions of this plan; use
        :meth:`reset_stats` to zero them.
        """
        return [
            OperatorStats(
                op_id=index,
                operator=iterator.op_name,
                next_calls=iterator.next_calls,
                tuples_out=iterator.tuples_out,
            )
            for index, iterator in enumerate(self.iter_operators())
        ]


def _reset_memo(iterator: Iterator) -> None:
    """Clear cross-execution memo state on χ^mat / MemoX iterators."""
    from repro.engine.basic import MatMapIt
    from repro.engine.materialize import MemoXIt

    if isinstance(iterator, MatMapIt):
        iterator._memo.clear()
    elif isinstance(iterator, MemoXIt):
        iterator._memo.clear()

"""Index-backed location steps (physical IdxName / IdxDesc).

Both iterators are *adaptive* unnest-maps: per input tuple they ask
:func:`~repro.index.runtime.subtree_candidates` — the one place that
decides whether a context may use the interval probe — for the step's
candidates.  If the context node's document carries fresh structural
indexes, the step is answered from the name index — a binary-search
slice of the posting list over the context's (pre, post) interval —
and only the candidate ids are materialized as nodes.  If it does not
(in-memory document, stale indexes, or a context the interval logic
does not cover), the tuple falls back to ordinary axis navigation, so a
compiled index plan can never produce a wrong answer on a non-indexed
target.  The generated-Python backend lowers both scans onto the same
helper (:mod:`repro.codegen.emitter`).

Every index candidate is still re-checked through the compiled node
test before it is emitted: the posting list keys the *stored* QName, a
superset of what a plain-name test matches (the test additionally
rejects elements carrying a namespace), so the recheck is what keeps
namespace semantics exact.

Counters (``RuntimeState.stats``):

``index_hits`` / ``index_skips``
    input tuples answered from the index vs. tuples that fell back,
``index_candidates``
    posting-list candidates materialized and tested.
"""

from __future__ import annotations

from repro.dom.node import Node
from repro.engine.iterator import Iterator, RuntimeState
from repro.engine.unnest import UnnestMapIt
from repro.errors import ExecutionError
from repro.index.runtime import subtree_candidates
from repro.xpath.axes import Axis, NodeTestKind, iter_axis


class _IndexScanIt(UnnestMapIt):
    """Shared adaptive machinery of the two index scans."""

    __slots__ = ("_from_index", "_context_node")

    def __init__(self, runtime: RuntimeState, child: Iterator,
                 in_slot: int, out_slot: int, axis: Axis, name: str):
        super().__init__(runtime, child, in_slot, out_slot, axis,
                         NodeTestKind.NAME, name)
        #: Whether ``_generator`` walks index candidates (re-checked by
        #: ``_emit``) or navigated axis nodes (plain node test).
        self._from_index = False
        self._context_node = None

    def open(self) -> None:
        super().open()
        self._context_node = None

    def _emit(self, candidate: Node) -> bool:
        """Whether one index candidate belongs to the step's result."""
        raise NotImplementedError

    def _next(self) -> bool:
        regs = self.runtime.regs
        stats = self.runtime.stats
        governor = self.runtime.governor
        tuples_key = f"tuples:{self.op_name}"
        while True:
            if self._generator is not None:
                if self._from_index:
                    accept, visited_key = self._emit, "index_candidates"
                else:
                    accept, visited_key = self._test, "axis_nodes_visited"
                for candidate in self._generator:
                    stats[visited_key] += 1
                    if governor is not None:
                        governor.tick()
                    if accept(candidate):
                        regs[self.out_slot] = candidate
                        stats[tuples_key] += 1
                        return True
                self._generator = None
            if not self.child.next():
                return False
            context_node = regs[self.in_slot]
            if context_node is None:
                continue
            if not isinstance(context_node, Node):
                raise ExecutionError(
                    f"location step input is not a node: {context_node!r}"
                )
            self._context_node = context_node
            candidates = subtree_candidates(context_node, self.test_name)
            if candidates is not None:
                stats["index_hits"] += 1
                self._from_index = True
                self._generator = iter(candidates)
            else:
                stats["index_skips"] += 1
                self._from_index = False
                self._generator = iter_axis(self.axis, context_node)

    def close(self) -> None:
        super().close()
        self._context_node = None


class IndexDescendantScanIt(_IndexScanIt):
    """IdxDesc — descendant::name from the posting-list interval slice."""

    __slots__ = ()

    def __init__(self, runtime: RuntimeState, child: Iterator,
                 in_slot: int, out_slot: int, name: str):
        super().__init__(runtime, child, in_slot, out_slot,
                         Axis.DESCENDANT, name)

    def _emit(self, candidate: Node) -> bool:
        return self._test(candidate)


class IndexNameScanIt(_IndexScanIt):
    """IdxName — child::name: the interval slice plus a parent check."""

    __slots__ = ()

    def __init__(self, runtime: RuntimeState, child: Iterator,
                 in_slot: int, out_slot: int, name: str):
        super().__init__(runtime, child, in_slot, out_slot,
                         Axis.CHILD, name)

    def _emit(self, candidate: Node) -> bool:
        # Node proxies are singletons per id, so identity is the exact
        # parent test.
        return (candidate.parent is self._context_node
                and self._test(candidate))

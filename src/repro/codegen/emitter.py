"""Plan-to-Python code generation (produce/consume emission).

Walks a logical algebra plan and emits ONE specialized Python generator
function per plan.  Operators are fused into straight-line loops in
push style: every operator's *produce* code contains its consumer's
code at the innermost point, so a cache-hot ``unnest → select → map``
chain runs as a single nested ``for``/``if`` block with zero per-tuple
virtual calls.  Node tests are inlined (mirroring
:func:`~repro.xpath.axes.make_node_test` case by case), subscripts are
lowered to inline expressions (:mod:`repro.codegen.scalars`), and
registers become plain Python locals named ``r<slot>`` — shared slots
(the attribute manager's aliases) collapse to a single local, exactly
like the interpreter's shared register file.

Governance is amortized: instead of a ``tick()`` per axis candidate,
loops maintain two local counters (``_ev`` events, ``_tu`` tuples) and
flush them to the :class:`~repro.engine.governor.ResourceGovernor`
every 256 events, preserving deadline, budget and cancellation
semantics with bounded detection latency.  Materializing operators
(sort, cross product, Tmp^cs, MemoX) charge byte budgets per snapshot
exactly like the interpreter's ``snapshot_cost``.

Index scans (``IdxName`` / ``IdxDesc``) are lowered like any other
location step: per context tuple the generated code asks
:func:`~repro.index.runtime.subtree_candidates` — the same helper the
iterator engine's adaptive scans call — for the posting-list interval
slice, substitutes the navigated axis when the helper declines, and
runs *one* candidate loop over whichever it got (node test inlined,
``candidate.parent is context`` for the child variant), so the
consumer is emitted once per step however many steps are routed.
``index_hits`` / ``index_skips`` / ``index_candidates`` accumulate in
locals and are flushed into :attr:`GeneratedPlan.stats` once per
execution.

Operators with no emitter (binary grouping) raise
:class:`CodegenUnsupported`; callers fall back to the iterator engine.
"""

from __future__ import annotations

import re
import threading
from collections import Counter
from typing import Callable, List, Sequence, Set

from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.codegen import scalars
from repro.codegen.runtime import base_namespace
from repro.compiler.physical import (
    aggregate_input,
    optional_slot,
    owned_slots,
    register_layout,
    result_attr,
    scalar_key_slots,
    tmpcs_slots,
    top_slots,
    union_inputs,
)
from repro.engine.plan import collect_results, count_results
from repro.engine.tuples import AttributeManager
from repro.errors import CodegenError
from repro.xpath.axes import Axis, NodeTestKind, principal_node_kind


class CodegenUnsupported(CodegenError):
    """The plan contains something the Python backend cannot compile."""


#: Hard ceiling on emitted lines — ⊕ duplicates its consumer per branch,
#: so pathological union nests could otherwise explode quadratically.
_MAX_LINES = 20000

#: Axes cheap enough to enumerate without the generator indirection.
_INLINE_AXIS = {
    Axis.CHILD: "{src}.children",
    Axis.ATTRIBUTE: "{src}.attributes",
    Axis.DESCENDANT: "{src}.iter_descendants()",
}

_GOV_TUPLE = (
    "_ev += 1; _tu += 1",
    "if _ev >= 256:",
    "    _ev, _tu = _flush(_tu)",
)
_GOV_TICK = (
    "_ev += 1",
    "if _ev >= 256:",
    "    _ev, _tu = _flush(_tu)",
)

Consume = Callable[["_Fn"], None]


class _Block:
    __slots__ = ("fn",)

    def __init__(self, fn: "_Fn"):
        self.fn = fn

    def __enter__(self) -> None:
        self.fn.indent += 1

    def __exit__(self, *exc_info) -> None:
        self.fn.indent -= 1


class _Fn:
    """One function scope being emitted (the plan or a nested generator)."""

    __slots__ = ("name", "params", "lines", "defs", "touched", "indent",
                 "emitter")

    def __init__(self, name: str, emitter: "_Emitter", params: str = ""):
        self.name = name
        self.params = params
        self.lines: List[str] = []
        self.defs: List["_Fn"] = []
        #: Register locals assigned (or snapshot-read) in this scope;
        #: they are initialized to None at scope top, mirroring the
        #: interpreter's zeroed register file.
        self.touched: Set[str] = set()
        self.indent = 0
        self.emitter = emitter

    def w(self, line: str) -> None:
        self.emitter.count_line()
        self.lines.append("    " * self.indent + line)

    def wmany(self, lines: Sequence[str]) -> None:
        for line in lines:
            self.w(line)

    def block(self) -> _Block:
        return _Block(self)

    def touch(self, local: str) -> None:
        self.touched.add(local)


#: Register-local references in a generated line (string literals are
#: stripped first so a node test against an element literally named
#: ``r1`` cannot be mistaken for a register).
_REG_RE = re.compile(r"\br\d+\b")
_STR_RE = re.compile(r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"")


def _referenced_registers(lines: Sequence[str]) -> List[str]:
    refs: Set[str] = set()
    for line in lines:
        refs.update(_REG_RE.findall(_STR_RE.sub("", line)))
    return sorted(refs, key=lambda name: int(name[1:]))


def _render(fn: _Fn, depth: int, preamble: Sequence[str],
            shared: str) -> List[str]:
    """Render ``fn``; nested defs declare the ``shared`` counters."""
    pad = "    " * depth
    inner = "    " * (depth + 1)
    out = [f"{pad}def {fn.name}({fn.params}):"]
    for line in preamble:
        out.append(inner + line)
    for sub in fn.defs:
        # Registers arrive as parameters (the caller passes its current
        # values, mirroring the interpreter seeding a nested plan from
        # the outer tuple), so only the shared counters need wiring.
        out.extend(_render(sub, depth + 1, [f"nonlocal {shared}"], shared))
    for line in fn.lines:
        out.append(inner + line)
    # Every emitted function is a generator, even when its body turned
    # out to contain no reachable yield (an empty ⊕, say).
    out.append(inner + "if False:")
    out.append(inner + "    yield None")
    return out


class _Emitter:
    """Stateful produce/consume walk over one logical plan."""

    def __init__(self) -> None:
        self.manager = AttributeManager()
        self.slot = self.manager.slot
        self._n = 0
        self._lines = 0
        #: Per-execution setup lines in the main function (memo dicts,
        #: namespace-sensitive node-test closures).
        self.hoist: List[str] = []
        #: Set once an index scan is lowered: the plan then carries the
        #: ``_nh``/``_ns``/``_nc`` probe counters and their flush.
        self.index_counters = False

    # -- bookkeeping ---------------------------------------------------

    def count_line(self) -> None:
        self._lines += 1
        if self._lines > _MAX_LINES:
            raise CodegenUnsupported("generated plan too large")

    def uid(self) -> int:
        self._n += 1
        return self._n

    def local(self, attr: str) -> str:
        return f"r{self.manager.slot(attr)}"

    # -- shared emission helpers ---------------------------------------

    def gov_tuple(self, fn: _Fn) -> None:
        fn.wmany(_GOV_TUPLE)

    def gov_tick(self, fn: _Fn) -> None:
        fn.wmany(_GOV_TICK)

    def snapshot_expr(self, slots: Sequence[int]) -> str:
        if not slots:
            return "()"
        body = ", ".join(f"r{s}" for s in slots)
        if len(slots) == 1:
            body += ","
        return f"({body})"

    def restore_line(self, slots: Sequence[int], source: str,
                     fn: _Fn) -> None:
        if not slots:
            return
        targets = ", ".join(f"r{s}" for s in slots)
        if len(slots) == 1:
            targets += ","
        for slot in slots:
            fn.touch(f"r{slot}")
        fn.w(f"{targets} = {source}")

    def charge_snapshot(self, fn: _Fn, slots: Sequence[int]) -> None:
        cost = 56 + 16 * len(slots)
        fn.w("if _gov is not None:")
        with fn.block():
            fn.w(f"_gov.add_bytes({cost})")

    def finalize_sub(self, sub: _Fn) -> str:
        """Parameterize a nested def over every register it references.

        The caller passes its current register values at the call site,
        which is exactly the interpreter's dependent-execution contract:
        a nested plan (subscript, aggregate source, semijoin probe) is
        seeded from the enclosing tuple, and its own register writes
        never leak back out.  Returns the argument list for the call.
        """
        regs = ", ".join(_referenced_registers(sub.lines))
        sub.params = regs
        return regs

    def lower_nested(self, nested: S.SNested, fn: _Fn) -> str:
        """Emit a nested plan as a generator def; return the agg call."""
        attr = result_attr(nested.plan, "nested plan")
        i = self.uid()
        sub = _Fn(f"_np{i}", self)
        result = self.local(attr)
        self.emit(nested.plan, sub, lambda f: f.w(f"yield {result}"))
        args = self.finalize_sub(sub)
        fn.defs.append(sub)
        return f"_agg({nested.agg!r}, _np{i}({args}))"

    # -- dispatch ------------------------------------------------------

    def emit(self, plan: ops.Operator, fn: _Fn, consume: Consume) -> None:
        method = getattr(self, f"_emit_{type(plan).__name__}", None)
        if method is None:
            raise CodegenUnsupported(
                f"no Python codegen for {type(plan).__name__}"
            )
        method(plan, fn, consume)

    # -- leaves --------------------------------------------------------

    def _emit_SingletonScan(self, plan: ops.SingletonScan, fn: _Fn,
                            consume: Consume) -> None:
        consume(fn)

    def _emit_VarScan(self, plan: ops.VarScan, fn: _Fn,
                      consume: Consume) -> None:
        i = self.uid()
        slot = self.slot(plan.attr)
        fn.w(f"_vs{i} = ctx.variable({plan.variable!r})")
        fn.w(f"if not isinstance(_vs{i}, list):")
        with fn.block():
            fn.w(
                "raise _ExecutionError('variable $%s used as a node-set "
                f"but bound to %s' % ({plan.variable!r}, "
                f"type(_vs{i}).__name__))"
            )
        fn.touch(f"r{slot}")
        fn.w(f"for r{slot} in _vs{i}:")
        with fn.block():
            self.gov_tuple(fn)
            consume(fn)

    # -- unary pipeline ops --------------------------------------------

    def _emit_Select(self, plan: ops.Select, fn: _Fn,
                     consume: Consume) -> None:
        def selected(f: _Fn) -> None:
            predicate = scalars.lower_bool(plan.predicate, self, f)
            f.w(f"if {predicate}:")
            with f.block():
                consume(f)

        self.emit(plan.child, fn, selected)

    def _emit_MapOp(self, plan: ops.MapOp, fn: _Fn,
                    consume: Consume) -> None:
        if isinstance(plan.expr, S.SAttr):
            # Pure aliasing map: the register layout already bound the
            # new attribute to the same slot; no code.
            self.emit(plan.child, fn, consume)
            return
        slot = self.slot(plan.attr)

        def mapped(f: _Fn) -> None:
            code, _ = scalars.lower(plan.expr, self, f)
            f.touch(f"r{slot}")
            f.w(f"r{slot} = {code}")
            consume(f)

        self.emit(plan.child, fn, mapped)

    def _emit_MatMap(self, plan: ops.MatMap, fn: _Fn,
                     consume: Consume) -> None:
        i = self.uid()
        slot = self.slot(plan.attr)
        key_slots = scalar_key_slots(self.manager, plan.expr)
        # The memo lives for one whole plan execution (the interpreter
        # clears it in _prepare; a fresh dict per call is the same).
        self.hoist.append(f"_mm{i} = {{}}")
        key = ", ".join(f"_hashable(r{s})" for s in key_slots)
        trail = "," if len(key_slots) == 1 else ""

        def memoized(f: _Fn) -> None:
            f.w(f"_mk{i} = ({key}{trail})")
            f.touch(f"r{slot}")
            f.w(f"if _mk{i} in _mm{i}:")
            with f.block():
                f.w(f"r{slot} = _mm{i}[_mk{i}]")
            f.w("else:")
            with f.block():
                code, _ = scalars.lower(plan.expr, self, f)
                f.w(f"r{slot} = {code}")
                f.w(f"_mm{i}[_mk{i}] = r{slot}")
            consume(f)

        self.emit(plan.child, fn, memoized)

    def _emit_PosMap(self, plan: ops.PosMap, fn: _Fn,
                     consume: Consume) -> None:
        i = self.uid()
        slot = self.slot(plan.attr)
        ctx_slot = optional_slot(self.manager, plan.context_attr)
        fn.w(f"_pc{i} = 0")
        if ctx_slot is not None:
            fn.w(f"_pf{i} = True")
            fn.w(f"_pl{i} = None")

        def counted(f: _Fn) -> None:
            if ctx_slot is not None:
                f.w(f"if _pf{i} or r{ctx_slot} != _pl{i}:")
                with f.block():
                    f.w(f"_pc{i} = 0")
                    f.w(f"_pl{i} = r{ctx_slot}")
                    f.w(f"_pf{i} = False")
            f.w(f"_pc{i} += 1")
            f.touch(f"r{slot}")
            f.w(f"r{slot} = float(_pc{i})")
            consume(f)

        self.emit(plan.child, fn, counted)

    def _emit_ProjectDup(self, plan: ops.ProjectDup, fn: _Fn,
                         consume: Consume) -> None:
        i = self.uid()
        slot = self.slot(plan.attr)
        fn.w(f"_dd{i} = set()")

        def dedup(f: _Fn) -> None:
            f.w(f"_dh{i} = _hashable(r{slot})")
            f.w(f"if _dh{i} not in _dd{i}:")
            with f.block():
                f.w(f"_dd{i}.add(_dh{i})")
                consume(f)

        self.emit(plan.child, fn, dedup)

    def _emit_Project(self, plan: ops.Project, fn: _Fn,
                      consume: Consume) -> None:
        # Renames were unified in the register layout; like the
        # interpreter's PassThroughIt this emits nothing.
        self.emit(plan.child, fn, consume)

    # -- unnesting -----------------------------------------------------

    def _emit_UnnestMap(self, plan: ops.UnnestMap, fn: _Fn,
                        consume: Consume, indexed: bool = False) -> None:
        src = f"r{self.slot(plan.in_attr)}"
        out_slot = self.slot(plan.out_attr)
        template = _INLINE_AXIS.get(plan.axis)
        axis_expr = (
            template.format(src=src)
            if template is not None
            else f"_iter_axis(_AX_{plan.axis.name}, {src})"
        )

        def unnested(f: _Fn) -> None:
            i = self.uid()
            f.w(f"if {src} is None:")
            with f.block():
                f.w("pass")
            f.w(f"elif not isinstance({src}, _Node):")
            with f.block():
                f.w(
                    "raise _ExecutionError("
                    f"'location step input is not a node: %r' % ({src},))"
                )
            f.w("else:")
            with f.block():
                cand = f"_c{i}"
                source = axis_expr
                if indexed:
                    # Index or navigation is decided per context tuple;
                    # both feed the one candidate loop below.
                    self.index_counters = True
                    source = f"_ic{i}"
                    f.w(f"{source} = _index_candidates("
                        f"{src}, {plan.test_name!r})")
                    f.w(f"_ix{i} = {source} is not None")
                    f.w(f"if _ix{i}:")
                    with f.block():
                        f.w("_nh += 1")
                    f.w("else:")
                    with f.block():
                        f.w("_ns += 1")
                        f.w(f"{source} = {axis_expr}")
                f.w(f"for {cand} in {source}:")
                with f.block():
                    if indexed:
                        f.w(f"_nc += _ix{i}")
                    self.gov_tick(f)

                    def matched(ff: _Fn) -> None:
                        ff.touch(f"r{out_slot}")
                        ff.w(f"r{out_slot} = {cand}")
                        self.gov_tuple(ff)
                        consume(ff)

                    if indexed and plan.axis == Axis.CHILD:
                        # The interval holds every descendant; proxies
                        # are singletons per id, so identity is the
                        # exact parent test (navigated children pass).
                        f.w(f"if {cand}.parent is {src} or not _ix{i}:")
                        with f.block():
                            self._emit_node_test(plan, f, cand, matched)
                    else:
                        self._emit_node_test(plan, f, cand, matched)

        self.emit(plan.child, fn, unnested)

    def _emit_IndexNameScan(self, plan: ops.IndexNameScan, fn: _Fn,
                            consume: Consume) -> None:
        self._emit_UnnestMap(plan, fn, consume, indexed=True)

    def _emit_IndexDescendantScan(self, plan: ops.IndexDescendantScan,
                                  fn: _Fn, consume: Consume) -> None:
        self._emit_UnnestMap(plan, fn, consume, indexed=True)

    def _emit_node_test(self, plan: ops.UnnestMap, fn: _Fn, cand: str,
                        body: Consume) -> None:
        """Inline the node test, mirroring make_node_test case by case."""
        kind, name, axis = plan.test_kind, plan.test_name, plan.axis
        if kind == NodeTestKind.NODE:
            body(fn)
            return
        if kind == NodeTestKind.TEXT:
            fn.w(f"if {cand}.kind is _K_TEXT:")
            with fn.block():
                body(fn)
            return
        if kind == NodeTestKind.COMMENT:
            fn.w(f"if {cand}.kind is _K_COMMENT:")
            with fn.block():
                body(fn)
            return
        if kind == NodeTestKind.PI:
            condition = f"{cand}.kind is _K_PROCESSING_INSTRUCTION"
            if name is not None:
                condition += f" and {cand}.name == {name!r}"
            fn.w(f"if {condition}:")
            with fn.block():
                body(fn)
            return
        principal = principal_node_kind(axis)
        if kind == NodeTestKind.ANY_NAME and name is None:
            fn.w(f"if {cand}.kind is _K_{principal.name}:")
            with fn.block():
                body(fn)
            return
        if kind == NodeTestKind.NAME and ":" not in (name or ""):
            fn.w(
                f"if {cand}.kind is _K_{principal.name} "
                f"and {cand}.name == {name!r}:"
            )
            with fn.block():
                fn.w(f"_d = {cand}.document")
                fn.w(
                    "if (_d is not None and not getattr(_d, "
                    "'has_namespace_declarations', True)) "
                    f"or not {cand}.namespace_uri():"
                )
                with fn.block():
                    body(fn)
            return
        # Prefixed names and prefix:* need the expression context's
        # namespace bindings — compile the closure once per execution.
        j = self.uid()
        self.hoist.append(
            f"_nt{j} = _make_node_test(_NT_{kind.name}, {name!r}, "
            f"_AX_{axis.name}, ctx.namespaces)"
        )
        fn.w(f"if _nt{j}({cand}):")
        with fn.block():
            body(fn)

    def _emit_ExprUnnestMap(self, plan: ops.ExprUnnestMap, fn: _Fn,
                            consume: Consume) -> None:
        i = self.uid()
        slot = self.slot(plan.attr)

        def unnested(f: _Fn) -> None:
            code, _ = scalars.lower(plan.expr, self, f)
            f.w(f"_uv{i} = {code}")
            f.w(f"if not isinstance(_uv{i}, list):")
            with f.block():
                f.w(f"_uv{i} = [_uv{i}]")
            f.touch(f"r{slot}")
            f.w(f"for r{slot} in _uv{i}:")
            with f.block():
                f.w(f"if r{slot} is not None:")
                with f.block():
                    self.gov_tuple(f)
                    consume(f)

        self.emit(plan.child, fn, unnested)

    def _emit_Unnest(self, plan: ops.Unnest, fn: _Fn,
                     consume: Consume) -> None:
        # μ is the degenerate unnest-map reading the nested attribute.
        shim = ops.ExprUnnestMap(
            plan.child, plan.out_attr, S.SAttr(plan.nested_attr)
        )
        self._emit_ExprUnnestMap(shim, fn, consume)

    # -- binary ops ----------------------------------------------------

    def _emit_DJoin(self, plan: ops.DJoin, fn: _Fn,
                    consume: Consume) -> None:
        # The dependent side's code (including its state inits) lands
        # inside the outer loop body: re-running it per outer tuple IS
        # the re-open the interpreter performs.
        def per_left(f: _Fn) -> None:
            self.emit(plan.right, f, consume)

        self.emit(plan.left, fn, per_left)

    def _emit_CrossProduct(self, plan: ops.CrossProduct, fn: _Fn,
                           consume: Consume) -> None:
        i = self.uid()
        owned = owned_slots(self.manager, plan.right)
        fn.w(f"_xb{i} = []")

        def collect(f: _Fn) -> None:
            f.w(f"_xs{i} = {self.snapshot_expr(owned)}")
            self.charge_snapshot(f, owned)
            f.w(f"_xb{i}.append(_xs{i})")

        self.emit(plan.right, fn, collect)

        def per_left(f: _Fn) -> None:
            f.w(f"for _xr{i} in _xb{i}:")
            with f.block():
                self.restore_line(owned, f"_xr{i}", f)
                self.gov_tuple(f)
                consume(f)

        self.emit(plan.left, fn, per_left)

    def _emit_SemiJoin(self, plan, fn: _Fn, consume: Consume,
                       anti: bool = False) -> None:
        def per_left(f: _Fn) -> None:
            i = self.uid()
            probe = _Fn(f"_pr{i}", self)

            def witness(pf: _Fn) -> None:
                predicate = scalars.lower_bool(plan.predicate, self, pf)
                pf.w(f"if {predicate}:")
                with pf.block():
                    pf.w("yield True")

            self.emit(plan.right, probe, witness)
            args = self.finalize_sub(probe)
            f.defs.append(probe)
            f.w(f"_w{i} = next(_pr{i}({args}), False)")
            f.w(f"if {'not _w' if anti else '_w'}{i}:")
            with f.block():
                self.gov_tuple(f)
                consume(f)

        self.emit(plan.left, fn, per_left)

    def _emit_AntiJoin(self, plan: ops.AntiJoin, fn: _Fn,
                       consume: Consume) -> None:
        self._emit_SemiJoin(plan, fn, consume, anti=True)

    def _emit_Concat(self, plan: ops.Concat, fn: _Fn,
                     consume: Consume) -> None:
        for branch in union_inputs(plan):
            self.emit(branch, fn, consume)

    # -- materializing ops ---------------------------------------------

    def _emit_SortOp(self, plan: ops.SortOp, fn: _Fn,
                     consume: Consume) -> None:
        i = self.uid()
        owned = owned_slots(self.manager, plan.child)
        attr_slot = self.slot(plan.attr)
        fn.w(f"_sb{i} = []")

        def collect(f: _Fn) -> None:
            f.w(f"if not isinstance(r{attr_slot}, _Node):")
            with f.block():
                f.w(
                    "raise _ExecutionError("
                    "'Sort requires a node-valued attribute')"
                )
            f.w(f"_ss{i} = {self.snapshot_expr(owned)}")
            self.charge_snapshot(f, owned)
            f.w(f"_sb{i}.append((r{attr_slot}.sort_key, _ss{i}))")

        self.emit(plan.child, fn, collect)
        fn.w(f"_sb{i}.sort(key=_sort_key0)")
        fn.w(f"for _sp{i} in _sb{i}:")
        with fn.block():
            self.restore_line(owned, f"_sp{i}[1]", fn)
            self.gov_tuple(fn)
            consume(fn)

    def _emit_TmpCs(self, plan: ops.TmpCs, fn: _Fn,
                    consume: Consume) -> None:
        i = self.uid()
        owned, cp_slot, cs_slot, ctx_slot = tmpcs_slots(self.manager, plan)
        cp_pos = owned.index(cp_slot)
        ctx_pos = owned.index(ctx_slot) if ctx_slot is not None else None
        fn.w(f"_tb{i} = []")

        def collect(f: _Fn) -> None:
            f.w(f"_ts{i} = {self.snapshot_expr(owned)}")
            self.charge_snapshot(f, owned)
            f.w(f"_tb{i}.append(_ts{i})")

        self.emit(plan.child, fn, collect)
        fn.w(f"_ti{i} = 0")
        fn.w(f"_tn{i} = len(_tb{i})")
        fn.w(f"while _ti{i} < _tn{i}:")
        with fn.block():
            if ctx_pos is None:
                fn.w(f"_tj{i} = _tn{i}")
            else:
                fn.w(f"_tj{i} = _ti{i} + 1")
                fn.w(
                    f"while _tj{i} < _tn{i} and not ("
                    f"_tb{i}[_tj{i}][{ctx_pos}] "
                    f"!= _tb{i}[_ti{i}][{ctx_pos}]):"
                )
                with fn.block():
                    fn.w(f"_tj{i} += 1")
            fn.w(f"_tz{i} = _tb{i}[_tj{i} - 1][{cp_pos}]")
            fn.w(f"_tg{i} = _ti{i}")
            fn.w(f"while _tg{i} < _tj{i}:")
            with fn.block():
                self.restore_line(owned, f"_tb{i}[_tg{i}]", fn)
                fn.touch(f"r{cs_slot}")
                fn.w(f"r{cs_slot} = _tz{i}")
                self.gov_tuple(fn)
                consume(fn)
                fn.w(f"_tg{i} += 1")
            fn.w(f"_ti{i} = _tj{i}")

    def _emit_Aggregate(self, plan: ops.Aggregate, fn: _Fn,
                        consume: Consume) -> None:
        input_attr = aggregate_input(plan)
        i = self.uid()
        out_slot = self.slot(plan.attr)
        source = self.local(input_attr)
        sub = _Fn(f"_ag{i}", self)
        self.emit(plan.child, sub, lambda f: f.w(f"yield {source}"))
        args = self.finalize_sub(sub)
        fn.defs.append(sub)
        fn.touch(f"r{out_slot}")
        fn.w(f"r{out_slot} = _agg({plan.func!r}, _ag{i}({args}))")
        consume(fn)

    def _emit_MemoX(self, plan: ops.MemoX, fn: _Fn,
                    consume: Consume) -> None:
        i = self.uid()
        owned = owned_slots(self.manager, plan.child)
        key_slots = [self.slot(a) for a in plan.key_attrs]
        self.hoist.append(f"_mx{i} = {{}}")
        key = ", ".join(f"_hashable(r{s})" for s in key_slots)
        trail = "," if len(key_slots) == 1 else ""
        fn.w(f"_mk{i} = ({key}{trail})")
        fn.w(f"_mr{i} = _mx{i}.get(_mk{i})")
        fn.w(f"if _mr{i} is not None:")
        with fn.block():
            fn.w(f"for _ms{i} in _mr{i}:")
            with fn.block():
                self.restore_line(owned, f"_ms{i}", fn)
                self.gov_tuple(fn)
                consume(fn)
        fn.w("else:")
        with fn.block():
            fn.w(f"_mw{i} = []")

            def record(f: _Fn) -> None:
                f.w(f"_m2{i} = {self.snapshot_expr(owned)}")
                self.charge_snapshot(f, owned)
                f.w(f"_mw{i}.append(_m2{i})")
                consume(f)

            self.emit(plan.child, fn, record)
            # Memoize only on exhaustion: abandoning the generator
            # mid-recording (an exists() early exit) skips this line,
            # exactly like closing the interpreted iterator mid-stream.
            fn.w(f"_mx{i}[_mk{i}] = _mw{i}")


class GeneratedPlan:
    """A compiled-to-Python plan: one generator function plus metadata.

    Generated functions keep all state in locals, so one GeneratedPlan
    is safely shared across threads (unlike interpreted
    :class:`~repro.engine.plan.PhysicalPlan` instances, which own a
    mutable register file and must be thread-confined).
    """

    __slots__ = ("fn", "kind", "source", "stats", "_stats_lock")

    def __init__(self, fn, kind: str, source: str):
        self.fn = fn
        self.kind = kind
        self.source = source
        self.stats: Counter = Counter()
        self._stats_lock = threading.Lock()

    def note_index_probes(self, hits: int, skips: int,
                          candidates: int) -> None:
        """One execution's index-scan counters (called by the generated
        function as it finishes, aborts or is closed early)."""
        with self._stats_lock:
            self.stats["index_hits"] += hits
            self.stats["index_skips"] += skips
            self.stats["index_candidates"] += candidates

    def rows(self, context):
        """One execution: the generated function's result generator."""
        self.stats["codegen_executions"] += 1
        return self.fn(context)

    # The interpreter's driver (repro.engine.plan).  Streams interpret,
    # so there is no execute_stream here yet.
    execute = collect_results
    execute_count = count_results


def generate_python(translation, options=None,
                    source: str = "") -> GeneratedPlan:
    """Compile a translation result into a :class:`GeneratedPlan`.

    Raises :class:`CodegenUnsupported` (a :class:`CodegenError`) when
    the plan contains an operator or scalar without a Python lowering —
    callers fall back to the interpreted iterator backend.
    """
    plan = translation.plan
    if plan is None or translation.result_attr is None:
        raise CodegenUnsupported("translation has no executable plan")
    emitter = _Emitter()
    try:
        register_layout(plan, emitter.manager)
        main = _Fn("__plan__", emitter, params="ctx")
        result = emitter.local(translation.result_attr)
        # The driver closes a scalar plan at its first yield,
        # so the settle below never runs there: charge before yielding.
        settle = (
            ("_ev, _tu = _flush(_tu)",) if translation.kind == "scalar"
            else ()
        )
        emitter.emit(
            plan, main, lambda f: f.wmany((*settle, f"yield {result}"))
        )
        # Settle the amortized governance counters: a plan that ran to
        # completion below the flush threshold still charges its tuples
        # (an early-exited generator skips this, like a closed iterator).
        main.w("_ev, _tu = _flush(_tu)")
    except CodegenError:
        raise
    except Exception as error:  # noqa: BLE001 - never break compilation
        raise CodegenUnsupported(
            f"emission failed: {type(error).__name__}: {error}"
        )

    manager = emitter.manager
    preamble = [
        "_gov = ctx.governor",
        "_ev = 0",
        "_tu = 0",
        "def _flush(_t):",
        "    if _gov is not None:",
        "        _gov.add_tuples(_t)",
        "        _gov.tick(256)",
        "    return 0, 0",
    ]
    # Zero every register the main body references (including ones that
    # only feed nested-def call sites), mirroring the interpreter's
    # zeroed register file; context bindings below override theirs.
    preamble.extend(
        f"{name} = None" for name in _referenced_registers(main.lines)
    )
    context_slot, position_slot, size_slot = top_slots(manager)
    if context_slot is not None:
        preamble.append(f"r{context_slot} = ctx.context_node")
    if position_slot is not None:
        preamble.append(f"r{position_slot} = float(ctx.position)")
    if size_slot is not None:
        preamble.append(f"r{size_slot} = float(ctx.size)")
    preamble.extend(emitter.hoist)
    shared = "_ev, _tu"
    if emitter.index_counters:
        shared += ", _nh, _ns, _nc"
        preamble.append("_nh = _ns = _nc = 0")
        main.lines = (
            ["try:"]
            + ["    " + line for line in main.lines]
            + ["finally:", "    _note_index_probes(_nh, _ns, _nc)"]
        )

    src = "\n".join(_render(main, 0, preamble, shared)) + "\n"
    label = source.replace("\n", " ")[:60] or "plan"
    try:
        code = compile(src, f"<pycodegen: {label}>", "exec")
    except SyntaxError as error:  # pragma: no cover - emitter bug guard
        raise CodegenUnsupported(f"generated source does not parse: {error}")
    namespace = base_namespace()
    exec(code, namespace)  # noqa: S102 - trusted, self-generated source
    generated = GeneratedPlan(namespace["__plan__"], translation.kind, src)
    namespace["_note_index_probes"] = generated.note_index_probes
    return generated

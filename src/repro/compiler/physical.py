"""Phase 6: the physical lowering — register layout and NQE iterator trees.

Responsibilities, mirroring the paper's section 5.1/5.2:

* assign every attribute a register via the
  :class:`~repro.engine.tuples.AttributeManager`; renaming projections
  and aliasing maps (χ with a bare attribute subscript) become register
  aliases — no copy operations are emitted.  Both backends, the
  :class:`CodeGenerator` here and :mod:`repro.codegen`, lay out
  registers with :func:`bind_registers` and share the helpers below,
* compile every scalar subscript, either to an NVM program (default) or
  to the tree-walking reference evaluator,
* compile nested sequence-valued plans inside subscripts into nested
  iterators (section 5.2.3),
* compute the register sets materializing operators must snapshot,
* collect the iterators whose memo state must be reset between plan
  executions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.algebra.properties import attributes, free_variables
from repro.compiler.improved import TranslationOptions
from repro.compiler.translate import TOP_ATTRS
from repro.engine import basic, index_scans, joins, materialize, scans, unnest
from repro.engine.iterator import Iterator, RuntimeState
from repro.engine.scans import SnapshotReplay
from repro.engine.subscripts import InterpSubscript, NestedPlan, Subscript
from repro.engine.tuples import AttributeManager
from repro.errors import CodegenError
from repro.nvm.compile_expr import compile_scalar
from repro.nvm.machine import NVMSubscript


# -- the layout both backends share -----------------------------------------


def bind_registers(plan: ops.Operator, manager: AttributeManager) -> None:
    """Bind the registers one operator shares instead of copying.

    A union's result register is allocated before its branches, so
    their subtrees write straight into it; renaming projections unify
    (the direction depends on which side already has a register); pure
    aliasing maps (χ with a bare attribute subscript, not χ^mat) bind
    the new name to the existing register.  Every other attribute gets
    its register when a backend first asks for it.  Called on an
    operator before any of its inputs, whatever the traversal, the
    alias groups come out the same.
    """
    kind = type(plan)
    if kind is ops.Concat:
        manager.slot(plan.result_attr)
    elif kind is ops.Project:
        for new_name, old_name in plan.renames.items():
            manager.unify(new_name, old_name)
    elif kind is ops.MapOp and isinstance(plan.expr, S.SAttr):
        manager.alias(plan.attr, plan.expr.name)


def register_layout(plan: ops.Operator, manager: AttributeManager) -> None:
    """:func:`bind_registers` over a whole plan, in preorder, before it
    is lowered — for a backend that computes owned and key slots of an
    input before it lowers that input."""
    bind_registers(plan, manager)
    for child in plan.children():
        register_layout(child, manager)
    for sub in plan.subscripts():
        for nested in S.nested_plans(sub):
            register_layout(nested.plan, manager)


def owned_slots(manager: AttributeManager, plan: ops.Operator) -> List[int]:
    """Registers holding attributes produced inside ``plan``."""
    return sorted({manager.slot(a) for a in attributes(plan)})


def scalar_key_slots(manager: AttributeManager, expr: S.Scalar) -> List[int]:
    """Registers that determine a subscript's value (memo keys)."""
    names: Set[str] = set(S.referenced_attrs(expr))
    for embedded in S.nested_plans(expr):
        names |= free_variables(embedded.plan)
    return sorted(manager.slot(name) for name in names)


def optional_slot(
    manager: AttributeManager, attr: Optional[str]
) -> Optional[int]:
    """The register of an optional attribute (``None`` when absent)."""
    return None if attr is None else manager.slot(attr)


def top_slots(manager: AttributeManager) -> Tuple[Optional[int], ...]:
    """The registers of the top-level context node, position and size
    (``None`` for each the plan never reads)."""
    return tuple(manager.lookup(attr) for attr in TOP_ATTRS)


def result_attr(plan: ops.Operator, role: str) -> str:
    """The result attribute of a nested plan or union branch."""
    if plan.result_attr is None:
        raise CodegenError(f"{role} lacks a result attribute")
    return plan.result_attr


def union_inputs(plan: ops.Concat) -> Tuple[ops.Operator, ...]:
    """A union's branches, each checked for a result attribute."""
    for branch in plan.inputs:
        result_attr(branch, "union branch")
    return tuple(plan.inputs)


def tmpcs_slots(
    manager: AttributeManager, plan: ops.TmpCs
) -> Tuple[List[int], int, int, Optional[int]]:
    """A Tmp^cs's snapshot, position, size and context registers.

    In stacked translations the grouping attribute comes from the
    enclosing pipeline; it is snapshotted too, for group boundaries.
    """
    owned = owned_slots(manager, plan.child)
    cp_slot = manager.slot(plan.cp_attr)
    cs_slot = manager.slot(plan.cs_attr)
    context_slot = optional_slot(manager, plan.context_attr)
    if cp_slot not in owned:
        raise CodegenError("Tmp^cs input does not carry its position register")
    if context_slot is not None and context_slot not in owned:
        owned = sorted(set(owned) | {context_slot})
    return owned, cp_slot, cs_slot, context_slot


def aggregate_input(plan: ops.Aggregate) -> str:
    """The attribute an aggregate folds."""
    if plan.input_attr is None:
        raise CodegenError("Aggregate requires an input attribute")
    return plan.input_attr


# -- the NQE builder ----------------------------------------------------------

#: Operator class -> its ``CodeGenerator._build_*`` method.
_BUILDERS: Dict[type, Callable] = {}


class CodeGenerator:
    """Compiles one logical plan into a physical iterator tree."""

    def __init__(
        self,
        runtime: RuntimeState,
        manager: AttributeManager,
        options: Optional[TranslationOptions] = None,
    ):
        self.runtime = runtime
        self.manager = manager
        self._slot = manager.slot
        self.options = options or TranslationOptions()
        #: Iterators with cross-execution memo state (MatMap, MemoX).
        self.resettable: List[Iterator] = []

    # ------------------------------------------------------------------

    def build(self, plan: ops.Operator) -> Iterator:
        """Recursively compile ``plan``.

        An operator's registers are bound before its inputs are built,
        and every input is built before its consumer computes owned or
        key slots, so those see the final alias groups.
        """
        kind = type(plan)
        method = _BUILDERS.get(kind)
        if method is None:
            method = getattr(CodeGenerator, f"_build_{kind.__name__}", None)
            if method is None:
                raise CodegenError(f"no code generation for {kind.__name__}")
            _BUILDERS[kind] = method
        bind_registers(plan, self.manager)
        return method(self, plan)

    # -- helpers ---------------------------------------------------------

    def _subscript(self, expr: S.Scalar) -> Subscript:
        """Compile a scalar subscript with its nested plans."""
        nested: Dict[int, NestedPlan] = {}
        for embedded in S.nested_plans(expr):
            attr = result_attr(embedded.plan, "nested plan")
            nested[id(embedded)] = NestedPlan(
                self.build(embedded.plan), embedded.agg, self._slot(attr)
            )
        slots = {name: self._slot(name) for name in S.referenced_attrs(expr)}
        if self.options.subscript_mode == "nvm":
            return NVMSubscript(compile_scalar(expr, slots, nested))
        return InterpSubscript(expr, slots, nested)

    # -- leaves ------------------------------------------------------------

    def _build_SingletonScan(self, plan: ops.SingletonScan) -> Iterator:
        return scans.SingletonScanIt(self.runtime)

    def _build_VarScan(self, plan: ops.VarScan) -> Iterator:
        return scans.VarScanIt(self.runtime, plan.variable,
                               self._slot(plan.attr))

    # -- unary pipeline ops -------------------------------------------------

    def _build_Select(self, plan: ops.Select) -> Iterator:
        child = self.build(plan.child)
        return basic.SelectIt(self.runtime, child,
                              self._subscript(plan.predicate))

    def _build_MapOp(self, plan: ops.MapOp) -> Iterator:
        if isinstance(plan.expr, S.SAttr):
            # A pure aliasing map: the layout bound the new attribute to
            # the same register, so there is no code (paper section 5.1).
            return self.build(plan.child)
        child = self.build(plan.child)
        return basic.MapIt(
            self.runtime, child, self._slot(plan.attr),
            self._subscript(plan.expr),
        )

    def _build_MatMap(self, plan: ops.MatMap) -> Iterator:
        child = self.build(plan.child)
        iterator = basic.MatMapIt(
            self.runtime,
            child,
            self._slot(plan.attr),
            self._subscript(plan.expr),
            scalar_key_slots(self.manager, plan.expr),
        )
        self.resettable.append(iterator)
        return iterator

    def _build_PosMap(self, plan: ops.PosMap) -> Iterator:
        child = self.build(plan.child)
        return basic.PosMapIt(
            self.runtime, child, self._slot(plan.attr),
            optional_slot(self.manager, plan.context_attr),
        )

    def _build_ProjectDup(self, plan: ops.ProjectDup) -> Iterator:
        child = self.build(plan.child)
        return basic.ProjectDupIt(self.runtime, child, self._slot(plan.attr))

    def _build_Project(self, plan: ops.Project) -> Iterator:
        # The layout unified the renames; nothing is copied.
        child = self.build(plan.child)
        return basic.PassThroughIt(self.runtime, child)

    def _build_UnnestMap(self, plan: ops.UnnestMap) -> Iterator:
        child = self.build(plan.child)
        return unnest.UnnestMapIt(
            self.runtime,
            child,
            self._slot(plan.in_attr),
            self._slot(plan.out_attr),
            plan.axis,
            plan.test_kind,
            plan.test_name,
        )

    def _build_IndexNameScan(self, plan: ops.IndexNameScan) -> Iterator:
        child = self.build(plan.child)
        return index_scans.IndexNameScanIt(
            self.runtime, child, self._slot(plan.in_attr),
            self._slot(plan.out_attr), plan.test_name,
        )

    def _build_IndexDescendantScan(
        self, plan: ops.IndexDescendantScan
    ) -> Iterator:
        child = self.build(plan.child)
        return index_scans.IndexDescendantScanIt(
            self.runtime, child, self._slot(plan.in_attr),
            self._slot(plan.out_attr), plan.test_name,
        )

    def _build_ExprUnnestMap(self, plan: ops.ExprUnnestMap) -> Iterator:
        child = self.build(plan.child)
        return unnest.ExprUnnestMapIt(
            self.runtime, child, self._slot(plan.attr),
            self._subscript(plan.expr),
        )

    def _build_Unnest(self, plan: ops.Unnest) -> Iterator:
        # μ is the degenerate unnest-map whose subscript just reads the
        # nested attribute.
        child = self.build(plan.child)
        return unnest.ExprUnnestMapIt(
            self.runtime, child, self._slot(plan.out_attr),
            self._subscript(S.SAttr(plan.nested_attr)),
        )

    def _build_SortOp(self, plan: ops.SortOp) -> Iterator:
        child = self.build(plan.child)
        replayer = SnapshotReplay(owned_slots(self.manager, plan.child))
        return materialize.SortIt(self.runtime, child,
                                  self._slot(plan.attr), replayer)

    def _build_TmpCs(self, plan: ops.TmpCs) -> Iterator:
        child = self.build(plan.child)
        owned, cp_slot, cs_slot, context_slot = tmpcs_slots(
            self.manager, plan
        )
        return materialize.TmpCsIt(
            self.runtime, child, cs_slot, cp_slot,
            SnapshotReplay(owned), context_slot,
        )

    def _build_Aggregate(self, plan: ops.Aggregate) -> Iterator:
        input_attr = aggregate_input(plan)
        child = self.build(plan.child)
        return materialize.AggregateIt(
            self.runtime, child, self._slot(plan.attr), plan.func,
            self._slot(input_attr),
        )

    def _build_MemoX(self, plan: ops.MemoX) -> Iterator:
        child = self.build(plan.child)
        replayer = SnapshotReplay(owned_slots(self.manager, plan.child))
        iterator = materialize.MemoXIt(
            self.runtime, child,
            [self._slot(a) for a in plan.key_attrs], replayer,
        )
        self.resettable.append(iterator)
        return iterator

    # -- binary ops ----------------------------------------------------------

    def _build_DJoin(self, plan: ops.DJoin) -> Iterator:
        left = self.build(plan.left)
        right = self.build(plan.right)
        return joins.DJoinIt(self.runtime, left, right)

    def _build_CrossProduct(self, plan: ops.CrossProduct) -> Iterator:
        left = self.build(plan.left)
        right = self.build(plan.right)
        replayer = SnapshotReplay(owned_slots(self.manager, plan.right))
        return joins.CrossIt(self.runtime, left, right, replayer)

    def _build_SemiJoin(self, plan: ops.SemiJoin) -> Iterator:
        left = self.build(plan.left)
        right = self.build(plan.right)
        return joins.SemiJoinIt(self.runtime, left, right,
                                self._subscript(plan.predicate))

    def _build_AntiJoin(self, plan: ops.AntiJoin) -> Iterator:
        left = self.build(plan.left)
        right = self.build(plan.right)
        return joins.SemiJoinIt(self.runtime, left, right,
                                self._subscript(plan.predicate), anti=True)

    def _build_BinaryGroup(self, plan: ops.BinaryGroup) -> Iterator:
        left = self.build(plan.left)
        right = self.build(plan.right)
        func_attr = plan.func_attr or plan.right_attr
        return materialize.BinaryGroupIt(
            self.runtime,
            left,
            right,
            self._slot(plan.attr),
            self._slot(plan.left_attr),
            plan.theta,
            self._slot(plan.right_attr),
            plan.func,
            self._slot(func_attr),
        )

    def _build_Concat(self, plan: ops.Concat) -> Iterator:
        # The layout allocated the union register before the branches,
        # so their subtrees write directly into it.
        inputs = [self.build(branch) for branch in union_inputs(plan)]
        return joins.ConcatIt(self.runtime, inputs)

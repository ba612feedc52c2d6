"""Unit tests for engine infrastructure: registers, plans, visitor, μ."""

import pytest

from repro import compile_xpath, parse_document
from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.algebra.visitor import transform_bottom_up, walk_plan
from repro.engine.tuples import AttributeManager

DOC = parse_document('<r><a id="1"/><a id="2"/></r>')


class TestAttributeManager:
    def test_slots_are_stable(self):
        manager = AttributeManager()
        assert manager.slot("a") == manager.slot("a")
        assert manager.slot("a") != manager.slot("b")

    def test_alias_shares_register(self):
        manager = AttributeManager()
        base = manager.slot("a")
        assert manager.alias("a2", "a") == base
        assert manager.slot("a2") == base

    def test_alias_conflict_rejected(self):
        manager = AttributeManager()
        manager.slot("a")
        manager.slot("b")
        with pytest.raises(ValueError):
            manager.alias("a", "b")

    def test_unify_directions(self):
        manager = AttributeManager()
        first = manager.slot("x")
        assert manager.unify("x", "y") == first   # y joins x
        assert manager.unify("z", "y") == first   # z joins via y
        fresh = manager.unify("p", "q")           # both new
        assert manager.slot("p") == manager.slot("q") == fresh

    def test_unify_conflict(self):
        manager = AttributeManager()
        manager.slot("a")
        manager.slot("b")
        with pytest.raises(ValueError):
            manager.unify("a", "b")

    def test_registers_sized_to_demand(self):
        manager = AttributeManager()
        manager.slot("a")
        manager.alias("a2", "a")
        manager.slot("b")
        assert manager.register_count == 2
        assert manager.make_registers() == [None, None]

    def test_names_for_and_schema(self):
        manager = AttributeManager()
        index = manager.slot("a")
        manager.alias("cn", "a")
        assert manager.names_for(index) == ["a", "cn"]
        assert manager.snapshot_schema() == {"a": index, "cn": index}

    def test_lookup_missing(self):
        assert AttributeManager().lookup("nope") is None


class TestVisitor:
    def _plan(self):
        step = ops.UnnestMap(
            ops.SingletonScan(), "cn", "c1",
            __import__("repro.xpath.axes", fromlist=["Axis"]).Axis.CHILD,
            __import__(
                "repro.xpath.axes", fromlist=["NodeTestKind"]
            ).NodeTestKind.ANY_NAME,
            None,
        )
        nested = S.SNested(ops.SingletonScan(), "exists")
        return ops.Select(step, nested)

    def test_walk_includes_nested(self):
        kinds = [type(op).__name__ for op in walk_plan(self._plan())]
        assert kinds.count("SingletonScan") == 2

    def test_walk_can_exclude_nested(self):
        kinds = [
            type(op).__name__
            for op in walk_plan(self._plan(), include_nested=False)
        ]
        assert kinds.count("SingletonScan") == 1

    def test_transform_replaces_nodes(self):
        plan = self._plan()

        def drop_selects(node):
            if isinstance(node, ops.Select):
                return node.child
            return node

        rewritten = transform_bottom_up(plan, drop_selects)
        assert isinstance(rewritten, ops.UnnestMap)

    def test_transform_reaches_nested_plans(self):
        plan = self._plan()
        seen = []
        transform_bottom_up(plan, lambda n: (seen.append(n), n)[1])
        assert sum(isinstance(n, ops.SingletonScan) for n in seen) == 2


class TestUnnestOperator:
    def test_mu_unnests_collected_sequences(self):
        from repro.compiler.physical import CodeGenerator
        from repro.engine.context import ExecutionContext
        from repro.engine.iterator import RuntimeState
        from repro.xpath.axes import Axis, NodeTestKind

        # χ[s := collect(//a)](□) then μ unnesting s.
        inner = ops.UnnestMap(
            ops.MapOp(ops.SingletonScan(), "d0", S.SAttr("cn"),
                      is_result=True),
            "d0", "d1", Axis.DESCENDANT, NodeTestKind.NAME, "a",
        )
        plan = ops.Unnest(
            ops.MapOp(ops.SingletonScan(), "s",
                      S.SNested(inner, "collect")),
            "s", "m",
        )
        manager = AttributeManager()
        runtime = RuntimeState(regs=[], context=None)
        iterator = CodeGenerator(runtime, manager).build(plan)
        runtime.regs = manager.make_registers()
        runtime.context = ExecutionContext(DOC.root)
        runtime.regs[manager.slot("cn")] = DOC.root
        slot = manager.slot("m")
        names = []
        iterator.open()
        while iterator.next():
            names.append(runtime.regs[slot].name)
        assert names == ["a", "a"]

    def test_mu_label_and_attrs(self):
        plan = ops.Unnest(ops.SingletonScan(), "s", "m")
        assert plan.label() == "μ[m:s]"
        assert plan.produced_attrs() == ("m",)
        assert plan.result_attr == "m"


class TestPhysicalPlanSurface:
    def test_stats_accumulate_and_reset(self):
        compiled = compile_xpath("//a")
        compiled.evaluate(DOC.root)
        first = compiled.stats["tuples:UnnestMap"]
        compiled.evaluate(DOC.root)
        assert compiled.stats["tuples:UnnestMap"] == 2 * first
        compiled.physical.reset_stats()
        assert compiled.stats["tuples:UnnestMap"] == 0

    def test_execute_count_matches_len(self):
        compiled = compile_xpath("//a")
        assert compiled.count(DOC.root) == 2

    def test_plan_reusable_across_documents(self):
        other = parse_document("<r><a/><a/><a/></r>")
        compiled = compile_xpath("count(//a)")
        assert compiled.evaluate(DOC.root) == 2.0
        assert compiled.evaluate(other.root) == 3.0
        assert compiled.evaluate(DOC.root) == 2.0

    def test_registers_are_compact(self):
        # Aliasing keeps the register file small: a three-step path with
        # the cn conventions uses one register per distinct attribute.
        compiled = compile_xpath("/r/a/@id")
        manager = compiled.physical.manager
        assert manager.register_count <= 5

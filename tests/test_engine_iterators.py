"""Unit tests for physical iterators using hand-built plans."""

import pytest

from repro import parse_document
from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.compiler.physical import CodeGenerator
from repro.compiler.improved import TranslationOptions
from repro.engine.context import ExecutionContext
from repro.engine.iterator import RuntimeState
from repro.engine.scans import MaterializedScanIt, SnapshotReplay
from repro.engine.subscripts import run_aggregate
from repro.engine.tuples import AttributeManager
from repro.errors import CodegenError, ExecutionError
from repro.xpath.axes import Axis, NodeTestKind

DOC = parse_document(
    '<r id="0"><a id="1"><b id="2">x</b><b id="3">y</b></a>'
    '<a id="4"><b id="5">z</b></a></r>'
)


def build(plan, node=None, variables=None, options=None):
    """Compile a logical plan into (iterator, runtime, manager)."""
    manager = AttributeManager()
    runtime = RuntimeState(regs=[], context=None)
    generator = CodeGenerator(runtime, manager, options)
    iterator = generator.build(plan)
    runtime.regs = manager.make_registers()
    runtime.context = ExecutionContext(
        node or DOC.root, variables=variables or {}
    )
    cn = manager.lookup("cn")
    if cn is not None:
        runtime.regs[cn] = runtime.context.context_node
    return iterator, runtime, manager


def collect(iterator, runtime, manager, attr):
    slot = manager.slot(attr)
    out = []
    iterator.open()
    while iterator.next():
        out.append(runtime.regs[slot])
    iterator.close()
    return out


def step(child, in_attr, out_attr, axis=Axis.CHILD, name=None):
    kind = NodeTestKind.NAME if name else NodeTestKind.ANY_NAME
    return ops.UnnestMap(child, in_attr, out_attr, axis, kind, name)


def start_plan():
    """χ[c0 := cn](□) — the standard context seed."""
    return ops.MapOp(ops.SingletonScan(), "c0", S.SAttr("cn"),
                     is_result=True)


class TestScans:
    def test_singleton_scan_one_tuple(self):
        iterator, runtime, manager = build(ops.SingletonScan())
        assert iterator.drain() == 1
        assert iterator.drain() == 1  # re-openable

    def test_var_scan(self):
        nodes = list(DOC.root.children[0].children)
        plan = ops.VarScan("v", "n")
        iterator, runtime, manager = build(plan, variables={"v": nodes})
        assert collect(iterator, runtime, manager, "n") == nodes

    def test_var_scan_type_error(self):
        iterator, *_ = build(ops.VarScan("v", "n"), variables={"v": 3.0})
        with pytest.raises(ExecutionError):
            iterator.open()

    def test_materialized_scan_replays(self):
        manager = AttributeManager()
        slot = manager.slot("x")
        runtime = RuntimeState(
            regs=manager.make_registers(),
            context=ExecutionContext(DOC.root),
        )
        replay = SnapshotReplay([slot])
        scan = MaterializedScanIt(runtime, replay, [(1,), (2,), (3,)])
        values = []
        scan.open()
        while scan.next():
            values.append(runtime.regs[slot])
        assert values == [1, 2, 3]


class TestUnnestMap:
    def test_child_step(self):
        plan = step(start_plan(), "c0", "c1", Axis.CHILD)
        iterator, runtime, manager = build(plan)
        names = [n.name for n in collect(iterator, runtime, manager, "c1")]
        assert names == ["r"]

    def test_two_steps(self):
        plan = step(step(start_plan(), "c0", "c1", Axis.DESCENDANT, "a"),
                    "c1", "c2", Axis.CHILD, "b")
        iterator, runtime, manager = build(plan)
        assert len(collect(iterator, runtime, manager, "c2")) == 3

    def test_axis_order_reverse(self):
        inner = step(step(start_plan(), "c0", "c1"), "c1", "c2",
                     Axis.DESCENDANT, "b")
        plan = step(inner, "c2", "c3", Axis.ANCESTOR)
        iterator, runtime, manager = build(plan)
        ancestors = collect(iterator, runtime, manager, "c3")
        # Each b contributes its ancestors in reverse document order.
        first_group = ancestors[:2]
        assert first_group[0].name == "a"
        assert first_group[1].name == "r"

    def test_none_context_skipped(self):
        plan = step(
            ops.MapOp(ops.SingletonScan(), "c0", S.SDeref(S.SConst("zz")),
                      is_result=True),
            "c0", "c1",
        )
        iterator, runtime, manager = build(plan)
        assert collect(iterator, runtime, manager, "c1") == []


class TestFilters:
    def test_select(self):
        plan = ops.Select(
            step(step(start_plan(), "c0", "c1"), "c1", "c2", Axis.DESCENDANT,
                 "b"),
            S.SCmp("=", S.SStringValue(S.SAttr("c2")), S.SConst("y")),
        )
        iterator, runtime, manager = build(plan)
        assert len(collect(iterator, runtime, manager, "c2")) == 1

    def test_posmap_counts_per_open(self):
        plan = ops.PosMap(
            step(step(start_plan(), "c0", "c1"), "c1", "c2", Axis.DESCENDANT,
                 "b"),
            "cp",
        )
        iterator, runtime, manager = build(plan)
        positions = []
        slot = manager.slot("cp")
        iterator.open()
        while iterator.next():
            positions.append(runtime.regs[slot])
        iterator.close()
        assert positions == [1.0, 2.0, 3.0]
        # Re-open resets the counter.
        iterator.open()
        iterator.next()
        assert runtime.regs[slot] == 1.0

    def test_posmap_resets_on_context_change(self):
        a_steps = step(step(start_plan(), "c0", "c1"), "c1", "c2",
                       Axis.CHILD, "a")
        b_steps = step(a_steps, "c2", "c3", Axis.CHILD, "b")
        plan = ops.PosMap(b_steps, "cp", context_attr="c2")
        iterator, runtime, manager = build(plan)
        slot = manager.slot("cp")
        positions = []
        iterator.open()
        while iterator.next():
            positions.append(runtime.regs[slot])
        assert positions == [1.0, 2.0, 1.0]  # two b's, then reset, one b

    def test_projectdup(self):
        descendants = step(step(start_plan(), "c0", "c1"), "c1", "c2",
                           Axis.DESCENDANT, "b")
        parents = step(descendants, "c2", "c3", Axis.PARENT)
        plan = ops.ProjectDup(parents, "c3")
        iterator, runtime, manager = build(plan)
        result = collect(iterator, runtime, manager, "c3")
        assert len(result) == 2  # three b's but two distinct parents
        assert iterator.runtime.stats["dupelim_dropped"] == 1


class TestJoins:
    def test_djoin_dependent_reevaluation(self):
        left = step(start_plan(), "c0", "c1", Axis.DESCENDANT, "a")
        right = step(ops.SingletonScan(), "c1", "c2", Axis.CHILD, "b")
        plan = ops.DJoin(left, right)
        iterator, runtime, manager = build(plan)
        assert len(collect(iterator, runtime, manager, "c2")) == 3

    def test_semijoin_keeps_matching_left(self):
        left = step(start_plan(), "c0", "c1", Axis.DESCENDANT, "b")
        right = step(ops.SingletonScan(), "c1", "c2", Axis.FOLLOWING, "b")
        plan = ops.SemiJoin(left, right, S.SConst(True))
        iterator, runtime, manager = build(plan)
        # b's that have some following b: the first two of three.
        assert len(collect(iterator, runtime, manager, "c1")) == 2

    def test_antijoin_inverts(self):
        left = step(start_plan(), "c0", "c1", Axis.DESCENDANT, "b")
        right = step(ops.SingletonScan(), "c1", "c2", Axis.FOLLOWING, "b")
        plan = ops.AntiJoin(left, right, S.SConst(True))
        iterator, runtime, manager = build(plan)
        assert len(collect(iterator, runtime, manager, "c1")) == 1

    def test_cross_product(self):
        left = step(start_plan(), "c0", "c1", Axis.DESCENDANT, "a")
        right = step(
            ops.MapOp(ops.SingletonScan(), "d0", S.SAttr("cn"),
                      is_result=True),
            "d0", "d1", Axis.DESCENDANT, "b",
        )
        plan = ops.CrossProduct(left, right)
        iterator, runtime, manager = build(plan)
        assert iterator.drain() == 6  # 2 a's x 3 b's

    def test_concat(self):
        branch1 = ops.Project(
            step(start_plan(), "c0", "c1", Axis.DESCENDANT, "a"),
            ("c1",), renames={"u": "c1"}, result_attr="u",
        )
        branch2 = ops.Project(
            step(ops.MapOp(ops.SingletonScan(), "d0", S.SAttr("cn"),
                           is_result=True),
                 "d0", "d1", Axis.DESCENDANT, "b"),
            ("d1",), renames={"u": "d1"}, result_attr="u",
        )
        plan = ops.Concat((branch1, branch2), "u")
        iterator, runtime, manager = build(plan)
        names = [n.name for n in collect(iterator, runtime, manager, "u")]
        assert names == ["a", "a", "b", "b", "b"]


class TestMaterializers:
    def _b_steps(self):
        return step(step(start_plan(), "c0", "c1"), "c1", "c2",
                    Axis.DESCENDANT, "b")

    def test_sort_establishes_document_order(self):
        ancestors = step(self._b_steps(), "c2", "c3", Axis.ANCESTOR_OR_SELF)
        plan = ops.SortOp(ops.ProjectDup(ancestors, "c3"), "c3")
        iterator, runtime, manager = build(plan)
        keys = [n.sort_key for n in collect(iterator, runtime, manager,
                                            "c3")]
        assert keys == sorted(keys)

    def test_sort_rejects_non_node(self):
        plan = ops.SortOp(
            ops.MapOp(ops.SingletonScan(), "v", S.SConst(1.0),
                      is_result=True),
            "v",
        )
        iterator, runtime, manager = build(plan)
        iterator.open()
        with pytest.raises(ExecutionError):
            iterator.next()

    def test_tmpcs_whole_input_is_one_context(self):
        plan = ops.TmpCs(ops.PosMap(self._b_steps(), "cp"), "cs", "cp")
        iterator, runtime, manager = build(plan)
        cs_slot = manager.slot("cs")
        sizes = []
        iterator.open()
        while iterator.next():
            sizes.append(runtime.regs[cs_slot])
        assert sizes == [3.0, 3.0, 3.0]

    def test_tmpcs_grouped(self):
        a_steps = step(step(start_plan(), "c0", "c1"), "c1", "c2",
                       Axis.CHILD, "a")
        b_steps = step(a_steps, "c2", "c3", Axis.CHILD, "b")
        counted = ops.PosMap(b_steps, "cp", context_attr="c2")
        plan = ops.TmpCs(counted, "cs", "cp", context_attr="c2")
        iterator, runtime, manager = build(plan)
        cs_slot = manager.slot("cs")
        sizes = []
        iterator.open()
        while iterator.next():
            sizes.append(runtime.regs[cs_slot])
        assert sizes == [2.0, 2.0, 1.0]

    def test_aggregate_iterator(self):
        plan = ops.Aggregate(self._b_steps(), "n", "count")
        iterator, runtime, manager = build(plan)
        values = collect(iterator, runtime, manager, "n")
        assert values == [3.0]

    def test_memox_replay(self):
        inner = ops.MemoX(
            step(ops.SingletonScan(), "k", "m", Axis.CHILD, "b"), ("k",)
        )
        left = step(start_plan(), "c0", "c1", Axis.DESCENDANT, "b")
        parents = step(left, "c1", "k", Axis.PARENT)
        plan = ops.DJoin(parents, inner)
        iterator, runtime, manager = build(plan)
        total = iterator.drain()
        assert total == 5  # a1 contributes 2x2 b's, a2 contributes 1
        stats = runtime.stats
        assert stats["memox_misses"] == 2
        assert stats["memox_hits"] == 1

    def test_binary_group(self):
        left = step(start_plan(), "c0", "c1", Axis.DESCENDANT, "a")
        right = step(
            ops.MapOp(ops.SingletonScan(), "d0", S.SAttr("cn"),
                      is_result=True),
            "d0", "d1", Axis.DESCENDANT, "b",
        )
        annotated_left = ops.MapOp(left, "k", S.SConst("x"))
        annotated_right = ops.MapOp(right, "k2", S.SConst("x"))
        plan = ops.BinaryGroup(
            annotated_left, annotated_right, "g", "k", "=", "k2", "count",
        )
        iterator, runtime, manager = build(plan)
        values = collect(iterator, runtime, manager, "g")
        assert values == [3.0, 3.0]


class TestAggregates:
    @pytest.fixture()
    def b_plan(self):
        plan = step(step(start_plan(), "c0", "c1"), "c1", "c2",
                    Axis.DESCENDANT, "b")
        return build(plan)

    @pytest.mark.parametrize(
        "agg,expected",
        [
            ("exists", True),
            ("count", 3.0),
            ("first_string", "x"),
        ],
    )
    def test_aggregates(self, b_plan, agg, expected):
        iterator, runtime, manager = b_plan
        value = run_aggregate(iterator, agg, manager.slot("c2"), runtime)
        assert value == expected

    def test_sum_over_ids(self):
        plan = step(step(start_plan(), "c0", "c1"), "c1", "c2",
                    Axis.DESCENDANT)
        attrs = step(plan, "c2", "c3", Axis.ATTRIBUTE)
        iterator, runtime, manager = build(attrs)
        value = run_aggregate(iterator, "sum", manager.slot("c3"), runtime)
        assert value == 1.0 + 2.0 + 3.0 + 4.0 + 5.0

    def test_max_min_ignore_nan(self):
        plan = step(step(start_plan(), "c0", "c1"), "c1", "c2",
                    Axis.DESCENDANT, "b")
        iterator, runtime, manager = build(plan)
        # string-values are x, y, z: all NaN as numbers.
        value = run_aggregate(iterator, "max", manager.slot("c2"), runtime)
        assert value != value  # NaN

    def test_collect(self, b_plan):
        iterator, runtime, manager = b_plan
        values = run_aggregate(iterator, "collect", manager.slot("c2"),
                               runtime)
        assert [n.name for n in values] == ["b", "b", "b"]

    def test_unknown_aggregate(self, b_plan):
        iterator, runtime, manager = b_plan
        with pytest.raises(ExecutionError):
            run_aggregate(iterator, "frobnicate", 0, runtime)


class TestCodegenErrors:
    def test_unknown_operator(self):
        class Strange(ops.Operator):
            def __init__(self):
                super().__init__(None)

        manager = AttributeManager()
        runtime = RuntimeState(regs=[], context=None)
        with pytest.raises(CodegenError):
            CodeGenerator(runtime, manager).build(Strange())

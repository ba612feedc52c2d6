"""Fidelity tests tying implementation details back to the paper's text."""

import pytest

from repro import compile_xpath, parse_document, TranslationOptions
from repro.algebra import operators as ops
from repro.algebra import scalar as S
from repro.compiler.physical import CodeGenerator
from repro.engine.context import ExecutionContext
from repro.engine.iterator import RuntimeState
from repro.engine.tuples import AttributeManager
from repro.workloads import generate_dblp
from repro.workloads.querygen import FIG5_QUERIES, FIG10_QUERIES
from repro.xpath.axes import Axis, NodeTestKind

from .conftest import assert_engines_agree


def run_plan(plan, doc, attrs):
    """Execute a hand-built plan; returns list of dicts of ``attrs``."""
    manager = AttributeManager()
    runtime = RuntimeState(regs=[], context=None)
    iterator = CodeGenerator(runtime, manager).build(plan)
    slots = {a: manager.slot(a) for a in attrs}
    runtime.regs = manager.make_registers()
    runtime.context = ExecutionContext(doc.root)
    cn = manager.lookup("cn")
    if cn is not None:
        runtime.regs[cn] = doc.root
    rows = []
    iterator.open()
    while iterator.next():
        rows.append({a: runtime.regs[s] for a, s in slots.items()})
    iterator.close()
    return rows


class TestTmpCsLogicalDefinition:
    """Section 4.3.1: Tmp^cs_c(e) := e Γ_{cs; c=c'; count} Π_{c':c}(e).

    The physical Tmp^cs_c must agree with the paper's logical definition
    via binary grouping.
    """

    DOC = parse_document(
        "<r><a><b/><b/><b/></a><a><b/></a><a><b/><b/></a></r>"
    )

    def _b_per_a(self):
        a_steps = ops.UnnestMap(
            ops.MapOp(ops.SingletonScan(), "c0", S.SAttr("cn"),
                      is_result=True),
            "c0", "ca", Axis.DESCENDANT, NodeTestKind.NAME, "a",
        )
        return ops.UnnestMap(a_steps, "ca", "cb", Axis.CHILD,
                             NodeTestKind.NAME, "b")

    def test_physical_equals_gamma_definition(self):
        # Physical: PosMap + TmpCs grouped on ca.
        physical = ops.TmpCs(
            ops.PosMap(self._b_per_a(), "cp", context_attr="ca"),
            "cs", "cp", context_attr="ca",
        )
        physical_rows = run_plan(physical, self.DOC, ["cb", "cs"])

        # Logical: Γ with a renamed second instance of the input.
        left = self._b_per_a()
        right_inner = ops.UnnestMap(
            ops.MapOp(ops.SingletonScan(), "d0", S.SAttr("cn"),
                      is_result=True),
            "d0", "da", Axis.DESCENDANT, NodeTestKind.NAME, "a",
        )
        right = ops.Project(
            ops.UnnestMap(right_inner, "da", "db", Axis.CHILD,
                          NodeTestKind.NAME, "b"),
            ("da", "db"), renames={"cprime": "da"},
        )
        gamma = ops.BinaryGroup(
            left, right, "cs", "ca", "=", "cprime", "count",
            func_attr="db",
        )
        gamma_rows = run_plan(gamma, self.DOC, ["cb", "cs"])

        assert [
            (row["cb"].sort_key, row["cs"]) for row in physical_rows
        ] == [(row["cb"].sort_key, row["cs"]) for row in gamma_rows]
        assert [row["cs"] for row in physical_rows] == [
            3.0, 3.0, 3.0, 1.0, 2.0, 2.0,
        ]


class TestPaperWorkloadsDifferential:
    """All Fig. 5 and Fig. 10 queries, all engines, one real workload."""

    @pytest.fixture(scope="class")
    def dblp(self):
        return generate_dblp(250, seed=3)

    @pytest.mark.parametrize("query", FIG10_QUERIES)
    def test_fig10_queries(self, engines, dblp, query):
        assert_engines_agree(engines, query, dblp.root)

    @pytest.mark.parametrize("query", FIG5_QUERIES)
    def test_fig5_queries(self, engines, query):
        from repro.workloads import generate_document

        doc = generate_document(120, 4, 3)
        assert_engines_agree(engines, query, doc.root)


class TestCompilerPhases:
    """Section 5.1: the six phases are observable on a CompiledQuery."""

    def test_phase_artifacts_exposed(self):
        compiled = compile_xpath("/a/b[1 + 2]")
        # Phase 1: AST exists and unparses.
        assert "child::a" in compiled.ast.unparse()
        # Phase 4: constant folding happened.
        assert "3" in compiled.ast.unparse()
        assert "1 + 2" not in compiled.ast.unparse()
        # Phase 2: normalization classified the (numeric) predicate.
        predicate = compiled.ast.steps[1].predicates[0]
        assert predicate.info is not None and predicate.info.positional
        # Phase 5: a logical plan exists.
        assert compiled.logical_plan is not None
        # Phase 6: a physical plan exists and runs.
        doc = parse_document("<a><b/><b/><b/><b/></a>")
        assert len(compiled.evaluate(doc.root)) == 1

    def test_attribute_manager_aliases_cn_maps(self):
        """Section 5.1: no copy operations for the cn-aliasing maps."""
        # A *relative* path's context seed χ[c1 := cn] is a pure alias
        # (absolute paths compute root(cn), which is a real map).
        compiled = compile_xpath("a/b/c")
        manager = compiled.physical.manager
        schema = manager.snapshot_schema()
        cn_register = schema["cn"]
        aliased = [n for n, s in schema.items() if s == cn_register]
        assert len(aliased) >= 2


class TestExternalOracle:
    """Cross-check against Python's xml.etree ElementPath subset.

    ElementTree implements a small XPath subset independently of this
    codebase — a true external oracle for simple child/descendant paths.
    """

    XML = (
        "<data><country name='LI'><rank>1</rank><year>2008</year>"
        "<nb name='AT'/><nb name='CH'/></country>"
        "<country name='SG'><rank>4</rank><year>2011</year>"
        "<nb name='MY'/></country>"
        "<country name='PA'><rank>68</rank><year>2011</year>"
        "<nb name='CR'/><nb name='CO'/></country></data>"
    )

    @pytest.mark.parametrize(
        "query",
        [
            "./country",
            "./country/rank",
            ".//nb",
            ".//rank",
            "./country/year/..",
            ".//nb/..",
            "./country[1]",
            "./country[last()]",
            "./country[rank]",
            "./country[year='2011']",
        ],
    )
    def test_against_elementtree(self, query):
        import xml.etree.ElementTree as ET

        tree = ET.fromstring(self.XML)
        expected = [
            (e.tag, e.get("name"), (e.findtext("rank") or "").strip())
            for e in tree.findall(query)
        ]

        doc = parse_document(self.XML)
        data_element = doc.root.children[0]
        result = compile_xpath(query).evaluate(data_element, ordered=True)
        actual = [
            (
                n.name,
                next((a.value for a in n.attributes if a.name == "name"),
                     None),
                next((c.string_value() for c in n.children
                      if c.name == "rank"), ""),
            )
            for n in result
        ]
        assert actual == expected, query

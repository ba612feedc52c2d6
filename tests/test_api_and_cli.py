"""Tests for the public API facade and the command-line interface."""

import io
import sys

import pytest

from repro import (
    ENGINES,
    EvalOptions,
    compile_xpath,
    evaluate,
    open_store,
    parse_document,
    store_document,
)
from repro.__main__ import main as cli_main


@pytest.fixture()
def xml_file(tmp_path):
    path = tmp_path / "shop.xml"
    path.write_text(
        '<shop><item price="3">pen</item><item price="9">ink</item></shop>'
    )
    return path


class TestEvaluateFacade:
    DOC = parse_document("<a><b>1</b><b>2</b></a>")

    def test_document_target_uses_root(self):
        assert evaluate("count(/a/b)", self.DOC) == 2.0

    def test_node_target(self):
        b = self.DOC.root.children[0].children[0]
        assert evaluate("string(.)", b) == "1"

    @pytest.mark.parametrize("engine", ENGINES)
    def test_all_engines_accessible(self, engine):
        assert evaluate(
            "count(//b)", self.DOC, EvalOptions(engine=engine)
        ) == 2.0

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            evaluate("//b", self.DOC, EvalOptions(engine="sloth"))

    def test_variables_and_namespaces_pass_through(self):
        doc = parse_document('<a xmlns:p="urn:p"><p:b/></a>')
        assert evaluate(
            "count(//x:b) + $n", doc,
            EvalOptions(variables={"n": 1.0}, namespaces={"x": "urn:p"}),
        ) == 2.0

    def test_store_helpers(self, tmp_path):
        path = tmp_path / "doc.natix"
        store_document(self.DOC, path)
        with open_store(path) as stored:
            assert evaluate("count(//b)", stored.root) == 2.0


class TestCompiledQueryFacade:
    def test_compile_and_reuse(self):
        doc1 = parse_document("<a><b/></a>")
        doc2 = parse_document("<a><b/><b/></a>")
        compiled = compile_xpath("count(//b)")
        assert compiled.evaluate(doc1.root) == 1.0
        assert compiled.evaluate(doc2.root) == 2.0

    def test_count_entry_point(self):
        doc = parse_document("<a><b/><b/><b/></a>")
        assert compile_xpath("//b").count(doc.root) == 3

    def test_explain_is_plan_text(self):
        text = compile_xpath("/a/b").explain()
        assert "Υ" in text and "□" in text


def run_cli(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        return cli_main(argv)
    finally:
        sys.stdin = sys.__stdin__


class TestCLI:
    def test_nodeset_query(self, xml_file, capsys):
        assert run_cli(["//item[@price > 5]", str(xml_file)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == '<item price="9">ink</item>'

    def test_scalar_query(self, xml_file, capsys):
        assert run_cli(["sum(//@price)", str(xml_file)]) == 0
        assert capsys.readouterr().out.strip() == "12"

    def test_boolean_rendering(self, xml_file, capsys):
        run_cli(["//item = 'pen'", str(xml_file)])
        assert capsys.readouterr().out.strip() == "true"

    def test_attribute_rendering(self, xml_file, capsys):
        run_cli(["//item[1]/@price", str(xml_file)])
        assert capsys.readouterr().out.strip() == 'price="3"'

    def test_stdin(self, capsys):
        assert run_cli(["count(//x)", "-"], stdin_text="<a><x/></a>") == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_explain_mode(self, capsys):
        assert run_cli(["--explain", "/a/b"]) == 0
        assert "Υ" in capsys.readouterr().out

    def test_explain_with_optimizer_note(self, capsys):
        assert run_cli(["--explain", "--optimize", "(/a/b)[2]"]) == 0
        assert "optimizer: removed Sort" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["naive", "memo", "natix-canonical"])
    def test_alternative_engines(self, xml_file, capsys, engine):
        assert run_cli(
            ["--engine", engine, "count(//item)", str(xml_file)]
        ) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_store_mode(self, xml_file, tmp_path, capsys):
        store = tmp_path / "shop.natix"
        assert run_cli(
            ["--store", str(store), "//item/@price", str(xml_file)]
        ) == 0
        out = capsys.readouterr().out
        assert 'price="3"' in out and 'price="9"' in out
        assert store.exists()

    def test_query_error_exit_code(self, xml_file, capsys):
        assert run_cli(["//item[", str(xml_file)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_xml_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b></a>")
        assert run_cli(["//b", str(bad)]) == 1

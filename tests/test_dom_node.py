"""Unit tests for the node model: kinds, order, identity, string-values."""

import os
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_document
from repro.dom.builder import build_element_tree
from repro.dom.node import Node, NodeKind
from repro.storage import DocumentStore
from repro.testing import DocumentGenerator


@pytest.fixture()
def doc():
    return parse_document(
        '<r id="0"><a x="1" y="2">t1<b>t2</b>t3</a><a/>'
        "<!--c--><?pi data?></r>"
    )


class TestKindsAndNames:
    def test_root_kind(self, doc):
        assert doc.root.kind == NodeKind.ROOT
        assert doc.root.name is None

    def test_element_names(self, doc):
        r = doc.root.children[0]
        assert r.kind == NodeKind.ELEMENT
        assert r.name == "r"
        assert [c.name for c in r.children if c.kind == NodeKind.ELEMENT] == [
            "a",
            "a",
        ]

    def test_attribute_kind_and_value(self, doc):
        a = doc.root.children[0].children[0]
        attrs = {n.name: n.value for n in a.attributes}
        assert attrs == {"x": "1", "y": "2"}
        assert all(n.kind == NodeKind.ATTRIBUTE for n in a.attributes)

    def test_text_comment_pi(self, doc):
        r = doc.root.children[0]
        kinds = [c.kind for c in r.children]
        assert NodeKind.COMMENT in kinds
        assert NodeKind.PROCESSING_INSTRUCTION in kinds
        pi = next(
            c for c in r.children
            if c.kind == NodeKind.PROCESSING_INSTRUCTION
        )
        assert pi.name == "pi"
        assert pi.value == "data"


class TestDocumentOrder:
    def test_preorder_ranks_strictly_increase(self, doc):
        ranks = [n.sort_key for n in doc.iter_nodes()]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)

    def test_attributes_order_after_element_before_children(self, doc):
        a = doc.root.children[0].children[0]
        first_attr = a.attributes[0]
        first_child = a.children[0]
        assert a.sort_key < first_attr.sort_key < first_child.sort_key

    def test_attribute_declaration_order(self, doc):
        a = doc.root.children[0].children[0]
        x, y = a.attributes
        assert x.sort_key < y.sort_key

    def test_lt_is_document_order(self, doc):
        nodes = list(doc.iter_nodes())
        assert nodes[0] < nodes[1] < nodes[2]


class TestIdentity:
    def test_equality_same_node(self, doc):
        a = doc.root.children[0]
        assert a == a
        assert hash(a) == hash(a)

    def test_different_nodes_unequal(self, doc):
        r = doc.root.children[0]
        assert r.children[0] != r.children[1]

    def test_nodes_from_different_documents_unequal(self):
        d1 = parse_document("<a/>")
        d2 = parse_document("<a/>")
        assert d1.root != d2.root
        assert d1.root.children[0] != d2.root.children[0]

    def test_usable_in_sets(self, doc):
        nodes = list(doc.iter_nodes())
        assert len(set(nodes + nodes)) == len(nodes)


class TestStringValue:
    def test_element_concatenates_descendant_text(self, doc):
        a = doc.root.children[0].children[0]
        assert a.string_value() == "t1t2t3"

    def test_root_string_value(self, doc):
        assert doc.root.string_value() == "t1t2t3"

    def test_text_node(self, doc):
        a = doc.root.children[0].children[0]
        assert a.children[0].string_value() == "t1"

    def test_attribute(self, doc):
        a = doc.root.children[0].children[0]
        assert a.attributes[0].string_value() == "1"

    def test_comment_and_pi(self, doc):
        r = doc.root.children[0]
        comment = next(c for c in r.children if c.kind == NodeKind.COMMENT)
        assert comment.string_value() == "c"

    def test_empty_element(self, doc):
        empty = doc.root.children[0].children[-3]  # second <a/>
        assert [c for c in doc.root.children[0].children
                if c.kind == NodeKind.ELEMENT][1].string_value() == ""

    def test_comment_not_in_element_string_value(self):
        doc = parse_document("<a>x<!--hidden-->y</a>")
        assert doc.root.string_value() == "xy"

    def test_single_text_child_without_value(self):
        doc = parse_document("<a>x</a>")
        doc.root.children[0].children[0].value = None
        assert doc.root.string_value() == ""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), blank=st.integers(0, 4))
    def test_matches_generic_walk(self, seed, blank):
        """Every node's string-value — in memory and stored — equals the
        spec's concatenation of descendant text, whichever path
        ``string_value`` takes (mixed content, comments/PIs, empty
        elements, and text nodes whose value is ``None``)."""
        rng = random.Random(seed)
        document = DocumentGenerator(rng).generate()
        texts = [
            node for node in _all_nodes(document.root)
            if node.kind is NodeKind.TEXT
        ]
        for node in rng.sample(texts, min(blank, len(texts))):
            node.value = rng.choice((None, ""))
        for node in _all_nodes(document.root):
            assert node.string_value() == _generic_string_value(node)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "doc.natix")
            DocumentStore.write(document, path)
            with DocumentStore.open(path, buffer_pages=8) as stored:
                for node in _all_nodes(stored.root):
                    assert node.string_value() == _generic_string_value(
                        node
                    )


def _all_nodes(node):
    """The node, its attributes and its subtree, in document order."""
    yield node
    yield from node.attributes
    for child in node.children:
        yield from _all_nodes(child)


def _generic_string_value(node):
    """XPath 1.0 §5 string-value, straight from the definition."""
    if node.kind not in (NodeKind.ROOT, NodeKind.ELEMENT):
        return node.value or ""
    return "".join(
        descendant.value or ""
        for descendant in node.iter_descendants()
        if descendant.kind is NodeKind.TEXT
    )


class TestNavigation:
    def test_child_index(self, doc):
        r = doc.root.children[0]
        for index, child in enumerate(r.children):
            assert child.child_index() == index

    def test_child_index_of_root_raises(self, doc):
        with pytest.raises(ValueError):
            doc.root.child_index()

    def test_root_method(self, doc):
        deep = doc.root.children[0].children[0].children[1]
        assert deep.root() is doc.root

    def test_iter_descendants_is_preorder(self, doc):
        names = [
            n.name or n.kind.name for n in doc.root.iter_descendants()
        ]
        assert names[0] == "r"
        assert "b" in names

    def test_sibling_iteration(self, doc):
        r = doc.root.children[0]
        first = r.children[0]
        following = list(first.iter_following_siblings())
        assert len(following) == len(r.children) - 1
        last = r.children[-1]
        preceding = list(last.iter_preceding_siblings())
        assert [n.sort_key for n in preceding] == sorted(
            (n.sort_key for n in preceding), reverse=True
        )

    def test_attribute_has_no_siblings(self, doc):
        attr = doc.root.children[0].children[0].attributes[0]
        assert list(attr.iter_following_siblings()) == []
        assert list(attr.iter_preceding_siblings()) == []
        assert not attr.is_tree_node()


class TestNamespaces:
    def test_lookup_and_in_scope(self):
        doc = parse_document(
            '<a xmlns="urn:d" xmlns:p="urn:p"><p:b xmlns:q="urn:q"/></a>'
        )
        a = doc.root.children[0]
        b = a.children[0]
        assert a.lookup_namespace("p") == "urn:p"
        assert b.lookup_namespace("q") == "urn:q"
        assert b.lookup_namespace("p") == "urn:p"
        assert b.lookup_namespace("nope") == ""
        scope = b.in_scope_namespaces()
        assert scope[""] == "urn:d"
        assert scope["xml"].startswith("http://www.w3.org/XML")

    def test_element_namespace_uri(self):
        doc = parse_document('<a xmlns="urn:d"><b/></a>')
        a = doc.root.children[0]
        assert a.namespace_uri() == "urn:d"
        assert a.children[0].namespace_uri() == "urn:d"

    def test_unprefixed_attribute_has_no_namespace(self):
        doc = parse_document('<a xmlns="urn:d" x="1"/>')
        attr = doc.root.children[0].attributes[0]
        assert attr.namespace_uri() == ""

    def test_prefixed_names(self):
        doc = parse_document('<p:a xmlns:p="urn:p" p:x="1"/>')
        a = doc.root.children[0]
        assert a.prefix == "p"
        assert a.local_name == "a"
        assert a.namespace_uri() == "urn:p"
        assert a.attributes[0].namespace_uri() == "urn:p"

    def test_default_ns_undeclare(self):
        doc = parse_document('<a xmlns="urn:d"><b xmlns=""/></a>')
        b = doc.root.children[0].children[0]
        assert b.namespace_uri() == ""
        assert "" not in b.in_scope_namespaces()

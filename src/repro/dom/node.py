"""The XPath 1.0 node model.

XPath defines seven node kinds (root, element, attribute, text, comment,
processing instruction, namespace) arranged in a tree with a *total
document order*.  This module implements the in-memory variant; the
page-backed storage layer (:mod:`repro.storage.nodes`) implements the same
protocol so that axis navigation and the physical algebra work unchanged on
either representation.

Document order
--------------
Every node carries a ``sort_key`` — a ``(rank, cls, idx)`` triple that
totally orders the nodes of one document:

* root/element/text/comment/PI nodes receive consecutive pre-order ``rank``
  integers with ``cls = 0``;
* the namespace nodes of an element share the element's rank with
  ``cls = 1`` and are ordered by ``idx``;
* the attributes of an element share the element's rank with ``cls = 2``
  and are ordered by declaration ``idx``.

This matches the XPath requirement that an element precedes its namespace
nodes, which precede its attribute nodes, which precede its children.

Node identity
-------------
Two node objects are *the same node* iff they live in the same document and
have the same sort key.  ``__eq__``/``__hash__`` implement exactly that, so
nodes can be placed in sets for duplicate elimination even when the storage
layer hands out fresh proxy objects for each access.
"""

from __future__ import annotations

from enum import IntEnum
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.dom.document import Document

SortKey = Tuple[int, int, int]


class NodeKind(IntEnum):
    """The seven node kinds of the XPath 1.0 data model."""

    ROOT = 0
    ELEMENT = 1
    ATTRIBUTE = 2
    TEXT = 3
    COMMENT = 4
    PROCESSING_INSTRUCTION = 5
    NAMESPACE = 6


# The kinds ``Node.string_value`` tests per node, as module globals: an
# attribute lookup on the enum class costs more than the test itself.
_ROOT = NodeKind.ROOT
_ELEMENT = NodeKind.ELEMENT
_TEXT = NodeKind.TEXT


class Node:
    """A single node of an XML document.

    Instances are created through :class:`~repro.dom.builder.DocumentBuilder`
    or the parser — never directly — because document order ranks must be
    assigned consistently for a whole document.
    """

    __slots__ = (
        "kind",
        "name",
        "value",
        "parent",
        "document",
        "sort_key",
        "_children",
        "_attributes",
        "_ns_decls",
        "__weakref__",
    )

    def __init__(
        self,
        kind: NodeKind,
        name: Optional[str] = None,
        value: Optional[str] = None,
    ):
        self.kind = kind
        #: Element tag name, attribute name or PI target (``None`` otherwise).
        self.name = name
        #: Attribute value, text data, comment data or PI data.
        self.value = value
        self.parent: Optional[Node] = None
        self.document: Optional["Document"] = None
        self.sort_key: SortKey = (0, 0, 0)
        self._children: list[Node] = []
        self._attributes: list[Node] = []
        #: Namespace declarations made *on this element*: prefix -> uri,
        #: with the default namespace stored under the empty string.
        self._ns_decls: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Identity and ordering
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self.document is other.document and self.sort_key == other.sort_key

    def __hash__(self) -> int:
        return hash((id(self.document), self.sort_key))

    def __lt__(self, other: "Node") -> bool:
        """Document-order comparison (only meaningful within one document)."""
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name if self.name is not None else self.kind.name.lower()
        return f"<Node {self.kind.name} {label!r} @{self.sort_key}>"

    # ------------------------------------------------------------------
    # Structure accessors (the shared node protocol)
    # ------------------------------------------------------------------

    @property
    def children(self) -> Sequence["Node"]:
        """Child nodes in document order (empty for leaf kinds)."""
        return self._children

    @property
    def attributes(self) -> Sequence["Node"]:
        """Attribute nodes in declaration order (elements only)."""
        return self._attributes

    @property
    def namespace_declarations(self) -> dict[str, str]:
        """Namespace declarations written on this element."""
        return self._ns_decls

    def child_index(self) -> int:
        """Position of this node within ``parent.children`` (O(1) via rank).

        Falls back to a linear scan for attribute nodes, which are not part
        of ``children``.
        """
        if self.parent is None:
            raise ValueError("root node has no child index")
        siblings = self.parent.children
        lo, hi = 0, len(siblings) - 1
        # Children are stored in document order, so binary search by key.
        while lo <= hi:
            mid = (lo + hi) // 2
            key = siblings[mid].sort_key
            if key == self.sort_key:
                return mid
            if key < self.sort_key:
                lo = mid + 1
            else:
                hi = mid - 1
        raise ValueError("node is not among its parent's children")

    # ------------------------------------------------------------------
    # XPath string-value (spec section 5)
    # ------------------------------------------------------------------

    def string_value(self) -> str:
        """The XPath string-value of this node."""
        kind = self.kind
        if kind is not _ELEMENT and kind is not _ROOT:
            # Text, comment, PI, attribute and namespace nodes.
            return self.value or ""
        # Root and element: concatenation of all descendant text nodes.
        # Access goes through the ``children`` property so that lazy
        # storage proxies load their structure on demand.
        children = self.children
        if len(children) == 1:
            # A leaf element holding one text node (every DBLP field):
            # skip the generic walk.
            child = children[0]
            if child.kind is _TEXT:
                return child.value or ""
        parts: list[str] = []
        stack = list(reversed(children))
        while stack:
            node = stack.pop()
            if node.kind is _TEXT:
                parts.append(node.value or "")
            elif node.kind is _ELEMENT:
                stack.extend(reversed(node.children))
        return "".join(parts)

    # ------------------------------------------------------------------
    # Names (spec section 2.3: expanded names)
    # ------------------------------------------------------------------

    @property
    def prefix(self) -> str:
        """Namespace prefix of the node name (empty string if none)."""
        if self.name and ":" in self.name:
            return self.name.split(":", 1)[0]
        return ""

    @property
    def local_name(self) -> str:
        """Local part of the node name (empty string for unnamed kinds)."""
        if self.name is None:
            return ""
        if ":" in self.name:
            return self.name.split(":", 1)[1]
        return self.name

    def namespace_uri(self) -> str:
        """Namespace URI of this node's expanded name.

        Elements with no prefix take the in-scope default namespace;
        attributes with no prefix are in no namespace (XML Namespaces 1.0).
        """
        if self.kind == NodeKind.ELEMENT:
            return self.lookup_namespace(self.prefix)
        if self.kind == NodeKind.ATTRIBUTE:
            if not self.prefix:
                return ""
            owner = self.parent
            return owner.lookup_namespace(self.prefix) if owner else ""
        return ""

    def lookup_namespace(self, prefix: str) -> str:
        """Resolve ``prefix`` against the in-scope declarations at this node.

        The reserved ``xml`` prefix is always bound.  Returns the empty
        string for undeclared prefixes.
        """
        if prefix == "xml":
            return "http://www.w3.org/XML/1998/namespace"
        node: Optional[Node] = self
        while node is not None:
            if prefix in node._ns_decls:
                return node._ns_decls[prefix]
            node = node.parent
        return ""

    def in_scope_namespaces(self) -> dict[str, str]:
        """All namespace bindings in scope at this element.

        Per XML Namespaces, an inner ``xmlns=""`` undeclares the default
        namespace; such bindings are removed from the result.
        """
        bindings: dict[str, str] = {}
        chain: list[Node] = []
        node: Optional[Node] = self
        while node is not None:
            chain.append(node)
            node = node.parent
        for ancestor in reversed(chain):
            bindings.update(ancestor._ns_decls)
        bindings["xml"] = "http://www.w3.org/XML/1998/namespace"
        return {p: u for p, u in bindings.items() if u}

    # ------------------------------------------------------------------
    # Tree traversal helpers used by the axis implementations
    # ------------------------------------------------------------------

    def root(self) -> "Node":
        """The root node of the document containing this node."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def iter_descendants(self) -> Iterator["Node"]:
        """Descendant tree nodes in document order (no attributes)."""
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            yield node
            if node.kind == NodeKind.ELEMENT:
                stack.extend(reversed(node.children))

    def iter_following_siblings(self) -> Iterator["Node"]:
        """Siblings after this node, in document order."""
        if self.parent is None or self.kind in (
            NodeKind.ATTRIBUTE,
            NodeKind.NAMESPACE,
        ):
            return
        siblings = self.parent.children
        for i in range(self.child_index() + 1, len(siblings)):
            yield siblings[i]

    def iter_preceding_siblings(self) -> Iterator["Node"]:
        """Siblings before this node, in *reverse* document order."""
        if self.parent is None or self.kind in (
            NodeKind.ATTRIBUTE,
            NodeKind.NAMESPACE,
        ):
            return
        siblings = self.parent.children
        for i in range(self.child_index() - 1, -1, -1):
            yield siblings[i]

    def is_tree_node(self) -> bool:
        """True for nodes that take part in sibling/descendant structure."""
        return self.kind not in (NodeKind.ATTRIBUTE, NodeKind.NAMESPACE)

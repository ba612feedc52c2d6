"""Runtime support for generated plan functions.

Generated code (see :mod:`repro.codegen.emitter`) is exec'd against a
namespace of interned helpers and constants so the emitted source stays
short and allocation-free on the hot path: node kinds, axes and types
are pre-bound objects compared with ``is``, and the slow-path value
conversions delegate to exactly the same functions the interpreter's
subscript evaluator uses — parity with the iterator engine is by
construction, not by reimplementation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.dom.node import Node, NodeKind
from repro.engine.subscripts import (
    _as_number as as_number,
    _as_string as as_string,
    call_builtin,
    coerce,
)
from repro.errors import ExecutionError
from repro.index.runtime import subtree_candidates
from repro.xpath.axes import Axis, NodeTestKind, iter_axis, make_node_test
from repro.xpath.datamodel import XPathType, arith, compare, to_boolean


def hashable(value: object) -> object:
    """Memo-key form of a register value (lists become tuples)."""
    if isinstance(value, list):
        return tuple(value)
    return value


def ncmp(value: object) -> object:
    """Bare nodes in comparisons behave as singleton node-sets."""
    if isinstance(value, Node):
        return [value]
    return value


def deref_ctx(value: object, context) -> Optional[Node]:
    """Dereference an ID string against the context document."""
    document = context.context_node.document
    if document is None:
        return None
    return document.get_element_by_id(as_string(value))


def root_of(value: object) -> Node:
    """The document root of a node operand (``root(cn)``)."""
    if not isinstance(value, Node):
        raise ExecutionError("root() requires a node operand")
    return value.root()


def _first_node(values: Iterable[object]) -> Optional[Node]:
    """The value first in document order (node-sets are unordered)."""
    best: Optional[Node] = None
    for node in values:
        if isinstance(node, Node) and (
            best is None or node.sort_key < best.sort_key
        ):
            best = node
    return best


def agg_over(agg: str, values: Iterable[object]) -> object:
    """Apply an aggregate to a stream of values.

    Mirrors :func:`repro.engine.subscripts.run_aggregate` over plain
    values instead of an iterator/register pair, including the
    ``exists`` early exit (abandoning the generator closes it, which
    unwinds any in-progress memo recording exactly like closing the
    interpreted iterator mid-stream).
    """
    if agg == "exists":
        for _ in values:
            return True
        return False
    if agg == "count":
        count = 0
        for _ in values:
            count += 1
        return float(count)
    if agg == "sum":
        total = 0.0
        for value in values:
            total += as_number(value)
        return total
    if agg in ("max", "min"):
        best = float("nan")
        for value in values:
            number = as_number(value)
            if math.isnan(number):
                continue
            if math.isnan(best):
                best = number
            elif agg == "max" and number > best:
                best = number
            elif agg == "min" and number < best:
                best = number
        return best
    if agg == "first_string":
        node = _first_node(values)
        return node.string_value() if node is not None else ""
    if agg == "first_node":
        return _first_node(values)
    if agg == "collect":
        return list(values)
    raise ExecutionError(f"unknown aggregate {agg!r}")


def _sort_key0(item):
    return item[0]


def base_namespace() -> Dict[str, object]:
    """A fresh exec namespace for one generated plan function."""
    namespace: Dict[str, object] = {
        "__builtins__": {
            "isinstance": isinstance,
            "getattr": getattr,
            "len": len,
            "float": float,
            "list": list,
            "set": set,
            "type": type,
            "next": next,
            "range": range,
        },
        "_Node": Node,
        "_ExecutionError": ExecutionError,
        "_as_number": as_number,
        "_as_string": as_string,
        "_to_boolean": to_boolean,
        "_arith": arith,
        "_compare": compare,
        "_coerce": coerce,
        "_call_builtin": call_builtin,
        "_hashable": hashable,
        "_ncmp": ncmp,
        "_deref": deref_ctx,
        "_root": root_of,
        "_agg": agg_over,
        "_iter_axis": iter_axis,
        "_index_candidates": subtree_candidates,
        "_make_node_test": make_node_test,
        "_sort_key0": _sort_key0,
    }
    for kind in NodeKind:
        namespace[f"_K_{kind.name}"] = kind
    for axis in Axis:
        namespace[f"_AX_{axis.name}"] = axis
    for target in XPathType:
        namespace[f"_TY_{target.name}"] = target
    for test_kind in NodeTestKind:
        namespace[f"_NT_{test_kind.name}"] = test_kind
    return namespace

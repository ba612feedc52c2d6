"""Wire protocol of the network serving front end.

One request, one response — but the response is a *stream* of JSON
frames (newline-delimited, carried as HTTP/1.1 chunks), so a large
node-set answer leaves the server page by page instead of as one
materialized body:

``header``
    opens every successful response: the query id, the resolved
    target, the plan kind and the effective page size,
``page``
    at most ``page_size`` result items, in emission order with a
    monotonically increasing ``seq`` — reassembling pages in ``seq``
    order reconstructs the full result,
``footer``
    closes a successful response with page/item totals and the
    server-side elapsed time,
``error``
    replaces the footer when the evaluation failed mid-stream (or the
    whole response when it failed before the first page): a typed
    code, the HTTP-equivalent status, and the engine's exception type
    name — so a client can re-raise the exact
    :mod:`repro.errors` class the in-process API would have raised.

Result items are self-describing dicts.  Nodes travel in the same
canonical shape the differential oracle compares
(:func:`repro.testing.oracle.canonical_value`): ``sort_key`` (the
pre-order rank triple), node ``kind``, ``name`` and the string value —
live node handles cannot cross the wire, exactly as they cannot cross
the collection layer's process boundary
(:class:`repro.collection.NodeRecord`, which adds ``shard``).  Scalars
carry their XPath type; non-finite numbers are spelled ``"NaN"`` /
``"Infinity"`` / ``"-Infinity"`` because JSON has no tokens for them.

The error-code table maps the :mod:`repro.errors` hierarchy onto
HTTP-style classes: governance aborts are the 4xx "slow down" family
(408 deadline, 429 budget), compile-time errors are 400s (the query
itself is wrong), a lost collection shard is a 503 (retryable server
trouble), and anything else in the execution layer is a 500.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro import errors as E
from repro.engine.options import (
    CODEGEN_MODES,
    INDEX_MODES,
    OPTIMIZER_MODES,
    EvalOptions,
)

#: Protocol revision carried in every header frame.
PROTOCOL_VERSION = 1

#: Request modes: ``stream`` pulls pages lazily from the iterator
#: engine; ``full`` materializes through the engine's coalescing
#: ``evaluate`` path (identical concurrent requests share one
#: execution) and pages the finished list.
MODES = ("stream", "full")

#: ``(code, http_status)`` per error class, most specific first — the
#: first ``isinstance`` match wins, so subclasses precede their bases.
ERROR_TABLE: Tuple[Tuple[type, str, int], ...] = (
    (E.QueryTimeoutError, "timeout", 408),
    (E.QueryCancelledError, "cancelled", 408),
    (E.QueryBudgetError, "budget-exceeded", 429),
    (E.ShardFailedError, "shard-failed", 503),
    (E.UnboundVariableError, "bad-query", 400),
    (E.XPathError, "bad-query", 400),
    (E.CodegenError, "bad-query", 400),
    (E.XMLSyntaxError, "bad-document", 400),
    (E.TranslationError, "internal", 500),
    (E.CollectionError, "collection-error", 500),
    (E.StorageError, "storage-error", 500),
    (E.ExecutionError, "execution-error", 500),
    (E.ReproError, "internal", 500),
)

#: Server-side rejection codes (no engine exception behind them).
REJECTION_STATUS: Dict[str, int] = {
    "bad-request": 400,
    "unknown-target": 404,
    "not-found": 404,
    "method-not-allowed": 405,
    "quota-exceeded": 429,
    "queue-full": 429,
    "draining": 503,
    "internal": 500,
}


class ProtocolError(Exception):
    """A request the server rejects before (or instead of) evaluating.

    Carries the typed ``code`` (a :data:`REJECTION_STATUS` key) and the
    HTTP status to answer with; the message is the human-readable
    detail placed in the error frame.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.status = REJECTION_STATUS[code]


def classify_error(error: BaseException) -> Tuple[str, int]:
    """The ``(code, http_status)`` classification of an engine error.

    Exceptions outside the :class:`~repro.errors.ReproError` hierarchy
    classify as ``("crash", 500)`` — a client seeing that code has
    found a server bug, exactly like the differential oracle's
    ``crash`` outcome kind.
    """
    for exc_type, code, status in ERROR_TABLE:
        if isinstance(error, exc_type):
            return code, status
    return "crash", 500


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------


@dataclass
class QueryRequest:
    """One decoded query request.

    The body carries the full :class:`~repro.api.EvalOptions` surface
    (variables, namespaces, governance limits, backend modes) plus the
    protocol-level knobs: the named ``target``, the ``page_size`` and
    the ``mode`` (see :data:`MODES`).
    """

    query: str
    target: Optional[str] = None
    mode: str = "stream"
    page_size: Optional[int] = None
    ordered: bool = False
    variables: Dict[str, object] = field(default_factory=dict)
    namespaces: Dict[str, str] = field(default_factory=dict)
    timeout: Optional[float] = None
    max_tuples: Optional[int] = None
    max_bytes: Optional[int] = None
    index: Optional[str] = None
    codegen: Optional[str] = None
    optimizer: Optional[str] = None

    def eval_options(self, *, default_timeout: Optional[float] = None,
                     cancel=None) -> EvalOptions:
        """The request folded into one :class:`~repro.api.EvalOptions`.

        ``default_timeout`` is the server's per-client admission
        deadline, applied when the request does not bring its own —
        this is how the admission quota feeds the governor every
        evaluation runs under.
        """
        timeout = self.timeout if self.timeout is not None else (
            default_timeout
        )
        try:
            return EvalOptions(
                variables=self.variables or None,
                namespaces=self.namespaces or None,
                timeout=timeout,
                max_tuples=self.max_tuples,
                max_bytes=self.max_bytes,
                index=self.index,
                codegen=self.codegen,
                optimizer=self.optimizer,
                cancel=cancel,
            )
        except ValueError as error:
            raise ProtocolError("bad-request", str(error)) from None


def _decode_variables(raw: object) -> Dict[str, object]:
    """JSON variable bindings → XPath values (scalars only).

    Numbers become XPath numbers (floats), booleans and strings map
    directly; the non-finite string spellings round-trip back to
    floats.  Node-set variables cannot travel as JSON and are
    rejected.
    """
    if not isinstance(raw, dict):
        raise ProtocolError("bad-request", "variables must be an object")
    variables: Dict[str, object] = {}
    for name, value in raw.items():
        if isinstance(value, bool):
            variables[name] = value
        elif isinstance(value, (int, float)):
            variables[name] = float(value)
        elif isinstance(value, str):
            variables[name] = _number_from_wire(value, default=value)
        else:
            raise ProtocolError(
                "bad-request",
                f"variable ${name} must be a number, boolean or string "
                f"(node-set variables cannot travel as JSON)",
            )
    return variables


def parse_request(body: bytes) -> QueryRequest:
    """Decode one query-request body, validating every field."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(
            "bad-request", f"request body is not valid JSON: {error}"
        ) from None
    if not isinstance(data, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    query = data.get("query")
    if not isinstance(query, str) or not query:
        raise ProtocolError(
            "bad-request", "request needs a non-empty string 'query'"
        )
    unknown = set(data) - {
        "query", "target", "mode", "page_size", "ordered", "variables",
        "namespaces", "timeout", "max_tuples", "max_bytes", "index",
        "codegen", "optimizer",
    }
    if unknown:
        raise ProtocolError(
            "bad-request", f"unknown request field(s) {sorted(unknown)}"
        )
    mode = data.get("mode", "stream")
    if mode not in MODES:
        raise ProtocolError(
            "bad-request", f"mode must be one of {list(MODES)}, got {mode!r}"
        )
    page_size = data.get("page_size")
    if page_size is not None and (
        not isinstance(page_size, int) or isinstance(page_size, bool)
        or page_size < 1
    ):
        raise ProtocolError(
            "bad-request", "page_size must be a positive integer"
        )
    target = data.get("target")
    if target is not None and not isinstance(target, str):
        raise ProtocolError("bad-request", "target must be a string")
    namespaces = data.get("namespaces") or {}
    if not isinstance(namespaces, dict) or not all(
        isinstance(k, str) and isinstance(v, str)
        for k, v in namespaces.items()
    ):
        raise ProtocolError(
            "bad-request", "namespaces must map prefixes to URI strings"
        )

    def _number(key: str, *, integral: bool) -> Optional[float]:
        value = data.get(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError(
                "bad-request", f"{key} must be a positive number"
            )
        if value <= 0:
            raise ProtocolError(
                "bad-request", f"{key} must be a positive number"
            )
        return int(value) if integral else float(value)

    def _mode_knob(key: str, allowed) -> Optional[str]:
        value = data.get(key)
        if value is None:
            return None
        if value not in allowed:
            raise ProtocolError(
                "bad-request",
                f"{key} must be one of {list(allowed)}, got {value!r}",
            )
        return value

    return QueryRequest(
        query=query,
        target=target,
        mode=mode,
        page_size=page_size,
        ordered=bool(data.get("ordered", False)),
        variables=_decode_variables(data.get("variables") or {}),
        namespaces=dict(namespaces),
        timeout=_number("timeout", integral=False),
        max_tuples=_number("max_tuples", integral=True),
        max_bytes=_number("max_bytes", integral=True),
        index=_mode_knob("index", INDEX_MODES),
        codegen=_mode_knob("codegen", CODEGEN_MODES),
        optimizer=_mode_knob("optimizer", OPTIMIZER_MODES),
    )


# ----------------------------------------------------------------------
# Result items
# ----------------------------------------------------------------------


def _number_to_wire(value: float) -> object:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _number_from_wire(value: object, default: object = None) -> object:
    if value == "NaN":
        return float("nan")
    if value == "Infinity":
        return float("inf")
    if value == "-Infinity":
        return float("-inf")
    return value if default is None else default


def encode_item(value: object) -> dict:
    """One result item (a node, a collection record, or a scalar)."""
    sort_key = getattr(value, "sort_key", None)
    if sort_key is not None:
        item = {
            "type": "node",
            "sort_key": list(sort_key),
            "kind": _node_kind(value),
            "name": getattr(value, "name", None) or "",
            "value": _string_value(value),
        }
        shard = getattr(value, "shard", None)
        if shard is not None:
            item["shard"] = shard
        return item
    if isinstance(value, bool):
        return {"type": "boolean", "value": value}
    if isinstance(value, float):
        return {"type": "number", "value": _number_to_wire(value)}
    return {"type": "string", "value": str(value)}


def _node_kind(node: object) -> int:
    kind = getattr(node, "kind", 0)
    return getattr(kind, "value", kind)


def _string_value(node: object) -> str:
    string_value = getattr(node, "string_value", "")
    if callable(string_value):
        return string_value()
    return string_value


def decode_scalar(item: Mapping[str, object]) -> object:
    """A scalar item back to its Python value (client side)."""
    value = item.get("value")
    if item.get("type") == "number":
        decoded = _number_from_wire(value)
        return float(decoded) if isinstance(decoded, (int, float)) else (
            decoded
        )
    return value


def canonical_items(items: List[Mapping[str, object]]) -> object:
    """Reassembled page items → the oracle's canonical value form.

    Mirrors :func:`repro.testing.oracle.canonical_value` exactly, so a
    loopback HTTP response can be compared against any in-process
    route: node items sort into the same ``(sort_key, kind, name,
    string_value)`` tuples, scalars carry type tags, NaN normalizes.
    """
    if items and items[0].get("type") == "node":
        return (
            "node-set",
            tuple(
                sorted(
                    (
                        tuple(item["sort_key"]),
                        item["kind"],
                        item["name"],
                        item["value"],
                    )
                    for item in items
                )
            ),
        )
    if not items:
        return ("node-set", ())
    item = items[0]
    kind = item.get("type")
    value = decode_scalar(item)
    if kind == "number":
        if isinstance(value, float) and math.isnan(value):
            return ("number", "NaN")
        return ("number", value)
    return (kind, value)


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------


def header_frame(qid: int, *, target: str, kind: str,
                 page_size: int, mode: str) -> dict:
    return {
        "frame": "header",
        "protocol": PROTOCOL_VERSION,
        "qid": qid,
        "target": target,
        "kind": kind,
        "page_size": page_size,
        "mode": mode,
    }


def page_frame(qid: int, seq: int, items: List[dict]) -> dict:
    return {"frame": "page", "qid": qid, "seq": seq, "items": items}


def footer_frame(qid: int, *, pages: int, items: int,
                 elapsed_ms: float) -> dict:
    return {
        "frame": "footer",
        "qid": qid,
        "pages": pages,
        "items": items,
        "elapsed_ms": round(elapsed_ms, 3),
    }


def error_frame(qid: Optional[int], code: str, status: int,
                error: str, message: str) -> dict:
    frame = {
        "frame": "error",
        "code": code,
        "status": status,
        "error": error,
        "message": message,
    }
    if qid is not None:
        frame["qid"] = qid
    return frame


def error_frame_for(qid: Optional[int],
                    error: BaseException) -> Tuple[dict, int]:
    """The error frame (and status) for an engine exception."""
    if isinstance(error, ProtocolError):
        frame = error_frame(
            qid, error.code, error.status, "ProtocolError", str(error)
        )
        return frame, error.status
    code, status = classify_error(error)
    frame = error_frame(
        qid, code, status, type(error).__name__, str(error)
    )
    return frame, status


def encode_frame(frame: Mapping[str, object]) -> bytes:
    """One frame as a newline-terminated JSON line."""
    return (json.dumps(frame, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )

"""In-memory spans recorded from outside the program.

The ledger owns every span: :meth:`Tracer.wrap` replaces a public
function or method of ``src/repro`` with a timing wrapper for the
length of one traced run and :meth:`Tracer.uninstall` puts the original
back.  Nothing under ``src/`` knows it is being traced, and ``src/`` may
move on without the ledger: a target that is no longer there is skipped
and listed in :attr:`Tracer.missing` (its metrics then read ``null``),
it does not abort the run.

A span is ``(name, start, end, parent, op_id)`` on the
``time.perf_counter`` clock (``CLOCK_MONOTONIC`` on Linux, so spans of
the server subprocess share the time base).  Calls nest synchronously
within a thread, so a span's *self time* — its duration minus the part
its children cover — is computed as the children return.

Functions called thousands of times per operation (``StoredDocument.
node``, ``BufferManager.get_page``, ``encode_item``) are wrapped as
*leaf* spans: they still take part in self-time accounting, but they
are coalesced into one record per (parent span, name) carrying a call
count and busy time, which bounds the memory of a traced run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_perf = time.perf_counter

#: Frame layout on the per-thread stack.
_CHILD, _INDEX, _OP = 0, 1, 2


class _Span:
    """Context manager for one recorded (non-leaf) span."""

    __slots__ = ("tracer", "name", "op_id", "frame", "stack", "start")

    def __init__(self, tracer: "Tracer", name: str, op_id: Optional[int]):
        self.tracer = tracer
        self.name = name
        self.op_id = op_id

    def __enter__(self) -> "_Span":
        stack = self.stack = self.tracer._stack()
        parent = stack[-1]
        op_id = parent[_OP] if self.op_id is None else self.op_id
        self.frame = [0.0, next(self.tracer._ids), op_id, parent[_INDEX]]
        stack.append(self.frame)
        self.start = _perf()
        return self

    def __exit__(self, *exc_info) -> None:
        end = _perf()
        frame = self.frame
        self.stack.pop()
        duration = end - self.start
        self.stack[-1][_CHILD] += duration
        self.tracer.spans[frame[_INDEX]] = (
            self.name, self.start, end, frame[3], frame[_OP],
            duration - frame[_CHILD],
        )


class _TracedIterator:
    """Times every ``next()`` of a returned generator as a leaf span;
    the first one is also sampled (time to the first item or page)."""

    __slots__ = ("_inner", "_leaf", "_first")

    def __init__(self, inner, leaf: Callable, first: List[float]):
        self._inner = iter(inner)
        self._leaf = leaf
        self._first = first

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        if self._first is None:
            return self._leaf(next, self._inner)
        start = _perf()
        try:
            return self._leaf(next, self._inner)
        finally:
            self._first.append(_perf() - start)
            self._first = None

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


class Tracer:
    """Span recorder plus the bookkeeping to patch and unpatch."""

    def __init__(self) -> None:
        #: index -> (name, start, end, parent, op_id, self_seconds)
        self.spans: Dict[int, tuple] = {}
        #: (parent index, op_id, name) -> [count, busy, self, first, last]
        self.leaves: Dict[tuple, list] = {}
        #: span name -> ``src/repro`` layer it is attributed to
        self.layer_of: Dict[str, str] = {}
        #: values sampled from return values (sizes, node counts)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count()
        #: Root frames get distinct negative indices, so two threads
        #: never update the same coalesced leaf row.
        self._roots = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []
        #: wrap targets that do not exist (any more) in ``src/repro``
        self.missing: set = set()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = [[0.0, -next(self._roots), -1]]
            return stack

    def span(self, name: str, layer: Optional[str] = None,
             op_id: Optional[int] = None) -> _Span:
        """A recorded span; ``op_id`` tags it and every descendant."""
        if layer is not None:
            self.layer_of[name] = layer
        return _Span(self, name, op_id)

    def _leaf_call(self, name: str, fn: Callable, *args, **kwargs):
        stack = self._stack()
        parent = stack[-1]
        frame = [0.0, parent[_INDEX], parent[_OP]]
        stack.append(frame)
        start = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            duration = end - start
            parent[_CHILD] += duration
            key = (frame[_INDEX], frame[_OP], name)
            row = self.leaves.get(key)
            if row is None:
                self.leaves[key] = [
                    1, duration, duration - frame[_CHILD], start, end,
                ]
            else:
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[_CHILD]
                row[4] = end

    # -- patching ------------------------------------------------------

    def wrap(self, owner, attr: str, layer: str, *,
             leaf: bool = False, stream: bool = False,
             name_of: Optional[Callable] = None,
             sample: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper until uninstall.

        ``owner`` is a module or class, or its path as
        ``"package.module"`` / ``"package.module:Class"``, imported here.
        ``name_of(*args)`` picks the span name per call (page kind of a
        buffer manager), ``sample(result, args)`` returns a value to
        record under the span name, ``stream`` also times each
        ``next()`` of a returned generator as ``<name>.next`` and
        samples the first one as ``<name>.first``.
        """
        target = f"{owner}.{attr}"
        if isinstance(owner, str):
            owner = _resolve(owner)
        raw = None if owner is None else vars(owner).get(attr)
        if raw is None:
            self.missing.add(target)
            return
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw
        # Methods are named ``Class.method``, module functions plainly.
        base = (
            f"{owner.__name__}.{attr}" if isinstance(owner, type) else attr
        )
        self.layer_of[base] = layer
        tracer = self

        def leaf_of(span_name: str) -> Callable:
            return lambda fn, *a, **k: tracer._leaf_call(
                span_name, fn, *a, **k
            )

        if stream:
            self.layer_of[base + ".next"] = layer
            next_leaf = leaf_of(base + ".next")

        if leaf and name_of is not None:
            def wrapper(*args, **kwargs):
                return tracer._leaf_call(
                    name_of(*args), original, *args, **kwargs
                )
        elif leaf:
            def wrapper(*args, **kwargs):
                return tracer._leaf_call(base, original, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with _Span(tracer, base, None):
                    result = original(*args, **kwargs)
                if sample is not None:
                    try:
                        tracer.samples[base].append(sample(result, args))
                    except Exception:  # noqa: BLE001 - what it reads is gone
                        tracer.missing.add(f"{target} (sample)")
                if stream:
                    return _TracedIterator(
                        result, next_leaf, tracer.samples[base + ".first"]
                    )
                return result

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------

    def rows(self):
        """Every span and coalesced leaf as one uniform row stream:
        ``(name, op_id, count, busy_seconds, self_seconds)``."""
        for name, _start, _end, _parent, op_id, self_s in list(
            self.spans.values()
        ):
            yield name, op_id, 1, _end - _start, self_s
        for (_parent, op_id, name), row in list(self.leaves.items()):
            yield name, op_id, row[0], row[1], row[2]

    def totals(self, *, window: bool = False) -> Dict[str, List[float]]:
        """name -> [calls, busy seconds, self seconds]; ``window`` keeps
        only spans inside a timed operation (``op_id >= 0``)."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for name, op_id, count, busy, self_s in self.rows():
            if window and op_id < 0:
                continue
            total = out[name]
            total[0] += count
            total[1] += busy
            total[2] += self_s
        return out

    def to_json(self) -> dict:
        """Spans as ``[index, name, start, end, parent, op_id, self]``
        and leaves as ``[name, parent, op_id, calls, busy, self, first,
        last]`` (seconds on the perf_counter clock)."""
        return {
            "layer_of": dict(self.layer_of),
            "spans": [
                [index, *span] for index, span in sorted(self.spans.items())
            ],
            "leaves": [
                [name, parent, op_id, *row]
                for (parent, op_id, name), row in self.leaves.items()
            ],
            "samples": dict(self.samples),
            "missing": sorted(self.missing),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)


def _resolve(path: str):
    """``"package.module:Class"`` imported and looked up, or ``None``."""
    module, _, qualname = path.partition(":")
    try:
        found = importlib.import_module(module)
        for part in qualname.split(".") if qualname else ():
            found = getattr(found, part)
    except (ImportError, AttributeError):
        return None
    return found


def totals_from_json(payload: dict) -> Dict[str, List[float]]:
    """The :meth:`Tracer.totals` of a dumped trace (server subprocess)."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for _index, name, start, end, _parent, _op, self_s in payload["spans"]:
        total = out[name]
        total[0] += 1
        total[1] += end - start
        total[2] += self_s
    for name, _parent, _op, count, busy, self_s, *_rest in payload[
        "leaves"
    ]:
        total = out[name]
        total[0] += count
        total[1] += busy
        total[2] += self_s
    return out

"""The shard worker: one process, one shard, one buffer pool.

Each worker owns exactly one shard for its whole life: it opens the
shard's :class:`~repro.storage.DocumentStore` once (its own
:class:`~repro.storage.buffer.BufferManager` page buffer and resident
index set — nothing is shared across processes), then loops on its task
queue compiling shipped translations (:func:`compile_shipped`) into a
private per-shard plan cache and evaluating them under a per-task
:class:`~repro.engine.governor.ResourceGovernor`.

The worker picks its own backend, the engine default
(``codegen="auto"``): a per-shard plan's first task interprets the
iterator tree, its second emits it as Python, and every later task runs
the generated code when the plan lowers and the interpreter when it
does not.  Code is emitted at most once per (shard, plan) and kept on
the cached :class:`~repro.compiler.pipeline.CompiledQuery`, so later
plan-cache hits pay no emission.

Everything crossing the process boundary is plain picklable data:

- **Tasks** (parent → worker): ``("query", qid, shard, ShippedPlan,
  variables, namespaces, limits)``, ``("sleep", qid, shard, seconds,
  limits)`` (a test hook that burns governed wall time without touching
  the store), or ``("stop",)``.  ``limits`` is ``(timeout, deadline,
  max_tuples, max_bytes)``; the worker rebases its governor onto the
  shipped collection deadline, so queue wait counts against it.
- **Results** (worker → parent): ``("ok", qid, shard, payload,
  elapsed, generated)`` or ``("err", qid, shard, encoded_error,
  elapsed, None)``.  ``generated`` is ``True`` when a query task ran as
  generated Python, ``False`` when it fell back to the interpreter
  because the plan has no lowering, and ``None`` for a plan's first,
  interpreted task and for tasks that ran no plan (sleeps, errors).
  Node-set payloads are canonical record tuples ``(sort_key, kind,
  name, string_value)`` in document order — live node handles never
  leave the process that owns their pages.

Cross-process cancellation rides one shared ``multiprocessing.Array``
of qid slots (shared by every worker of the pool): the parent parks
the qid it wants cancelled in a free slot, and a duck-typed cancel
token (the governor only reads ``.cancelled`` / ``.reason``) scans the
array for the task's own qid on every amortized governor check — so
several queries can be cancelled independently while others run
undisturbed.  Exceptions are shipped as ``(type name,
message, attribute dict)`` and reconstructed without re-running typed
``__init__`` signatures, so ``QueryTimeoutError(timeout, elapsed)`` and
friends survive the queue round-trip with their attributes intact.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import repro.errors as errors_module
from repro.collection.plans import ShippedPlan, compile_shipped
from repro.engine.governor import ResourceGovernor
from repro.engine.options import DEFAULT_CODEGEN
from repro.errors import QueryTimeoutError, ReproError
from repro.storage import DocumentStore

#: Worker-side per-shard plan cache bound (plans are per-process).
PLAN_CACHE_LIMIT = 64

#: Attributes worth shipping back with an encoded exception.
_ERROR_ATTRS = (
    "timeout", "elapsed", "resource", "limit", "used", "reason",
    "shard", "line", "column", "position", "name",
)


class _SlotCancelToken:
    """Cancel token backed by the shared cancel-slot array.

    The parent cancels an in-flight query by parking its qid in a free
    slot of the pool-wide array; this adapter makes the governor's
    amortized check observe it.  Matching on the *qid* (not a boolean)
    means a cancel aimed at one query can never leak into a concurrent
    or subsequent one.
    """

    __slots__ = ("_slots", "_qid", "reason")

    def __init__(self, slots, qid: int):
        self._slots = slots
        self._qid = qid
        self.reason = "collection scatter cancelled"

    @property
    def cancelled(self) -> bool:
        qid = self._qid
        for value in self._slots:
            if value == qid:
                return True
        return False


def encode_error(error: BaseException) -> Tuple[str, str, dict]:
    """Flatten an exception into picklable ``(type, message, attrs)``.

    Typed errors in this library have positional ``__init__``
    signatures (``QueryTimeoutError(timeout, elapsed)``) that naive
    exception pickling would call with the formatted message — so the
    wire format carries the attributes separately and
    :func:`decode_error` rebuilds instances without calling
    ``__init__`` at all.
    """
    attrs = {
        name: getattr(error, name)
        for name in _ERROR_ATTRS
        if hasattr(error, name)
    }
    return (type(error).__name__, str(error), attrs)


def decode_error(encoded: Tuple[str, str, dict]) -> Exception:
    """Reconstruct a worker-side exception from its wire form."""
    import builtins

    type_name, message, attrs = encoded
    cls = getattr(errors_module, type_name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls = getattr(builtins, type_name, None)
        if not (isinstance(cls, type) and issubclass(cls, Exception)):
            return RuntimeError(f"{type_name}: {message}")
    error = cls.__new__(cls)
    Exception.__init__(error, message)
    for name, value in attrs.items():
        try:
            setattr(error, name, value)
        except AttributeError:
            pass  # slotted or read-only: the message already carries it
    return error


def _make_governor(
    limits: Tuple[Optional[float], Optional[float], Optional[int],
                  Optional[int]],
    cancel_slots,
    qid: int,
) -> Optional[ResourceGovernor]:
    """Build this task's governor from the shipped collection limits.

    ``limits`` is ``(timeout, deadline, max_tuples, max_bytes)`` where
    ``deadline`` is the collection deadline on the (system-wide)
    monotonic clock.  The worker re-derives its *remaining* budget from
    the deadline, so time a task spent waiting in the queue counts
    against it — a governed scatter is bounded end to end, from the
    moment the collection query was submitted.  A task whose deadline
    already passed raises immediately.
    """
    timeout, deadline, max_tuples, max_bytes = limits
    remaining = None
    if deadline is not None:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise QueryTimeoutError(
                timeout or 0.0, (timeout or 0.0) - remaining
            )
    cancel = _SlotCancelToken(cancel_slots, qid)
    return ResourceGovernor(
        timeout=remaining,
        max_tuples=max_tuples,
        max_bytes=max_bytes,
        cancel=cancel,
    )


def _governed_sleep(seconds: float, governor: ResourceGovernor) -> str:
    """Burn wall time cooperatively (test hook for crash/cancel tests).

    Polls the governor every few milliseconds, so a deadline or a
    cancel aimed at this task aborts promptly — exactly like a real
    evaluation's amortized ``tick()``, just with a clock instead of a
    plan.
    """
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        governor.check()
        time.sleep(0.005)
    return "slept"


def _canonical_payload(value) -> tuple:
    """Worker-side half of the oracle's canonical form.

    Node-sets become ``("node-set", records)`` with records sorted in
    (pre-order) document order; scalars ship as
    ``("boolean"/"number"/"string", value)``.  This is byte-compatible
    with :func:`repro.testing.oracle.canonical_value` per shard, which
    is what lets the differential oracle compare collection results
    against in-process reference legs structurally.
    """
    if isinstance(value, list):
        return (
            "node-set",
            tuple(
                sorted(
                    (
                        tuple(node.sort_key),
                        node.kind.value,
                        node.name or "",
                        node.string_value(),
                    )
                    for node in value
                )
            ),
        )
    if isinstance(value, bool):
        return ("boolean", value)
    if isinstance(value, float):
        if value != value:
            return ("number", "NaN")
        return ("number", value)
    return ("string", value)


def worker_main(
    assignments,
    task_queue,
    result_queue,
    cancel_slots,
    index_mode: str,
    buffer_pages: int,
) -> None:
    """The worker process entry point (top level: spawn-safe).

    ``assignments`` is the worker's ``[(shard, path), ...]`` — with
    fewer workers than shards one process serves several shards, each
    behind its own store handle (own page buffer, own resident index
    set).  Never raises: every per-task failure is encoded onto the
    result queue, and a shard store that failed to open is reported per
    task touching that shard, so the parent sees a typed error rather
    than a dead queue.
    """
    stores: Dict[int, object] = {}
    open_errors: Dict[int, BaseException] = {}
    for shard, shard_path in assignments:
        try:
            stores[shard] = DocumentStore.open(
                shard_path, buffer_pages=buffer_pages
            )
        except BaseException as error:  # noqa: BLE001 - reported per task
            open_errors[shard] = error
    plan_cache: Dict[tuple, object] = {}

    try:
        while True:
            task = task_queue.get()
            kind = task[0]
            if kind == "stop":
                break
            qid, shard = task[1], task[2]
            started = time.monotonic()
            generated = None
            try:
                if shard in open_errors:
                    raise errors_module.CollectionError(
                        f"shard {shard} store failed to open: "
                        f"{open_errors[shard]}"
                    )
                if kind == "sleep":
                    seconds, limits = task[3], task[4]
                    governor = _make_governor(limits, cancel_slots, qid)
                    payload = (
                        "string",
                        _governed_sleep(seconds, governor),
                    )
                elif kind == "query":
                    shipped, variables, namespaces, limits = task[3:7]
                    payload, generated = _run_query(
                        stores[shard], shard, index_mode, plan_cache,
                        shipped, variables, namespaces, limits,
                        cancel_slots, qid,
                    )
                else:
                    raise errors_module.CollectionError(
                        f"unknown collection task kind {kind!r}"
                    )
            except BaseException as error:  # noqa: BLE001 - shipped back
                result_queue.put(
                    ("err", qid, shard, encode_error(error),
                     time.monotonic() - started, None)
                )
            else:
                result_queue.put(
                    ("ok", qid, shard, payload,
                     time.monotonic() - started, generated)
                )
    finally:
        for stored in stores.values():
            stored.close()


def _run_query(
    stored,
    shard: int,
    index_mode: str,
    plan_cache: Dict[tuple, object],
    shipped: ShippedPlan,
    variables,
    namespaces,
    limits,
    cancel_slots,
    qid: int,
) -> Tuple[tuple, Optional[bool]]:
    """Compile (cached) and evaluate one shipped plan on one shard.

    Returns ``(payload, generated)``: the canonical payload and what
    this execution ran (:meth:`CompiledQuery.backend`): ``True``
    generated Python, ``False`` the interpreter because the plan has no
    lowering, ``None`` the interpreter on the plan's first execution.
    The plan cache is keyed per shard: with index routing on, two
    shards of the same worker compile *different* physical plans from
    the same shipped translation (each routed onto its own index set),
    and each cached plan carries its own generated code, emitted on its
    second evaluation.
    """
    key = (
        shard,
        shipped.query,
        shipped.blob,
        shipped.index_mode,
        shipped.optimizer,
    )
    compiled = plan_cache.get(key)
    if compiled is None:
        index_info = (
            stored.indexes if index_mode != "off" else None
        )
        compiled = compile_shipped(shipped, index_info=index_info)
        if len(plan_cache) >= PLAN_CACHE_LIMIT:
            plan_cache.pop(next(iter(plan_cache)))
        plan_cache[key] = compiled
    governor = _make_governor(limits, cancel_slots, qid)
    _, generated = compiled.backend(DEFAULT_CODEGEN)
    result = compiled.evaluate(
        stored.root,
        variables=dict(variables or {}),
        namespaces=dict(namespaces or {}),
        governor=governor,
        codegen="force" if generated else "off",
    )
    return _canonical_payload(result), generated


__all__ = [
    "worker_main",
    "encode_error",
    "decode_error",
    "PLAN_CACHE_LIMIT",
]

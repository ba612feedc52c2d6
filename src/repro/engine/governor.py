"""Per-query resource governance: deadlines, budgets, cancellation.

A demand-driven iterator tree has no natural bound on how long one
``next()`` chain may run — a pathological query (deeply nested
predicates over a large stored document) can spin for hours while the
engine faithfully enumerates an O(n^k) cross product.  Serving such an
engine to real traffic requires the standard guardrails a full DBMS
layers over its runtime: per-query **deadlines**, **consumption
budgets** and **cooperative cancellation**.

:class:`ResourceGovernor` bundles all three for one evaluation.  It is
carried on the :class:`~repro.engine.context.ExecutionContext`, copied
onto the :class:`~repro.engine.iterator.RuntimeState` when a plan is
prepared, and polled from the instrumented ``next()`` of every physical
operator — including the interior ``while True`` loops of the d-join,
unnest-map and materialization operators, which may run many node
visits per emitted tuple.  Checks are amortized: the governor counts
*events* (``next()`` calls, axis nodes visited) and only consults the
clock every :data:`CHECK_INTERVAL` events, so the ungoverned hot path
pays a single predictable branch.

A tripped limit raises one of the typed governance errors
(:class:`~repro.errors.QueryTimeoutError`,
:class:`~repro.errors.QueryBudgetError`,
:class:`~repro.errors.QueryCancelledError`) — never a partial result.

Thread model: one governor guards one evaluation on one thread.  The
:class:`CancelToken` is the only cross-thread piece — any thread may
:meth:`~CancelToken.cancel` it, and every governor holding the token
aborts at its next check.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import (
    QueryBudgetError,
    QueryCancelledError,
    QueryTimeoutError,
)

#: Events (``next()`` calls / axis visits) between two full limit
#: checks.  Small enough that an abort fires within microseconds of the
#: deadline on any realistic plan, large enough that the check is noise.
CHECK_INTERVAL = 256


class CancelToken:
    """External cancellation signal shared between threads.

    A thin wrapper over :class:`threading.Event` with an optional
    human-readable reason.  Tokens are reusable across queries: every
    governor constructed with the token observes the same flag.
    """

    __slots__ = ("_event", "reason")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason = ""

    def cancel(self, reason: str = "") -> None:
        """Trip the token; every governed query holding it aborts."""
        if reason:
            self.reason = reason
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()


class ResourceGovernor:
    """Deadline, budgets and cancel token for one query evaluation.

    ``timeout``
        seconds of wall time (``time.monotonic``) the evaluation may
        run.  The deadline is anchored at construction, so a governor
        created at *submission* also bounds queue wait (a collection
        scatter's shard tasks inherit such a deadline), while
        ``evaluate_concurrent`` builds one as each of its queries
        starts.
    ``max_tuples``
        total tuples produced across **all** operators of the plan (the
        engine's unit of work), not just result tuples.
    ``max_bytes``
        bytes buffered by materializing operators (sort, Tmp^cs, cross
        product, MemoX), estimated per snapshot.
    ``cancel``
        a shared :class:`CancelToken`.

    Any subset may be ``None`` (unlimited).  A governor with every
    limit ``None`` is valid but pointless; callers should pass
    ``governor=None`` instead.
    """

    __slots__ = (
        "timeout", "deadline", "started", "max_tuples", "max_bytes",
        "cancel", "tuples", "bytes", "_events", "check_interval",
    )

    def __init__(
        self,
        *,
        timeout: Optional[float] = None,
        max_tuples: Optional[int] = None,
        max_bytes: Optional[int] = None,
        cancel: Optional[CancelToken] = None,
        check_interval: int = CHECK_INTERVAL,
    ):
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if max_tuples is not None and max_tuples <= 0:
            raise ValueError("max_tuples must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if check_interval < 1:
            raise ValueError("check_interval must be at least 1")
        self.timeout = timeout
        self.started = time.monotonic()
        self.deadline = (
            self.started + timeout if timeout is not None else None
        )
        self.max_tuples = max_tuples
        self.max_bytes = max_bytes
        self.cancel = cancel
        #: Consumption so far (exposed for stats and tests).
        self.tuples = 0
        self.bytes = 0
        self._events = 0
        self.check_interval = check_interval

    # ------------------------------------------------------------------

    def check(self) -> None:
        """Raise the matching governance error if any limit is exceeded.

        Budgets are checked where they are charged (:meth:`add_tuples`,
        :meth:`add_bytes`); this method enforces the deadline and the
        cancel token, and is what the amortized :meth:`tick` calls.
        """
        if self.cancel is not None and self.cancel.cancelled:
            raise QueryCancelledError(self.cancel.reason)
        if self.deadline is not None:
            now = time.monotonic()
            if now >= self.deadline:
                raise QueryTimeoutError(self.timeout, now - self.started)

    def tick(self, events: int = 1) -> None:
        """Count ``events`` and run :meth:`check` every Nth event.

        This is the engine's hot-path entry point: every instrumented
        ``next()`` call and every axis node visited inside an
        unnest-map loop ticks once.
        """
        self._events += events
        if self._events >= self.check_interval:
            self._events = 0
            self.check()

    def add_tuples(self, count: int = 1) -> None:
        """Charge produced tuples against the tuple budget."""
        self.tuples += count
        if self.max_tuples is not None and self.tuples > self.max_tuples:
            raise QueryBudgetError("tuples", self.max_tuples, self.tuples)

    def add_bytes(self, count: int) -> None:
        """Charge materialized bytes against the byte budget."""
        self.bytes += count
        if self.max_bytes is not None and self.bytes > self.max_bytes:
            raise QueryBudgetError("bytes", self.max_bytes, self.bytes)

    # ------------------------------------------------------------------

    @property
    def remaining(self) -> Optional[float]:
        """Seconds until the deadline (``None`` when unbounded)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()


def snapshot_cost(snapshot: tuple) -> int:
    """Estimated bytes one materialized register snapshot occupies.

    A deliberately cheap estimate (tuple header + one machine word per
    slot, plus a flat allowance per slot for the referenced value) —
    the byte budget bounds runaway materialization, it is not an
    accounting ledger.
    """
    return 56 + 16 * len(snapshot)

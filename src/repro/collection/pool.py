"""The persistent shard-worker process pool.

One pool serves one collection: ``workers`` long-lived daemon
processes, shards assigned round-robin (``shard % workers``), one task
queue per worker plus one shared result queue.  The pool provides the
*mechanics* of scatter-gather — dispatch, collection, cross-process
cancellation, crash detection, recycling — while
:class:`~repro.collection.collection.Collection` owns the policy
(plan shipping, governance derivation, pruning, ordering, statistics).

**Multiplexing.** Several queries may be in flight at once.  Every
task, result and cancel is tagged with its query id; a single parent
*demux thread* drains the shared result queue and routes each message
into its query's :class:`_Flight` (the per-query gather state), so
worker task queues interleave tasks of different queries freely and
:meth:`WorkerPool.gather` just waits on its flight's completion event.
Cross-process cancellation rides one shared qid-slot array
(:data:`CANCEL_SLOTS` signed 64-bit slots): the parent parks a qid in
a free slot, every worker's cancel token scans the array for its own
task's qid on each amortized governor check, and the slot is cleared
when the flight resolves — a cancel aimed at one query can never leak
into another.

Crash handling is deliberately blunt: when any worker is found dead
mid-query (e.g. SIGKILLed), the **whole pool** is recycled — every
worker terminated and respawned with fresh queues.  A process killed
while holding a ``multiprocessing.Queue`` feeder lock can poison that
queue for every sibling, so selectively restarting one worker risks
trading a visible crash for an invisible hang; full recycling costs a
few tens of milliseconds and restores a provably clean state.  With
multiple queries in flight, a recycle fails **every** in-flight flight
exactly once: shards on the dead worker as ``worker-died``, the shards
of a deadline-overrunning flight as ``unresponsive``, and everything
else in flight as ``pool-recycled`` collateral.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.collection.catalog import CollectionCatalog
from repro.collection.worker import decode_error, worker_main
from repro.errors import ShardFailedError

#: Seconds between liveness/deadline sweeps while blocked on the
#: result queue (demux thread) or a flight event (gather).
POLL_INTERVAL = 0.05

#: Grace beyond the query deadline before the parent declares a worker
#: unresponsive (covers the governor's amortized check latency).
DEADLINE_GRACE = 5.0

#: Page-buffer frames each worker grants each of its shard stores.
DEFAULT_WORKER_BUFFER_PAGES = 64

#: Width of the shared cancel array: the number of *distinct* queries
#: that can be under cross-process cancellation at the same instant.
#: Slots are reclaimed as soon as a flight resolves, so this bounds
#: simultaneously-cancelling queries, not total queries.
CANCEL_SLOTS = 128


class ShardOutcome:
    """How one shard's task resolved: exactly one of ok/error/pruned."""

    __slots__ = ("shard", "payload", "error", "elapsed", "pruned",
                 "generated")

    def __init__(self, shard: int, payload=None,
                 error: Optional[Exception] = None,
                 elapsed: float = 0.0,
                 pruned: bool = False,
                 generated: Optional[bool] = None):
        self.shard = shard
        self.payload = payload
        self.error = error
        self.elapsed = elapsed
        #: True when the parent skipped the shard on synopsis evidence
        #: and synthesized its (empty) payload without scattering.
        self.pruned = pruned
        #: The worker's backend for an ok query task: True = generated
        #: Python, False = interpreted; None when no plan ran.
        self.generated = generated

    @property
    def ok(self) -> bool:
        return self.error is None


class _Flight:
    """One in-flight query's gather state (parent side).

    Created at scatter, mutated only by the demux thread (and by the
    recycle path) under the pool's state lock, consumed by the gather
    caller once ``done`` is set.  ``outcomes`` holds exactly one
    :class:`ShardOutcome` per scattered shard when ``done`` fires.
    """

    __slots__ = (
        "qid", "pending", "outcomes", "deadline", "done", "cancel_sent",
    )

    def __init__(self, qid: int, shards, deadline: Optional[float]):
        self.qid = qid
        self.pending = set(shards)
        self.outcomes: Dict[int, ShardOutcome] = {}
        self.deadline = deadline
        self.done = threading.Event()
        self.cancel_sent = False


class WorkerPool:
    """Persistent process pool bound to one collection catalog."""

    def __init__(
        self,
        catalog: CollectionCatalog,
        workers: Optional[int] = None,
        *,
        index_mode: str = "auto",
        buffer_pages: int = DEFAULT_WORKER_BUFFER_PAGES,
    ):
        shard_count = catalog.shard_count
        if workers is None:
            workers = shard_count
        self.workers = max(1, min(int(workers), shard_count))
        self.catalog = catalog
        self.index_mode = index_mode
        self.buffer_pages = buffer_pages
        #: shard id -> worker index (round-robin, fixed for the pool).
        self.shard_worker: Dict[int, int] = {
            info.shard: info.shard % self.workers
            for info in catalog.shards
        }
        self.recycles = 0
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        )
        self._processes: List = []
        self._task_queues: List = []
        self._cancel_slots = None
        self._result_queue = None
        self._closed = False
        #: Guards flights, queues and processes across scatter/recycle.
        self._state_lock = threading.Lock()
        self._cancel_lock = threading.Lock()
        self._flights: Dict[int, _Flight] = {}
        self._spawn()
        self._demux = threading.Thread(
            target=self._demux_loop,
            name="repro-collection-demux",
            daemon=True,
        )
        self._demux.start()

    # -- lifecycle -----------------------------------------------------

    def _assignments(self, worker: int) -> List[Tuple[int, str]]:
        return [
            (info.shard, str(self.catalog.shard_path(info.shard)))
            for info in self.catalog.shards
            if self.shard_worker[info.shard] == worker
        ]

    def _spawn(self) -> None:
        self._result_queue = self._ctx.Queue()
        self._task_queues = [self._ctx.Queue() for _ in range(self.workers)]
        self._cancel_slots = self._ctx.Array(
            "q", [-1] * CANCEL_SLOTS, lock=False
        )
        self._processes = []
        for worker in range(self.workers):
            process = self._ctx.Process(
                target=worker_main,
                args=(
                    self._assignments(worker),
                    self._task_queues[worker],
                    self._result_queue,
                    self._cancel_slots,
                    self.index_mode,
                    self.buffer_pages,
                ),
                daemon=True,
                name=f"repro-shard-worker-{worker}",
            )
            process.start()
            self._processes.append(process)

    def _respawn_locked(self) -> None:
        """Terminate every worker and respawn with fresh queues.

        Caller holds ``_state_lock``; anything already registered in
        ``self._flights`` must have been failed by the caller first —
        tasks and results in the old queues are dropped with them.
        """
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        for queue in [self._result_queue, *self._task_queues]:
            if queue is not None:
                queue.close()
                queue.cancel_join_thread()
        self.recycles += 1
        self._spawn()

    def recycle(self) -> None:
        """Recycle the pool, failing every in-flight query (public)."""
        self._fail_all_flights((), ())

    def close(self) -> None:
        """Stop the workers and release every queue (idempotent).

        Any flight still in the air resolves with per-shard
        ``pool-closed`` failures rather than hanging its gather.
        """
        if self._closed:
            return
        self._closed = True
        if self._demux is not None and self._demux.is_alive():
            self._demux.join(timeout=2.0)
        with self._state_lock:
            flights = list(self._flights.values())
            self._flights.clear()
            for flight in flights:
                for shard in sorted(flight.pending):
                    flight.outcomes[shard] = ShardOutcome(
                        shard, error=ShardFailedError(shard, "pool-closed")
                    )
                flight.pending.clear()
        for flight in flights:
            flight.done.set()
        for queue in self._task_queues:
            try:
                queue.put(("stop",))
            except (OSError, ValueError):
                pass
        for process in self._processes:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        for queue in [self._result_queue, *self._task_queues]:
            if queue is not None:
                queue.close()
                queue.cancel_join_thread()

    def worker_pids(self) -> List[int]:
        """The live worker pids (test hook for crash injection)."""
        return [process.pid for process in self._processes]

    # -- cancellation --------------------------------------------------

    def cancel(self, qid: int) -> None:
        """Aim a cross-process cancel at ``qid`` on every worker.

        Parks the qid in a free slot of the shared cancel array;
        workers observe it at their next governor check.  Tasks of any
        other qid are unaffected (tokens match on qid, not a flag).
        """
        slots = self._cancel_slots
        with self._cancel_lock:
            for index in range(CANCEL_SLOTS):
                if slots[index] == qid:
                    return
            for index in range(CANCEL_SLOTS):
                if slots[index] == -1:
                    slots[index] = qid
                    return
            # Every slot is taken: reclaim one whose flight has already
            # resolved (its cancel can no longer match anything).
            with self._state_lock:
                active = set(self._flights)
            for index in range(CANCEL_SLOTS):
                if slots[index] not in active:
                    slots[index] = qid
                    return
            slots[0] = qid  # > CANCEL_SLOTS cancelling flights at once

    def _clear_cancel(self, qid: int) -> None:
        slots = self._cancel_slots
        with self._cancel_lock:
            for index in range(CANCEL_SLOTS):
                if slots[index] == qid:
                    slots[index] = -1

    # -- scatter-gather ------------------------------------------------

    def scatter(
        self,
        qid: int,
        tasks: Dict[int, tuple],
        deadline: Optional[float] = None,
    ) -> _Flight:
        """Dispatch one query's per-shard tasks onto the worker queues.

        Registers the query's :class:`_Flight` and enqueues its tasks
        atomically with respect to recycling: a flight registered
        before a recycle snapshot is failed by it, one registered after
        lands on the fresh pool.  Returns the flight to pass to
        :meth:`gather`.  ``deadline`` (monotonic, or ``None`` when
        ungoverned) arms the parent-side unresponsiveness failsafe.
        """
        with self._state_lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            flight = _Flight(qid, tasks, deadline)
            self._flights[qid] = flight
            for shard, task in tasks.items():
                self._task_queues[self.shard_worker[shard]].put(task)
        return flight

    def gather(self, flight: _Flight, cancel_check=None) -> Dict[int, ShardOutcome]:
        """Wait for one flight to resolve every scattered shard.

        A crashed or unresponsive worker yields outcomes carrying
        :class:`~repro.errors.ShardFailedError`, never a hang: the
        demux thread enforces ``deadline + DEADLINE_GRACE`` as a hard
        failsafe above the workers' cooperative governors and recycles
        the pool whenever a worker died or overran it.  ``cancel_check``
        (a nullary callable) is polled between waits; when it turns
        true the in-flight shards are cancelled cross-process and their
        governors raise, so the gather still resolves every shard.
        """
        cancelled = False
        while not flight.done.wait(timeout=POLL_INTERVAL):
            if (cancel_check is not None and not cancelled
                    and cancel_check()):
                cancelled = True
                self.cancel(flight.qid)
        return flight.outcomes

    # -- demultiplexing (parent-side result routing) -------------------

    def _demux_loop(self) -> None:
        """Drain the shared result queue, route messages, sweep hazards.

        The single thread that mutates flight state on the happy path:
        it routes each ``(kind, qid, shard, body, elapsed, generated)``
        message into its flight, fires sibling cancellation on a
        flight's first error, and — between messages — sweeps for dead
        workers and deadline-overrunning flights, recycling the pool
        when either appears.  Messages for unknown qids or already-resolved shards
        are stale leftovers of failed flights and are dropped.
        """
        while not self._closed:
            result_queue = self._result_queue
            try:
                message = result_queue.get(timeout=POLL_INTERVAL)
            except queue_module.Empty:
                message = None
            except (OSError, ValueError, EOFError):
                # The queue was swapped out underneath us mid-recycle.
                time.sleep(0.005)
                continue
            try:
                if message is not None:
                    self._route(message)
                self._sweep()
            except Exception:  # pragma: no cover - demux must survive
                continue

    def _route(self, message) -> None:
        kind, qid, shard, body, elapsed, generated = message
        finished = None
        fail_siblings = False
        with self._state_lock:
            flight = self._flights.get(qid)
            if flight is None or shard not in flight.pending:
                return  # stale leftover from an abandoned query
            flight.pending.discard(shard)
            if kind == "ok":
                flight.outcomes[shard] = ShardOutcome(
                    shard, payload=body, elapsed=elapsed,
                    generated=generated,
                )
            else:
                flight.outcomes[shard] = ShardOutcome(
                    shard, error=decode_error(body), elapsed=elapsed
                )
                if flight.pending and not flight.cancel_sent:
                    # First failing shard: abort the siblings' work.
                    flight.cancel_sent = True
                    fail_siblings = True
            if not flight.pending:
                del self._flights[qid]
                finished = flight
        if fail_siblings:
            self.cancel(qid)
        if finished is not None:
            self._clear_cancel(qid)
            finished.done.set()

    def _sweep(self) -> None:
        """Fail flights held up by dead or unresponsive workers."""
        with self._state_lock:
            if not self._flights:
                return
            now = time.monotonic()
            expired = tuple(
                flight.qid
                for flight in self._flights.values()
                if flight.deadline is not None
                and now > flight.deadline + DEADLINE_GRACE
            )
        dead = tuple(
            worker for worker, process in enumerate(self._processes)
            if not process.is_alive()
        )
        if dead or expired:
            self._fail_all_flights(dead, expired)

    def _fail_all_flights(
        self, dead: Sequence[int], expired: Sequence[int]
    ) -> None:
        """Fail every in-flight query exactly once and recycle the pool.

        Per-shard error triage: a shard assigned to a dead worker is
        the root cause (``worker-died``); a pending shard of a flight
        that overran its deadline failsafe is ``unresponsive``; every
        other in-flight shard is ``pool-recycled`` collateral.  Done
        events are set only after the fresh pool is up, so a gather
        returns to a caller who can immediately scatter again.
        """
        dead_set = set(dead)
        expired_set = set(expired)
        with self._state_lock:
            flights = list(self._flights.values())
            self._flights.clear()
            for flight in flights:
                for shard in sorted(flight.pending):
                    if self.shard_worker[shard] in dead_set:
                        error = ShardFailedError(shard, "worker-died")
                    elif flight.qid in expired_set:
                        error = ShardFailedError(shard, "unresponsive")
                    else:
                        error = ShardFailedError(shard, "pool-recycled")
                    flight.outcomes[shard] = ShardOutcome(
                        shard, error=error
                    )
                flight.pending.clear()
            self._respawn_locked()
        for flight in flights:
            flight.done.set()

    # ------------------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

"""One measured run of one workload: set up, check, time, report.

The runner is a closed loop: every client thread sends its next
operation only after the previous answer is complete (callers of an
XPath engine are applications that wait for the reply).  A run

1. sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is the
   median) and keeps the last instance,
2. gets the expected answers — committed digests when the seed has
   them, otherwise the ``memo`` baseline interpreter, never ``natix``,
3. runs every distinct operation once, untimed, comparing the full
   canonical answer with the expected digest (this is also the warm-up),
4. ``gc.collect()``, then cycles the seeded schedule for ``--seconds``
   (and until ``spec.MIN_OPS`` operations are in), whole passes only so
   every run times the same mix; each timed op is checked by its
   result-item count,
5. tears everything down — server, workers, scratch directory — also
   when an operation raises.

With ``trace=True`` the public calls of every layer are wrapped first
(:mod:`benchmarks.ledger.layers`), a short untraced window gives the
reference p50, and the traced window gives spans and counters.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import itertools
import math
import os
import platform
import random
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence

from benchmarks.ledger import expected as expected_store
from benchmarks.ledger import layers, spec
from benchmarks.ledger.trace import Tracer

LEDGER_DIR = Path(__file__).resolve().parent

#: Scratch root, inside the checkout and ignored by git.
WORK_ROOT = LEDGER_DIR / ".work"

_perf = time.perf_counter
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class InjectedFailure(RuntimeError):
    """Raised by ``--fail-op``: an operation that aborts the run."""


class Op(NamedTuple):
    """One distinct operation of a workload."""

    key: str  #: stable id within the workload ("q03")
    query: str
    weight: int = 1  #: occurrences per pass of the schedule
    target: str = ""  #: which of the workload's targets it runs on


class Answer(NamedTuple):
    value: object  #: what the program returned (canonicalized lazily)
    items: int  #: result items delivered to the caller
    ttfp: Optional[float] = None  #: seconds to the first page, if paged
    wire_bytes: int = 0  #: item payload bytes (serving workloads)
    pages: int = 0  #: page frames received (serving workloads)


class Context:
    """What a workload instance gets from the runner."""

    def __init__(self, seed: int, quick: bool, workdir: Path,
                 tracer: Optional[Tracer]):
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.tracer = tracer

    def span(self, name: str, layer: Optional[str] = None):
        """A recorded span in a traced run, a no-op otherwise."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, layer)


class Workload:
    """Base class; see :mod:`benchmarks.ledger.workloads`."""

    name = ""
    #: Closed-loop client threads (at most ``nproc``).
    clients = 1

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.ops: List[Op] = []

    # -- lifecycle -----------------------------------------------------

    def sizes(self) -> dict:
        """Input sizes; part of the identity of an expected-answer file."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Stop everything :meth:`setup` started (idempotent)."""

    # -- operations ----------------------------------------------------

    def open_client(self, slot: int):
        """Per-thread client state (a connection); default none."""
        return None

    def close_client(self, client) -> None:
        pass

    def before_op(self, op: Op) -> None:
        """Untimed preparation before each operation."""

    def run(self, op: Op, client, check: bool = False) -> Answer:
        """One operation; ``check`` asks for whatever the full answer
        comparison needs (the serving clients decode every item)."""
        raise NotImplementedError

    def canonical(self, op: Op, answer: Answer) -> object:
        """The oracle's comparison form of an answer."""
        raise NotImplementedError

    def baseline(self, op: Op) -> object:
        """The canonical answer from the baseline interpreter."""
        raise NotImplementedError

    # -- measurement surfaces ------------------------------------------

    def child_pids(self) -> List[int]:
        """Live child processes doing this workload's work."""
        return []

    def stored_bytes(self) -> Optional[tuple]:
        """``(store + index bytes, serialized XML bytes)`` or ``None``."""
        return None

    def set_traced(self, on: bool) -> None:
        """Switch between the traced and the unwrapped system for the
        reference window of a traced run (only the serving workloads,
        whose system under test is another process, need to act)."""

    def knodes(self) -> float:
        """Document size in thousands of nodes (per-knode metrics)."""
        return 0.0

    def counters(self) -> dict:
        """A snapshot of the published counters (traced runs)."""
        return {}

    def layer_metrics(self, before: dict, after: dict, window: "Window",
                      reference: "Window",
                      tracer: Tracer) -> Dict[str, float]:
        """Counter-based per-layer metrics of the traced window
        (``reference``: the unwrapped window that ran before it)."""
        return {}


# ----------------------------------------------------------------------
# Host and process facts
# ----------------------------------------------------------------------


def host_facts() -> dict:
    from repro.storage.pages import DEFAULT_BUFFER_PAGES, PAGE_SIZE

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "page_size": PAGE_SIZE,
        "default_buffer_pages": DEFAULT_BUFFER_PAGES,
    }


def _proc_cpu_seconds(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b") ", 1)[1].split()
    except (OSError, IndexError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def _proc_peak_rss_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_seconds(pids: Sequence[int]) -> float:
    """User+system CPU of this process and the given live children."""
    return time.process_time() + sum(_proc_cpu_seconds(p) for p in pids)


def peak_rss_mb(pids: Sequence[int]) -> float:
    return _proc_peak_rss_mb("self") + sum(
        _proc_peak_rss_mb(p) for p in pids
    )


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------


def digest(canonical: object) -> str:
    return hashlib.sha1(repr(canonical).encode("utf-8")).hexdigest()[:16]


def item_count(canonical: object) -> int:
    """Result items in a canonical answer (the per-op timed check)."""
    if (isinstance(canonical, tuple) and canonical
            and isinstance(canonical[0], tuple)):
        # A collection answer: ((shard, payload), ...).
        return sum(item_count(payload) for _shard, payload in canonical)
    kind, value = canonical
    return len(value) if kind == "node-set" else 1


def expected_answers(workload: Workload, regen: bool = False) -> dict:
    """``{op key: (digest, items)}`` for this workload instance.

    Committed digests are used when the seed and sizes match a file
    under ``expected/``; any other seed is answered by the baseline
    interpreter at run time.  Either way the ``natix`` engine under
    test never produces its own expectation.
    """
    ctx = workload.ctx
    if not regen:
        committed = expected_store.load(
            workload.name, ctx.seed, workload.sizes(), workload.ops
        )
        if committed is not None:
            return committed
    answers = {}
    for op in workload.ops:
        canonical = workload.baseline(op)
        answers[op.key] = (digest(canonical), item_count(canonical))
    return answers


# ----------------------------------------------------------------------
# The timed window
# ----------------------------------------------------------------------


class Sample(NamedTuple):
    key: str
    seconds: float
    ttfp: float
    items: int
    ok: bool
    wire_bytes: int
    pages: int
    #: Where in its client's window the op ran, in [0, 1) by pass.
    position: float = 0.0


class Window:
    """Everything one timed window measured."""

    def __init__(self) -> None:
        self.samples: List[Sample] = []
        #: per client: ops per pass, items per pass, pass wall seconds
        self.passes: List[tuple] = []
        self.wall = 0.0
        self.cpu = 0.0

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)

    def quantile_ms(self, q: float, field: str = "seconds") -> float:
        """A latency percentile that shrugs off a disturbed stretch.

        The window is cut into an odd number of blocks of whole passes
        (same op mix each), at least 200 ops apiece so the 95th
        percentile of a block has ten samples beyond it; the result is
        the median of the per-block percentiles.  A short window is one
        block, i.e. the plain pooled percentile.
        """
        blocks = max(1, min(9, self.ops // 200))
        if blocks % 2 == 0:
            blocks -= 1
        groups: List[List[float]] = [[] for _ in range(blocks)]
        for sample in self.samples:
            groups[int(sample.position * blocks)].append(
                getattr(sample, field) * 1e3
            )
        return statistics.median(
            percentile(group, q) for group in groups if group
        )

    def p50_ms(self) -> float:
        return self.quantile_ms(0.5)

    def rate(self, what: int) -> float:
        """Ops (0) or items (1) per second: per client, the per-pass
        amount over the median pass time; summed over clients."""
        return sum(
            amounts[what] / statistics.median(walls)
            for *amounts, walls in self.passes
        )


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the median proper for ``q == 0.5``)."""
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def schedule_for(workload: Workload, slot: int) -> List[Op]:
    """The seeded pass of one client: every op ``weight`` times,
    shuffled by the seed; each client starts at another point of it."""
    ops = [op for op in workload.ops for _ in range(op.weight)]
    random.Random(f"{workload.ctx.seed}:schedule").shuffle(ops)
    start = slot * len(ops) // workload.clients
    return ops[start:] + ops[:start]


def run_window(workload: Workload, expected: dict, seconds: float,
               *, min_ops: int = 0, tracer: Optional[Tracer] = None,
               fail_op: Optional[int] = None) -> Window:
    """Cycle the schedule for ``seconds`` (whole passes), closed loop.

    The window goes on past ``seconds`` until it holds ``min_ops``
    operations: the workloads are sized to get there in time, a slow
    host stretches the window instead of thinning the tail samples.
    """
    window = Window()
    client_floor = -(-min_ops // workload.clients)
    lock = threading.Lock()
    crashes: List[BaseException] = []
    started = threading.Barrier(workload.clients + 1)
    op_ids = itertools.count()

    def client_loop(slot: int) -> None:
        schedule = schedule_for(workload, slot)
        samples: List[Sample] = []
        walls: List[float] = []
        client = None
        try:
            client = workload.open_client(slot)
            started.wait()
            deadline = _perf() + seconds
            while True:
                pass_start = _perf()
                for op in schedule:
                    samples.append(
                        timed_op(workload, op, client, expected, tracer,
                                 next(op_ids), fail_op)
                    )
                now = _perf()
                walls.append(now - pass_start)
                if now >= deadline and len(samples) >= client_floor:
                    break
        except BaseException as error:  # noqa: BLE001 - re-raised below
            crashes.append(error)
            started.abort()
        finally:
            if client is not None:
                workload.close_client(client)
            per_pass = len(schedule)
            with lock:
                window.samples.extend(
                    sample._replace(
                        position=(index // per_pass) / max(1, len(walls))
                    )
                    for index, sample in enumerate(
                        samples[:len(walls) * per_pass]
                    )
                )
                if walls:
                    done = samples[:len(walls) * per_pass]
                    window.passes.append((
                        len(schedule),
                        sum(s.items for s in done) / len(walls),
                        walls,
                    ))

    threads = [
        threading.Thread(target=client_loop, args=(slot,),
                         name=f"ledger-client-{slot}")
        for slot in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    pids = workload.child_pids()
    try:
        started.wait()
    except threading.BrokenBarrierError:
        pass
    cpu_before = cpu_seconds(pids)
    wall_before = _perf()
    for thread in threads:
        thread.join()
    window.wall = _perf() - wall_before
    window.cpu = cpu_seconds(pids) - cpu_before
    if crashes:
        raise crashes[0]
    return window


def timed_op(workload: Workload, op: Op, client, expected: dict,
             tracer: Optional[Tracer], op_id: int,
             fail_op: Optional[int]) -> Sample:
    """One timed operation; a typed error or a wrong item count is a
    failed op, not a crash."""
    workload.before_op(op)
    span = (
        tracer.span("op", op_id=op_id) if tracer is not None
        else contextlib.nullcontext()
    )
    ok, answer = True, None
    start = _perf()
    try:
        with span:
            if op_id == fail_op:
                raise InjectedFailure(f"injected failure at op {op_id}")
            answer = workload.run(op, client)
    except InjectedFailure:
        raise
    except Exception as error:  # noqa: BLE001 - counted, reported
        ok = False
        print(f"[ledger] {workload.name} {op.key} failed: "
              f"{type(error).__name__}: {error}", file=sys.stderr)
    seconds = _perf() - start
    if answer is None:
        return Sample(op.key, seconds, seconds, 0, False, 0, 0)
    ok = ok and answer.items == expected[op.key][1]
    ttfp = answer.ttfp if answer.ttfp is not None else seconds
    return Sample(op.key, seconds, ttfp, answer.items, ok,
                  answer.wire_bytes, answer.pages)


def verify(workload: Workload, expected: dict) -> List[str]:
    """Run every distinct op once, untimed, and compare full answers.

    Doubles as the warm-up: plans compile, caches and buffers fill.
    Returns the keys whose canonical answer does not match.
    """
    wrong = []
    client = workload.open_client(0)
    try:
        for op in workload.ops:
            workload.before_op(op)
            try:
                answer = workload.run(op, client, check=True)
                got = digest(workload.canonical(op, answer))
            except Exception as error:  # noqa: BLE001 - counted
                got = f"{type(error).__name__}: {error}"
            if got != expected[op.key][0]:
                wrong.append(op.key)
                print(f"[ledger] {workload.name} {op.key} "
                      f"({op.query!r}): expected {expected[op.key][0]}, "
                      f"got {got}", file=sys.stderr)
    finally:
        if client is not None:
            workload.close_client(client)
    return wrong


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def end_to_end(workload: Workload, window: Window,
               setup_times: Sequence[float], wrong: int) -> Dict[str, dict]:
    """The eleven end-to-end metrics of one untraced window."""
    n = window.ops
    slo = spec.SLO_MS[workload.name]
    attempted = n + len(workload.ops)
    failed = window.failed + wrong
    stored = workload.stored_bytes()
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "latency_p50_ms": (window.quantile_ms(0.5), n),
        "latency_p95_ms": (window.quantile_ms(0.95), n),
        "throughput_qps": (window.rate(0), n),
        "items_per_s": (window.rate(1), n),
        "ttfp_p50_ms": (window.quantile_ms(0.5, "ttfp"), n),
        "cpu_ms_per_op": (window.cpu * 1e3 / n, n),
        "peak_rss_mb": (peak_rss_mb(workload.child_pids()), 1),
        "slo_miss_ratio": (
            sum(1 for s in window.samples
                if not s.ok or s.seconds * 1e3 > slo) / n, n),
        "failed_ratio": (failed / attempted, attempted),
        "stored_bytes_ratio": (
            (stored[0] / stored[1], 1) if stored else (None, 0)),
    }
    return {
        metric.name: {
            "value": values[metric.name][0], "unit": metric.unit,
            "samples": values[metric.name][1],
        }
        for metric in spec.END_TO_END
    }


def run_workload(name: str, *, seed: int, seconds: float,
                 trace: bool = False, quick: bool = False,
                 fail_op: Optional[int] = None,
                 regen_expected: bool = False,
                 trace_out: Optional[Path] = None) -> dict:
    """One complete run; returns the ledger's report for it."""
    from benchmarks.ledger.workloads import WORKLOADS

    workload_class = WORKLOADS[name]
    workdir = WORK_ROOT / f"{name}-{os.getpid()}"
    tracer = Tracer() if trace else None
    workload: Optional[Workload] = None
    repeats = 1 if (trace or quick) else spec.SETUP_REPEATS
    setup_times: List[float] = []
    try:
        if tracer is not None:
            layers.install(tracer)
        for attempt in range(repeats):
            if workload is not None:
                workload.teardown()
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            workload = workload_class(Context(seed, quick, workdir, tracer))
            start = _perf()
            workload.setup()
            setup_times.append(_perf() - start)

        expected = expected_answers(workload, regen=regen_expected)
        if regen_expected:
            expected_store.save(
                workload.name, seed, workload.sizes(), workload.ops,
                expected,
            )
        wrong = verify(workload, expected)

        report = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "quick": quick,
            "sizes": workload.sizes(),
            "clients": workload.clients,
            "distinct_ops": len(workload.ops),
            # Identity of the generated inputs: the queries and what the
            # baseline says they return on the generated documents.
            "inputs_sha1": hashlib.sha1(repr([
                (op.key, op.query, expected[op.key]) for op in workload.ops
            ]).encode("utf-8")).hexdigest(),
            "host": host_facts(),
        }
        if tracer is None:
            gc.collect()
            window = run_window(
                workload, expected, seconds, fail_op=fail_op,
                min_ops=0 if quick else spec.MIN_OPS[name],
            )
            report["window_s"] = window.wall
            report["end_to_end"] = end_to_end(
                workload, window, setup_times, len(wrong)
            )
        else:
            window = traced_window(workload, expected, seconds, tracer,
                                   report, fail_op)
            if trace_out is not None:
                tracer.dump(trace_out)
        report["attempted"] = window.ops + len(workload.ops)
        report["failed"] = window.failed + len(wrong)
        report["correct"] = report["failed"] == 0
        report["wrong_answers"] = wrong
        return report
    finally:
        if workload is not None:
            workload.teardown()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def dom_parse_probe(ctx: Context) -> float:
    """Milliseconds ``parse_document`` takes per thousand nodes.

    No workload parses XML inside its timed window (targets are built
    or stored during set-up), so ``dom/`` gets a fixed probe: a
    500-publication DBLP document, serialized once and parsed three
    times; the median counts.
    """
    from repro import parse_document
    from repro.dom.serializer import serialize
    from repro.workloads.dblp import generate_dblp

    document = generate_dblp(100 if ctx.quick else 500, seed=ctx.seed)
    text = serialize(document)
    seconds = []
    for _ in range(3):
        with ctx.span("dom.parse_probe", "dom"):
            start = _perf()
            parse_document(text)
            seconds.append(_perf() - start)
    return statistics.median(seconds) * 1e3 / (document.node_count / 1e3)


def traced_window(workload: Workload, expected: dict, seconds: float,
                  tracer: Tracer, report: dict,
                  fail_op: Optional[int]) -> Window:
    """A short unwrapped reference window, then the traced window.

    ``trace_overhead_ratio`` is the traced p50 over the p50 of the same
    schedule with every wrapper taken off again.
    """
    tracer.uninstall()
    workload.set_traced(False)
    gc.collect()
    reference = run_window(workload, expected, max(1.0, seconds / 4))
    workload.set_traced(True)
    layers.install(tracer)
    gc.collect()
    before = workload.counters()
    window = run_window(workload, expected, seconds, tracer=tracer,
                        fail_op=fail_op)
    after = workload.counters()
    tracer.uninstall()

    metrics = workload.layer_metrics(before, after, window, reference,
                                     tracer)
    metrics["dom.parse_ms_per_knode"] = dom_parse_probe(workload.ctx)
    metrics["trace_overhead_ratio"] = window.p50_ms() / reference.p50_ms()
    report["layers"] = layers.complete(metrics)
    report["traced"] = {
        "ops": window.ops,
        "reference_ops": reference.ops,
        "latency_p50_ms": window.p50_ms(),
        "reference_p50_ms": reference.p50_ms(),
        "spans": len(tracer.spans),
        "leaf_rows": len(tracer.leaves),
        # Wrap targets src/repro no longer has; their metrics are null.
        "missing": sorted(tracer.missing),
    }
    if tracer.missing:
        print(f"[ledger] {workload.name}: not traced, target gone: "
              + ", ".join(sorted(tracer.missing)), file=sys.stderr)
    return window

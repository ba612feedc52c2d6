"""The asyncio serving front end over the XPath engine.

One :class:`XPathServer` owns one :class:`~repro.engine.session.XPathEngine`
(shared plan cache, singleflight, governance counters) and a registry of
named evaluation *targets* — parsed documents, page-backed stores, or
sharded :class:`~repro.collection.Collection`\\ s.  Clients speak the
NDJSON frame protocol of :mod:`repro.server.protocol` over plain
HTTP/1.1 (stdlib only, no framework):

* ``POST /xpath`` — evaluate a query; the response streams back as
  chunked ``header`` / ``page`` / ``footer`` frames,
* ``GET /stats`` — the full engine + server counter snapshot,
* ``GET /healthz`` — liveness (503 while draining),
* ``GET /version`` — package and protocol versions.

Concurrency model
-----------------

Connection handling and HTTP parsing live on the event loop; every
admitted query is dispatched to a dedicated thread-pool task.  For
streaming responses that *one* executor task owns the whole evaluation:
it pulls pages lazily from :meth:`XPathEngine.evaluate_stream` and
pushes them into a small bounded buffer that the event loop drains into
chunks.  The bound is the backpressure: when the client reads slowly
the buffer fills, the producer blocks on the semaphore, and the
iterator tree underneath stops advancing — a huge ``//item`` answer
never exists in memory beyond ``buffer_pages × page_size`` items.
Because the task runs start-to-finish on one executor thread, the
engine's thread-confined plan instances are never interleaved between
queries.

``mode: "full"`` requests go through :meth:`XPathEngine.evaluate`
instead — materialized, but coalesced by the engine's singleflight, so
a thundering herd of identical requests executes once.  Streams are
deliberately *not* coalesced: each consumer paces its own iterator.

Every query runs under a per-request
:class:`~repro.engine.governor.CancelToken`.  A client that disconnects
mid-stream trips it (the evaluation aborts at the next governor check
instead of running to completion for nobody), and graceful shutdown
trips every active token once the drain grace expires.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set

from repro import __version__
from repro.collection import Collection
from repro.engine.governor import CancelToken
from repro.engine.session import DEFAULT_PAGE_SIZE, XPathEngine
from repro.server.admission import AdmissionController
from repro.server.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    QueryRequest,
    encode_frame,
    encode_item,
    error_frame_for,
    footer_frame,
    header_frame,
    page_frame,
    parse_request,
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`XPathServer`."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 — let the kernel pick (tests, benchmarks)
    page_size: int = DEFAULT_PAGE_SIZE  #: default result page size
    max_page_size: int = 4096  #: cap on per-request ``page_size``
    workers: int = 4  #: evaluation threads
    max_inflight: int = 8  #: per-client admission quota
    queue_depth: int = 16  #: server-wide executor queue bound
    default_timeout: Optional[float] = 30.0  #: admission deadline (s)
    drain_grace: float = 10.0  #: shutdown drain budget (s)
    buffer_pages: int = 4  #: stream backpressure bound, in pages
    max_body_bytes: int = 1 << 20  #: request body cap
    idle_timeout: Optional[float] = 60.0  #: idle keep-alive reap (s)

    def __post_init__(self):
        if self.page_size < 1 or self.max_page_size < self.page_size:
            raise ValueError(
                "need 1 <= page_size <= max_page_size, got "
                f"{self.page_size}/{self.max_page_size}"
            )
        if self.buffer_pages < 1:
            raise ValueError("buffer_pages must be at least 1")
        if self.drain_grace < 0:
            raise ValueError("drain_grace must not be negative")
        if self.idle_timeout is not None and self.idle_timeout <= 0:
            raise ValueError(
                "idle_timeout must be positive (or None to disable)"
            )


class _StreamAborted(Exception):
    """Producer-side signal: the consumer is gone, stop evaluating."""


class _PageBuffer:
    """The bounded thread → event-loop page conduit of one stream.

    The producer (executor thread) blocks in :meth:`put_page` once
    ``capacity`` pages are queued but unconsumed; the consumer (event
    loop) releases one slot per page it takes.  :meth:`abort` unwedges
    a blocked producer when the consumer bails out early — it signals
    the producer's condition variable directly, so a producer parked on
    a full buffer sees :class:`_StreamAborted` within the wakeup
    latency of the condition (microseconds), not at the next tick of a
    polling loop.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, capacity: int):
        self._loop = loop
        self._queue: "asyncio.Queue" = asyncio.Queue()
        self._lock = threading.Lock()
        self._free = threading.Condition(self._lock)
        self._slots = capacity
        self._aborted = False

    def put_page(self, items: List[dict]) -> None:
        with self._free:
            while self._slots <= 0 and not self._aborted:
                self._free.wait()
            if self._aborted:
                raise _StreamAborted()
            self._slots -= 1
        self._send(("page", items))

    def put_header(self, kind: str) -> None:
        self._send(("header", kind))

    def finish(self, error: Optional[BaseException]) -> None:
        self._send(("error", error) if error is not None else ("done", None))

    def _send(self, event) -> None:
        try:
            self._loop.call_soon_threadsafe(self._queue.put_nowait, event)
        except RuntimeError:  # the loop already closed under shutdown
            raise _StreamAborted() from None

    async def get(self):
        event = await self._queue.get()
        if event[0] == "page":
            with self._free:
                self._slots += 1
                self._free.notify()
        return event

    def abort(self) -> None:
        with self._free:
            self._aborted = True
            self._free.notify_all()


@dataclass
class _HttpRequest:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes


class _BadRequestLine(Exception):
    """The bytes on the wire are not an HTTP/1.1 request."""


class XPathServer:
    """One engine, many named targets, served over loopback HTTP."""

    def __init__(
        self,
        targets: Mapping[str, object],
        *,
        engine: Optional[XPathEngine] = None,
        config: Optional[ServerConfig] = None,
        default_target: Optional[str] = None,
    ):
        if not targets:
            raise ValueError("a server needs at least one target")
        self.config = config or ServerConfig()
        self.engine = engine or XPathEngine()
        self.targets: Dict[str, object] = dict(targets)
        if default_target is None and len(self.targets) == 1:
            default_target = next(iter(self.targets))
        if default_target is not None and default_target not in (
            self.targets
        ):
            raise ValueError(
                f"default_target {default_target!r} is not a target"
            )
        self.default_target = default_target
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix="xpath-serve",
        )
        self._admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            queue_depth=self.config.queue_depth,
            workers=self.config.workers,
        )
        self._counters: Counter = Counter(
            requests=0, queries=0, queries_ok=0, queries_failed=0,
            rejected_draining=0, pages_sent=0, items_sent=0,
            connections_total=0, connections_reaped=0,
        )
        self._lock = threading.Lock()
        self._qids = itertools.count(1)
        #: writer -> last-activity loop time, or None while a request
        #: is being served (busy connections are never reaped).
        self._connections: Dict[asyncio.StreamWriter, Optional[float]] = {}
        self._active_cancels: Set[CancelToken] = set()
        self._draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._reaper: Optional[asyncio.Task] = None
        self._started_at = time.time()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        if self.config.idle_timeout is not None:
            self._reaper = asyncio.get_running_loop().create_task(
                self._reap_idle_connections()
            )

    @property
    def port(self) -> int:
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def shutdown(self, drain: Optional[float] = None) -> None:
        """Drain in-flight queries, then stop accepting and close.

        While draining, the listener stays open and every new query is
        answered with a clean ``draining`` (503) frame — load balancers
        and retrying clients see an orderly refusal, not a connection
        reset.  Queries still in flight get ``drain`` seconds
        (default: the configured ``drain_grace``) to finish; stragglers
        have their cancel tokens tripped and abort with the typed
        governance error at the next governor check.
        """
        if self._draining:
            return
        self._draining = True
        loop = asyncio.get_running_loop()
        grace = self.config.drain_grace if drain is None else drain
        deadline = loop.time() + grace
        while self._admission.total_inflight and loop.time() < deadline:
            await asyncio.sleep(0.02)
        if self._admission.total_inflight:
            with self._lock:
                tokens = list(self._active_cancels)
            for token in tokens:
                token.cancel("server shutting down")
            hard = loop.time() + max(grace, 5.0)
            while self._admission.total_inflight and loop.time() < hard:
                await asyncio.sleep(0.02)
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        with self._lock:
            writers = list(self._connections)
        for writer in writers:
            writer.close()
        await asyncio.sleep(0)  # let handlers observe their closed pipes
        self._executor.shutdown(wait=True)

    # -- observability -------------------------------------------------

    def stats(self) -> dict:
        """The JSON-safe ``/stats`` payload: server + engine."""
        with self._lock:
            counters = dict(self._counters)
            connections = len(self._connections)
        return {
            "server": {
                "version": __version__,
                "protocol": PROTOCOL_VERSION,
                "uptime_seconds": round(
                    time.time() - self._started_at, 3
                ),
                "draining": self._draining,
                "connections": connections,
                "page_size": self.config.page_size,
                "counters": counters,
                "admission": self._admission.snapshot(),
                "targets": {
                    name: (
                        "collection"
                        if isinstance(target, Collection) else "document"
                    )
                    for name, target in self.targets.items()
                },
            },
            "engine": self.engine.stats().to_dict(),
        }

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._counters[name] += delta

    # -- connection handling -------------------------------------------

    async def _reap_idle_connections(self) -> None:
        """Close keep-alive connections idle beyond ``idle_timeout``.

        A client that opens a connection and goes silent would
        otherwise hold its fd forever (and, while draining, delay
        shutdown); the reaper closes such connections — their blocked
        ``readline`` sees EOF and the handler exits — and counts each
        under ``connections_reaped``.  Connections mid-request (marked
        busy) are never reaped, however long their query streams.
        """
        loop = asyncio.get_running_loop()
        timeout = self.config.idle_timeout
        interval = min(max(timeout / 4.0, 0.05), 1.0)
        while True:
            await asyncio.sleep(interval)
            now = loop.time()
            with self._lock:
                stale = [
                    conn for conn, last_active in self._connections.items()
                    if last_active is not None
                    and now - last_active > timeout
                ]
                for conn in stale:
                    self._connections.pop(conn, None)
                    self._counters["connections_reaped"] += 1
            for conn in stale:
                conn.close()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        loop = asyncio.get_running_loop()
        with self._lock:
            self._connections[writer] = loop.time()
            self._counters["connections_total"] += 1
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                self._count(requests=1)
                with self._lock:
                    if writer in self._connections:
                        self._connections[writer] = None  # busy
                keep_alive = await self._dispatch(request, writer)
                with self._lock:
                    if writer in self._connections:
                        self._connections[writer] = loop.time()
                if not keep_alive:
                    break
        except _BadRequestLine as error:
            try:
                frame, status = error_frame_for(
                    None, ProtocolError("bad-request", str(error))
                )
                await self._send(
                    writer,
                    self._json_response(status, frame, keep_alive=False),
                )
            except (ConnectionError, OSError):
                pass
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ValueError,  # readline() overran the stream limit
        ):
            pass
        finally:
            with self._lock:
                self._connections.pop(writer, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_HttpRequest]:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequestLine(request_line[:80])
        method, path, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if len(headers) > 128:
                raise _BadRequestLine("too many headers")
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            raise _BadRequestLine("bad content-length") from None
        if length < 0 or length > self.config.max_body_bytes:
            raise _BadRequestLine(f"content-length {length}")
        body = await reader.readexactly(length) if length else b""
        return _HttpRequest(method, path.split("?", 1)[0], headers, body)

    # -- responses -----------------------------------------------------

    @staticmethod
    def _json_response(status: int, payload: dict,
                       *, keep_alive: bool = True) -> bytes:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            "\r\n"
        )
        return head.encode("latin-1") + body

    @staticmethod
    def _chunk(data: bytes) -> bytes:
        return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"

    async def _send(self, writer: asyncio.StreamWriter,
                    data: bytes) -> None:
        writer.write(data)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _dispatch(self, request: _HttpRequest,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; the return value is keep-alive."""
        if request.path == "/healthz":
            if request.method != "GET":
                return await self._reject(
                    writer, "method-not-allowed", "use GET /healthz"
                )
            status = 503 if self._draining else 200
            payload = {
                "status": "draining" if self._draining else "ok",
                "inflight": self._admission.total_inflight,
            }
            await self._send(
                writer, self._json_response(status, payload)
            )
            return True
        if request.path == "/stats":
            if request.method != "GET":
                return await self._reject(
                    writer, "method-not-allowed", "use GET /stats"
                )
            await self._send(
                writer, self._json_response(200, self.stats())
            )
            return True
        if request.path == "/version":
            if request.method != "GET":
                return await self._reject(
                    writer, "method-not-allowed", "use GET /version"
                )
            payload = {"version": __version__,
                       "protocol": PROTOCOL_VERSION}
            await self._send(writer, self._json_response(200, payload))
            return True
        if request.path == "/xpath":
            if request.method != "POST":
                return await self._reject(
                    writer, "method-not-allowed", "use POST /xpath"
                )
            return await self._handle_query(request, writer)
        return await self._reject(
            writer, "not-found", f"no route {request.path!r}"
        )

    async def _reject(self, writer: asyncio.StreamWriter, code: str,
                      message: str, *, qid: Optional[int] = None) -> bool:
        frame, status = error_frame_for(qid, ProtocolError(code, message))
        await self._send(writer, self._json_response(status, frame))
        return True

    # -- the query path ------------------------------------------------

    def _resolve_target(self, request: QueryRequest):
        name = request.target or self.default_target
        if name is None:
            raise ProtocolError(
                "bad-request",
                "this server has several targets; the request must "
                f"name one of {sorted(self.targets)}",
            )
        try:
            return name, self.targets[name]
        except KeyError:
            raise ProtocolError(
                "unknown-target",
                f"no target {name!r} (have {sorted(self.targets)})",
            ) from None

    async def _handle_query(self, http: _HttpRequest,
                            writer: asyncio.StreamWriter) -> bool:
        qid = next(self._qids)
        self._count(queries=1)
        if self._draining:
            self._count(rejected_draining=1)
            return await self._reject(
                writer, "draining", "server is shutting down", qid=qid
            )
        try:
            request = parse_request(http.body)
            name, target = self._resolve_target(request)
        except ProtocolError as error:
            self._count(queries_failed=1)
            frame, status = error_frame_for(qid, error)
            await self._send(writer, self._json_response(status, frame))
            return True

        client = http.headers.get("x-client-id")
        if not client:
            peer = writer.get_extra_info("peername")
            client = peer[0] if peer else "unknown"
        try:
            self._admission.admit(client)
        except ProtocolError as error:
            self._count(queries_failed=1)
            frame, status = error_frame_for(qid, error)
            await self._send(writer, self._json_response(status, frame))
            return True

        cancel = CancelToken()
        with self._lock:
            self._active_cancels.add(cancel)
        try:
            return await self._run_query(
                qid, request, name, target, cancel, writer
            )
        finally:
            with self._lock:
                self._active_cancels.discard(cancel)
            self._admission.release(client)

    async def _run_query(self, qid: int, request: QueryRequest,
                         name: str, target, cancel: CancelToken,
                         writer: asyncio.StreamWriter) -> bool:
        loop = asyncio.get_running_loop()
        page_size = min(
            request.page_size or self.config.page_size,
            self.config.max_page_size,
        )
        buffer = _PageBuffer(loop, self.config.buffer_pages)
        try:
            eval_options = request.eval_options(
                default_timeout=self.config.default_timeout,
                cancel=cancel,
            )
        except ProtocolError as error:
            self._count(queries_failed=1)
            frame, status = error_frame_for(qid, error)
            await self._send(writer, self._json_response(status, frame))
            return True

        started = time.perf_counter()
        producer = loop.run_in_executor(
            self._executor,
            self._produce, request, target, eval_options, page_size,
            buffer,
        )
        streaming = False
        keep_alive = True
        pages = 0
        items = 0
        try:
            while True:
                event, payload = await buffer.get()
                if event == "header":
                    await self._send(
                        writer,
                        (
                            "HTTP/1.1 200 OK\r\n"
                            "Content-Type: application/x-ndjson\r\n"
                            "Transfer-Encoding: chunked\r\n"
                            "Connection: keep-alive\r\n"
                            "\r\n"
                        ).encode("latin-1"),
                    )
                    frame = header_frame(
                        qid, target=name, kind=payload,
                        page_size=page_size, mode=request.mode,
                    )
                    await self._send(
                        writer, self._chunk(encode_frame(frame))
                    )
                    streaming = True
                elif event == "page":
                    frame = page_frame(qid, pages, payload)
                    await self._send(
                        writer, self._chunk(encode_frame(frame))
                    )
                    pages += 1
                    items += len(payload)
                elif event == "done":
                    elapsed_ms = (time.perf_counter() - started) * 1e3
                    frame = footer_frame(
                        qid, pages=pages, items=items,
                        elapsed_ms=elapsed_ms,
                    )
                    await self._send(
                        writer,
                        self._chunk(encode_frame(frame)) + b"0\r\n\r\n",
                    )
                    self._count(
                        queries_ok=1, pages_sent=pages, items_sent=items
                    )
                    break
                else:  # "error"
                    frame, status = error_frame_for(qid, payload)
                    if streaming:
                        # Mid-stream: the 200 head is gone; the error
                        # frame replaces the footer, the chunked body
                        # still terminates cleanly.
                        await self._send(
                            writer,
                            self._chunk(encode_frame(frame))
                            + b"0\r\n\r\n",
                        )
                    else:
                        await self._send(
                            writer, self._json_response(status, frame)
                        )
                    self._count(
                        queries_failed=1, pages_sent=pages,
                        items_sent=items,
                    )
                    break
        except (ConnectionError, OSError):
            # The client went away mid-response: abort the evaluation
            # instead of computing pages nobody will read.
            cancel.cancel("client disconnected")
            keep_alive = False
        finally:
            buffer.abort()
            try:
                await producer
            except Exception:
                pass
        return keep_alive

    def _produce(self, request: QueryRequest, target, eval_options,
                 page_size: int, buffer: _PageBuffer) -> None:
        """Executor-thread body of one query: evaluate, push frames.

        Never raises — every outcome (including engine errors) travels
        through the buffer as an event, so the event-loop side is the
        single place that renders frames.  The engine's thread-confined
        plan instances are safe because this one thread owns the whole
        evaluation, start to finish.
        """
        def put_pages(kind: str, items) -> None:
            # A materialized (mode="full") answer, cut into frames; an
            # empty one still sends its single empty page.
            buffer.put_header(kind)
            for start in range(0, max(len(items), 1), page_size):
                page = items[start:start + page_size]
                buffer.put_page([encode_item(v) for v in page])

        try:
            if isinstance(target, Collection):
                if request.mode == "full":
                    result = self.engine.evaluate_collection(
                        request.query, target, eval_options
                    )
                    put_pages(result.kind, result.merged())
                else:
                    stream = self.engine.evaluate_collection_stream(
                        request.query, target, eval_options,
                        page_size=page_size,
                    )
                    sent_header = False
                    for kind, page in stream:
                        if not sent_header:
                            buffer.put_header(kind)
                            sent_header = True
                        buffer.put_page([encode_item(v) for v in page])
            elif request.mode == "full":
                result = self.engine.evaluate(
                    request.query, target, eval_options,
                    ordered=request.ordered,
                )
                if isinstance(result, list):
                    put_pages("node-set", result)
                else:
                    put_pages("scalar", [result])
            else:
                plan = self.engine.compile(
                    request.query,
                    namespaces=eval_options.namespace_map(),
                    target=target,
                )
                kind = (
                    "node-set"
                    if plan.translation.kind == "sequence" else "scalar"
                )
                stream = self.engine.evaluate_stream(
                    request.query, target, eval_options,
                    page_size=page_size, ordered=request.ordered,
                )
                buffer.put_header(kind)
                for page in stream:
                    buffer.put_page([encode_item(v) for v in page])
            buffer.finish(None)
        except _StreamAborted:
            pass
        except BaseException as error:
            try:
                buffer.finish(error)
            except _StreamAborted:
                pass


# ----------------------------------------------------------------------
# Thread-hosted helper (tests, benchmarks, the differential oracle)
# ----------------------------------------------------------------------


class ServerHandle:
    """A server running on its own event-loop thread."""

    def __init__(self, server: XPathServer,
                 thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop):
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def host(self) -> str:
        return self.server.config.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self, drain: Optional[float] = None,
             timeout: float = 30.0) -> None:
        """Gracefully shut the server down and join its thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(drain), self._loop
        )
        try:
            future.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    targets: Mapping[str, object],
    *,
    engine: Optional[XPathEngine] = None,
    config: Optional[ServerConfig] = None,
    default_target: Optional[str] = None,
) -> ServerHandle:
    """Start an :class:`XPathServer` on a background event-loop thread.

    The returned handle exposes the bound port and a blocking
    :meth:`~ServerHandle.stop`; use it as a context manager in tests::

        with start_in_thread({"doc": store}) as handle:
            client = ServerClient(handle.host, handle.port)
            ...
    """
    server = XPathServer(
        targets, engine=engine, config=config,
        default_target=default_target,
    )
    started = threading.Event()
    boot_errors: List[BaseException] = []
    loop_holder: List[asyncio.AbstractEventLoop] = []

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except BaseException as error:  # bind failures, mostly
            boot_errors.append(error)
            started.set()
            loop.close()
            return
        loop_holder.append(loop)
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=run, name="xpath-server", daemon=True
    )
    thread.start()
    started.wait(timeout=30)
    if boot_errors:
        raise boot_errors[0]
    if not loop_holder:
        raise RuntimeError("server event loop failed to start")
    return ServerHandle(server, thread, loop_holder[0])

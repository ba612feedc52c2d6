"""The server subprocess and the raw client of the ``serve_*`` workloads.

The server is the real command a deployment runs — ``python -m
repro.server`` — started as a child process over a stored document and
stopped with SIGTERM (graceful drain).  For a traced run the same entry
point is started through :mod:`benchmarks.ledger.traced_server`, which
wraps the server-side public calls first and dumps its spans on exit.

:class:`RawClient` speaks HTTP through ``http.client`` but reads the
chunked NDJSON body one frame line at a time, so it can timestamp the
first ``page`` frame (time to first page) and count the items and payload
bytes that actually arrived without decoding thousands of items per
operation; the full decode runs only when the caller asks for it (answer
checking).
"""

from __future__ import annotations

import contextlib
import http.client
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"

_perf = time.perf_counter

#: Seconds to wait for the server to announce its port / to exit.
_START_TIMEOUT = 60.0
_STOP_TIMEOUT = 20.0


def child_env() -> dict:
    """The environment of child interpreters: ``src`` and the repo root
    importable, whatever the parent was started with."""
    env = dict(os.environ)
    paths = [str(SRC_DIR), str(REPO_ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class ServerProcess:
    """``python -m repro.server --store dblp=PATH --port 0`` as a child."""

    def __init__(self, store_path: Path, *,
                 trace_dump: Optional[Path] = None):
        module = ["-m", "repro.server"]
        if trace_dump is not None:
            module = ["-m", "benchmarks.ledger.traced_server",
                      str(trace_dump)]
        self.trace_dump = trace_dump
        self.host = "127.0.0.1"
        self.port = 0
        self._process = subprocess.Popen(
            [sys.executable, *module, "--store", f"dblp={store_path}",
             "--port", "0"],
            env=child_env(), cwd=str(REPO_ROOT),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self._process.pid

    def _await_port(self) -> int:
        """The port from the ``serving [...] on http://host:port`` line
        the server prints once it is listening."""
        stderr = self._process.stderr
        deadline = time.monotonic() + _START_TIMEOUT
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stderr], [], [], 0.5)
            if not ready:
                if self._process.poll() is not None:
                    break
                continue
            chunk = os.read(stderr.fileno(), 4096)
            if not chunk:
                break
            seen += chunk
            match = re.search(rb"http://[^:]+:(\d+)", seen)
            if match and b"\n" in seen[match.end():]:
                return int(match.group(1))
        raise RuntimeError(
            "server did not start: "
            + seen.decode("utf-8", "replace").strip()
        )

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read().decode("utf-8"))
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM, wait for the drain, SIGKILL if it does not end."""
        process = self._process
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stderr is not None:
            process.stderr.close()
            process.stderr = None


class Reply(NamedTuple):
    status: int
    items: int  #: items received in ``page`` frames
    footer_items: Optional[int]  #: what the footer frame says was sent
    pages: int
    wire_bytes: int  #: bytes of the ``items`` arrays of the page frames
    ttfp: float  #: seconds from send to the first ``page`` frame
    decoded: Optional[List[dict]]  #: every item, when asked for
    error: Optional[dict]


class RawClient:
    """One keep-alive connection; one request in flight."""

    def __init__(self, host: str, port: int, client_id: str, span):
        self._conn = http.client.HTTPConnection(host, port, timeout=120)
        self._headers = {
            "Content-Type": "application/json",
            "X-Client-Id": client_id,
        }
        #: ``span(name)`` -> context manager (a tracer span or a no-op).
        self._span = span

    def close(self) -> None:
        self._conn.close()

    def query(self, query: str, page_size: int,
              decode: bool = False) -> Reply:
        span = self._span
        body = json.dumps(
            {"query": query, "page_size": page_size}
        ).encode("utf-8")
        frames = _Frames(decode)
        with span("client.send"):
            self._conn.request("POST", "/xpath", body=body,
                               headers=self._headers)
        with span("client.first_byte"):
            response = self._conn.getresponse()
        with span("client.first_page"):
            frames.read(response, until_first_page=True)
        with span("client.last_frame"):
            frames.read(response, until_first_page=False)
        return Reply(
            response.status, frames.items, frames.footer_items,
            frames.pages, frames.wire_bytes,
            frames.first_page - frames.start, frames.decoded, frames.error,
        )


class _Frames:
    """What one response's NDJSON frames added up to so far."""

    def __init__(self, decode: bool):
        self.start = _perf()
        #: When the first ``page`` frame (or, failing that, the end of
        #: the response) arrived.
        self.first_page: Optional[float] = None
        self.pages = self.items = self.wire_bytes = 0
        self.footer_items: Optional[int] = None
        self.decoded: Optional[List[dict]] = [] if decode else None
        self.error: Optional[dict] = None

    def read(self, response, until_first_page: bool) -> None:
        while True:
            line = response.readline()
            if not line:
                if self.first_page is None:
                    self.first_page = _perf()
                return
            if line.startswith(b'{"frame":"page"'):
                self.pages += 1
                # Every item is one flat object with one "type" key, and
                # a quote inside a string value is escaped on the wire,
                # so this counts the items that arrived without decoding.
                self.items += line.count(b'"type":')
                # Only the item payload: the qid, seq and elapsed fields
                # around it change width from run to run.
                self.wire_bytes += len(line) - line.index(b'"items":')
                if self.decoded is not None:
                    self.decoded.extend(json.loads(line)["items"])
                if self.first_page is None:
                    self.first_page = _perf()
                    if until_first_page:
                        return
            elif line.startswith(b'{"frame":"footer"'):
                self.footer_items = json.loads(line)["items"]
            elif line.startswith(b'{"frame":"error"'):
                self.error = json.loads(line)


def null_span(_name: str):
    return contextlib.nullcontext()

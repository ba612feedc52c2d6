"""A minimal blocking client for the serving front end.

Built on stdlib :mod:`http.client` — the same dependency budget as the
server.  Used by the test suite and the differential oracle's
``server`` route (the performance ledger's ``serve_point`` and
``serve_stream`` workloads time the server with their own raw client);
it doubles as executable documentation of the frame protocol for
clients in other languages.

:meth:`ServerClient.query` POSTs one request and decodes the NDJSON
frame stream *incrementally* (page by page off the chunked body, never
buffering the whole response), returning a :class:`QueryResult` whose
``error`` carries the typed frame when the server reported one instead
of raising — callers decide whether an error is exceptional.
:meth:`QueryResult.raise_for_error` re-raises the matching
:mod:`repro.errors` exception class by its wire-carried type name.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro import errors as _errors
from repro.server.protocol import canonical_items, decode_scalar


@dataclass
class QueryResult:
    """One decoded query response: frames, reassembled."""

    status: int
    header: Optional[dict] = None
    pages: List[List[dict]] = field(default_factory=list)
    footer: Optional[dict] = None
    error: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def items(self) -> List[dict]:
        """Every result item, pages reassembled in ``seq`` order
        (frames arrive in ``seq`` order on the one connection)."""
        return [item for page in self.pages for item in page]

    @property
    def kind(self) -> Optional[str]:
        return self.header.get("kind") if self.header else None

    def scalar(self) -> object:
        """The scalar value of a one-item scalar response."""
        items = self.items
        if len(items) != 1 or items[0].get("type") == "node":
            raise ValueError(f"not a scalar result: {self.kind!r}")
        return decode_scalar(items[0])

    def canonical(self) -> object:
        """The differential-oracle comparison form of the result."""
        return canonical_items(self.items)

    def raise_for_error(self) -> "QueryResult":
        """Re-raise the server-side error, typed, or return self."""
        if self.error is None:
            return self
        name = self.error.get("error", "")
        message = self.error.get("message", "")
        exc_type = getattr(_errors, name, None)
        if isinstance(exc_type, type) and issubclass(
            exc_type, _errors.ReproError
        ):
            try:
                raise exc_type(message)
            except TypeError:
                # Classes with structured constructors (the governance
                # errors carry limits/usage) reconstruct from the wire
                # message alone — the type is what callers match on.
                error = exc_type.__new__(exc_type)
                Exception.__init__(error, message)
                raise error from None
        raise RuntimeError(
            f"server error [{self.error.get('code')}]: {message}"
        )


class ServerClient:
    """One keep-alive connection to an :class:`XPathServer`."""

    def __init__(self, host: str, port: int, *,
                 client_id: Optional[str] = None,
                 timeout: float = 60.0):
        self._conn = http.client.HTTPConnection(
            host, port, timeout=timeout
        )
        self._client_id = client_id

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- plain JSON endpoints ------------------------------------------

    def _get_json(self, path: str) -> dict:
        self._conn.request("GET", path, headers=self._headers())
        response = self._conn.getresponse()
        return json.loads(response.read().decode("utf-8"))

    def stats(self) -> dict:
        return self._get_json("/stats")

    def healthz(self) -> dict:
        return self._get_json("/healthz")

    def version(self) -> dict:
        return self._get_json("/version")

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self._client_id:
            headers["X-Client-Id"] = self._client_id
        return headers

    # -- queries -------------------------------------------------------

    def query(self, query: str, *, target: Optional[str] = None,
              **fields) -> QueryResult:
        """POST one query and decode the full frame stream.

        ``fields`` pass through to the request body verbatim (``mode``,
        ``page_size``, ``ordered``, ``variables``, ``namespaces``,
        ``timeout``, ``max_tuples``, ``max_bytes``, ...).
        """
        body: Dict[str, object] = {"query": query, **fields}
        if target is not None:
            body["target"] = target
        payload = json.dumps(body).encode("utf-8")
        self._conn.request(
            "POST", "/xpath", body=payload, headers=self._headers()
        )
        response = self._conn.getresponse()
        result = QueryResult(status=response.status)
        for frame in self._frames(response):
            kind = frame.get("frame")
            if kind == "header":
                result.header = frame
            elif kind == "page":
                result.pages.append(frame["items"])
            elif kind == "footer":
                result.footer = frame
            elif kind == "error":
                result.error = frame
        return result

    @staticmethod
    def _frames(response: http.client.HTTPResponse) -> Iterator[dict]:
        """Decode newline-delimited frames incrementally.

        ``http.client`` de-chunks the transfer encoding; reading line
        by line keeps at most one frame in memory at a time, matching
        the server's page-at-a-time production.
        """
        buffered = b""
        while True:
            chunk = response.read(65536)
            if not chunk:
                break
            buffered += chunk
            while b"\n" in buffered:
                line, buffered = buffered.split(b"\n", 1)
                if line.strip():
                    yield json.loads(line.decode("utf-8"))
        if buffered.strip():
            yield json.loads(buffered.decode("utf-8"))

"""The stdlib HTTP face of the daemon: routing, headers, lifecycle.

:class:`CoSKQServer` is a :class:`http.server.ThreadingHTTPServer`
carrying one shared :class:`~repro.serve.service.QueryService`; the
handler is a thin transport — parse the path, hand bytes to the
service, write the :class:`~repro.serve.service.ServeResponse` back.
All semantics (admission, degradation, status mapping, stats) live in
the service so they are testable without sockets.

Endpoints (``docs/SERVING.md`` documents the payloads):

- ``POST /query``      — solve one CoSKQ request (JSON body);
- ``GET  /healthz``    — liveness + dataset shape;
- ``GET  /stats``      — outcome/stage/failure counters, latency
  percentiles, cache hit rates, admission counters;
- ``GET  /vocabulary`` — most frequent keywords (for load generators).

The handler writes every response itself — including the 404 and 405
edges — so a client always receives JSON with an ``outcome``/``error``
shape, never a stock HTML error page.  Any method other than GET and
POST gets a JSON 405 with ``Allow: GET, POST`` (a HEAD response carries
no body).

Only a ``/query`` POST reads its body, and only one framed by
``Content-Length``; a chunked body is refused as a counted
``bad_request``.  Every response that leaves request bytes unread sends
``Connection: close``, so those bytes are never parsed as the next
request on a keep-alive connection.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import CoSKQError, InvalidParameterError
from repro.exec.clock import Clock
from repro.model.dataset import Dataset
from repro.serve.config import ServerConfig
from repro.serve.service import QueryService, ServeResponse

__all__ = ["CoSKQServer", "CoSKQRequestHandler", "create_server"]

#: Largest accepted ``/query`` body; bigger requests are rejected with
#: 400 before being read into memory.
MAX_BODY_BYTES = 1 << 20


class CoSKQRequestHandler(BaseHTTPRequestHandler):
    """Transport only: route, delegate to the service, write JSON."""

    server: "CoSKQServer"
    protocol_version = "HTTP/1.1"

    # -- routing -----------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        path = urlparse(self.path).path
        if path != "/query":
            self._write_simple(404, {"error": {"type": "NotFound", "message": path}})
            return
        try:
            body = self._read_body()
        except CoSKQError as err:
            # Refused bodies are still counted (as bad_request) so
            # /stats reconciles with the client-side tally.
            self._write_response(self.server.service.reject_bad_request(str(err)))
            return
        response = self.server.service.handle_query(body)
        self._write_response(response, body_read=True)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        parsed = urlparse(self.path)
        service = self.server.service
        try:
            if parsed.path == "/healthz":
                self._write_simple(200, service.health_payload())
            elif parsed.path == "/stats":
                self._write_simple(200, service.stats_payload())
            elif parsed.path == "/vocabulary":
                query = parse_qs(parsed.query)
                limit = int(query.get("limit", ["50"])[0])
                self._write_simple(200, service.vocabulary_payload(limit=limit))
            else:
                self._write_simple(
                    404, {"error": {"type": "NotFound", "message": parsed.path}}
                )
        except (CoSKQError, ValueError) as err:
            self._write_simple(
                400, {"error": {"type": type(err).__name__, "message": str(err)}}
            )

    def __getattr__(self, name: str):
        # http.server dispatches to ``do_<METHOD>`` and answers a missing
        # handler with an HTML 501; every such method gets the JSON 405.
        if name.startswith("do_"):
            return self._method_not_allowed
        raise AttributeError(name)

    def _method_not_allowed(self) -> None:
        self._write_response(
            ServeResponse(
                status=405,
                payload={"error": {"type": "MethodNotAllowed", "message": self.command}},
                headers=(("Allow", "GET, POST"),),
            )
        )

    # -- plumbing ----------------------------------------------------------------

    def _read_body(self) -> bytes:
        if "Transfer-Encoding" in self.headers:
            raise InvalidParameterError(
                "Transfer-Encoding bodies (chunked) are not supported; "
                "send Content-Length"
            )
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise InvalidParameterError("Content-Length is not an integer")
        if length < 0 or length > MAX_BODY_BYTES:
            raise InvalidParameterError(
                "request body must be 0..%d bytes" % MAX_BODY_BYTES
            )
        return self.rfile.read(length)

    def _has_body(self) -> bool:
        """Whether the request announced body bytes (framed or not)."""
        if "Transfer-Encoding" in self.headers:
            return True
        try:
            return int(self.headers.get("Content-Length", "0")) != 0
        except ValueError:
            return True

    def _write_response(self, response: ServeResponse, body_read: bool = False) -> None:
        body = response.body()
        headers = response.headers
        if not body_read and self._has_body():
            # The unread body would be parsed as the next request.
            headers += (("Connection", "close"),)
        self.send_response(response.status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if response.retry_after_s is not None:
            # Retry-After takes integral seconds; never hint 0 (a client
            # would hammer), so round up to at least one.
            self.send_header(
                "Retry-After", str(max(1, int(response.retry_after_s + 0.999)))
            )
            self.send_header(
                "X-Retry-After-Ms", "%d" % int(response.retry_after_s * 1000)
            )
        for name, value in headers:
            self.send_header(name, value)
        # end_headers() would send the headers on their own.  Written
        # apart, the body of a keep-alive response waits for the client's
        # delayed ACK of the headers (about 40 ms under Nagle's
        # algorithm), so the blank line and the body join the buffered
        # headers and all leave in one write.
        if self.command == "HEAD":
            body = b""
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _write_simple(self, status: int, payload: Dict[str, object]) -> None:
        self._write_response(ServeResponse(status=status, payload=payload))

    def log_message(self, format: str, *args: object) -> None:
        if self.server.service.config.verbose:
            BaseHTTPRequestHandler.log_message(self, format, *args)


class CoSKQServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QueryService`.

    ``daemon_threads`` is on so a handler wedged by injected chaos
    latency can never block process exit, and ``allow_reuse_address``
    keeps restart loops from tripping over TIME_WAIT sockets.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: QueryService):
        super().__init__(address, CoSKQRequestHandler)
        self.service = service

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return "http://%s:%d" % (host, port)

    def serve_background(self) -> threading.Thread:
        """Serve from a daemon thread (tests, chaos harnesses)."""
        thread = threading.Thread(
            target=self.serve_forever, name="coskq-serve", daemon=True
        )
        thread.start()
        return thread


def create_server(
    dataset: Dataset,
    config: Optional[ServerConfig] = None,
    clock: Optional[Clock] = None,
) -> CoSKQServer:
    """A warmed server on ``config.host:config.port`` (port 0 = ephemeral)."""
    config = config if config is not None else ServerConfig()
    service = QueryService(dataset, config, clock=clock)
    return CoSKQServer((config.host, config.port), service)

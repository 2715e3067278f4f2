"""HTTP/1.1 for every listening surface: one request loop, one route table.

The query server, the cluster shard server and the router's admin surface
all serve through :class:`HttpServer`, which owns what they share:

* **the request read** -- request line and header block in one read,
  ``Content-Length``-framed bodies.  A bare-LF head, a ``Transfer-Encoding``
  body or a bad ``Content-Length`` is answered ``400`` (a body past
  :data:`MAX_BODY_BYTES` ``413``) and the connection closed, since the next
  request's start is then unknown;
* **the keep-alive loop** -- each response is one head+body write;
* **a route table** -- ``path -> (methods, handler)``.  A handler takes the
  decoded JSON payload (query-string fields fill in what the body leaves
  out) and the per-request context, and returns ``(status, body)``.  A path
  off the table answers ``404``, a method its route does not accept ``405``;
* ``/metrics``, ``/slow-queries`` and liveness ``/health`` over the
  registry and slow log each server passes in;
* :func:`run_in_thread` -- the daemon-thread event loop behind
  ``start_server_thread`` and ``ClusterRouter.start_admin``, stopped
  through its :class:`ServerHandle`.

Stdlib only (``asyncio``): the serving loop is part of the reproduction, so
what it costs is measured rather than hidden inside a web framework.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.core.errors import ReproError
from repro.obs import MetricsRegistry, SlowQueryLog

__all__ = [
    "GET",
    "HttpServer",
    "MAX_BODY_BYTES",
    "POST",
    "READ",
    "Reject",
    "ServerHandle",
    "encode",
    "int_field",
    "run_in_thread",
    "truthy",
]

#: largest request body the server will buffer; one rogue Content-Length
#: must not bypass admission control by exhausting memory (8 MiB holds a
#: ~300k-query batch request -- far past any sane client)
MAX_BODY_BYTES = 8 * 1024 * 1024

#: the methods a route accepts: reads take either, mutations POST only
GET = ("GET",)
POST = ("POST",)
READ = ("GET", "POST")

#: a route handler: ``(payload, ctx) -> (status, body)``
Handler = Callable[[Dict[str, object], object], Awaitable[Tuple[int, bytes]]]


class Reject(Exception):
    """Turn a request into an HTTP error response."""

    def __init__(self, status: int, message: str, retry_after: Optional[int] = None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after


class _TextBody(bytes):
    """A response body to be written as ``text/plain`` (/metrics)."""


class HttpServer:
    """An asyncio HTTP/1.1 listener serving one route table.

    Args:
        host / port: bind address; port 0 picks a free port (see
            :attr:`port` after :meth:`start`).
        metrics: the registry ``/metrics`` renders.
        slow_log: the log ``/slow-queries`` reads (``?limit=N``: the N most
            recent entries; a negative N is a 400).
        methods: the methods ``/metrics``, ``/slow-queries`` and
            ``/health`` accept.

    Servers add their endpoints to :attr:`routes` and may override the
    per-request hooks (:meth:`_begin_request`, :meth:`_finish_request`,
    :meth:`_count_error`) and :meth:`health`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        metrics: MetricsRegistry,
        slow_log: SlowQueryLog,
        methods: Tuple[str, ...] = GET,
    ) -> None:
        self._host = host
        self._port = port
        self.metrics = metrics
        self.slow_log = slow_log
        self.routes: Dict[str, Tuple[Tuple[str, ...], Handler]] = {
            "/metrics": (methods, self._serve_metrics),
            "/slow-queries": (methods, self._serve_slow_queries),
            "/health": (methods, self._serve_health),
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: set = set()  # open client writers, for shutdown
        self._handlers: set = set()  # per-connection handler tasks

    @property
    def port(self) -> int:
        """The bound port (resolves a requested port 0 after :meth:`start`)."""
        return self._port

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self._port}"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener (call from the loop)."""
        self._server = await asyncio.start_server(
            self._client_connected, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Close the listener, then every open connection.

        ``drain`` is for servers with admitted work to finish first.
        """
        if self._server is not None:
            self._server.close()
        # idle keep-alive connections would otherwise hold their handler
        # tasks (blocked in the head read) across loop shutdown -- and,
        # from Python 3.12 on, hold wait_closed() open
        for writer in list(self._connections):
            writer.close()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._handlers:
            await asyncio.gather(*list(self._handlers), return_exceptions=True)

    def run(self, on_started=None) -> None:
        """Blocking convenience: start, serve until interrupted, stop.

        ``on_started`` (if given) is called with the server once the
        listener is bound -- the CLI uses it to print the resolved address.
        A ``KeyboardInterrupt`` cancels serving and runs :meth:`stop`.
        """

        async def _main() -> None:
            await self.start()
            if on_started is not None:
                on_started(self)
            try:
                await self._server.serve_forever()
            except asyncio.CancelledError:  # pragma: no cover - signal path
                pass
            finally:
                await self.stop()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass

    # ------------------------------------------------------------------ #
    # per-request hooks
    # ------------------------------------------------------------------ #
    def _begin_request(self, method: str, endpoint: str, headers: Dict[str, str]):
        """The context handed to the route handler (none by default)."""
        return None

    def _finish_request(self, ctx, status: int) -> None:
        """Runs once per routed request, after its response body is final."""

    def _count_error(self, status: int) -> None:
        """Runs once per request answered with an error status."""

    def health(self) -> Dict[str, object]:
        """The ``/health`` body; status ``"draining"`` answers 503."""
        return {"status": "ok"}

    # ------------------------------------------------------------------ #
    # the connection loop
    # ------------------------------------------------------------------ #
    async def _client_connected(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except Reject as reject:
                    # a request that cannot be framed cannot be skipped
                    # safely on a keep-alive stream: answer and close
                    self._count_error(reject.status)
                    payload = encode({"error": reject.message})
                    writer.write(
                        _CLOSE_HEAD
                        % (reject.status, _REASONS.get(reject.status, b"Error"), len(payload))
                        + payload
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self._respond(*request)
                content_type = (
                    b"text/plain; version=0.0.4; charset=utf-8"
                    if isinstance(payload, _TextBody)
                    else b"application/json"
                )
                # head and body in one write: one send, one segment
                writer.write(
                    _HEAD % (status, _REASONS.get(status, b"OK"), content_type, len(payload))
                    + payload
                )
                await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _respond(
        self, method: str, target: str, body: bytes, headers: Dict[str, str]
    ) -> Tuple[int, bytes]:
        """Route one framed request and map every failure to a status."""
        path = target.partition("?")[0]
        if "#" in path or not path.startswith("/"):
            path = urlsplit(target).path  # absolute-form or fragment: parse
        endpoint = path.rstrip("/") or "/"
        ctx = self._begin_request(method, endpoint, headers)
        try:
            route = self.routes.get(endpoint)
            if route is None:
                raise Reject(404, f"no such endpoint: {endpoint}")
            methods, handler = route
            if method not in methods:
                # mutations must never ride on "safe" methods: a browser
                # prefetch or monitoring GET must not change the index
                raise Reject(
                    405, f"{endpoint} requires {' or '.join(methods)}, got {method}"
                )
            payload = _decode(body)
            if "?" in target:
                _merge_query_string(payload, target)
            status, out = await handler(payload, ctx)
        except Reject as reject:
            self._count_error(reject.status)
            status = reject.status
            out = encode({"error": reject.message, "retry_after": reject.retry_after})
        except ReproError as exc:
            self._count_error(400)
            status, out = 400, encode({"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - the server must answer
            self._count_error(500)
            status, out = 500, encode({"error": f"{type(exc).__name__}: {exc}"})
        self._finish_request(ctx, status)
        return status, out

    # ------------------------------------------------------------------ #
    # the shared endpoints
    # ------------------------------------------------------------------ #
    async def _serve_metrics(self, payload: Dict[str, object], ctx) -> Tuple[int, bytes]:
        return 200, _TextBody(self.metrics.render().encode())

    async def _serve_slow_queries(
        self, payload: Dict[str, object], ctx
    ) -> Tuple[int, bytes]:
        limit = payload.get("limit")
        if limit is not None:
            limit = int_field(limit, "limit")
            if limit < 0:
                raise Reject(400, f"'limit' must be >= 0, got {limit}")
        return 200, encode(
            {
                "threshold_s": self.slow_log.threshold,
                "recorded": self.slow_log.recorded,
                "slow_queries": self.slow_log.entries(limit),
            }
        )

    async def _serve_health(self, payload: Dict[str, object], ctx) -> Tuple[int, bytes]:
        body = self.health()
        return (503 if body["status"] == "draining" else 200), encode(body)


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes, Dict[str, str]]]:
    """One request off the stream: request line, header block, body.

    The header block comes in one read: its first two bytes tell an empty
    block (``\\r\\n``) from one that ends in a blank line.  Only CRLF framing
    is accepted -- a bare-LF request line is rejected at once rather than
    left waiting for a ``\\r\\n\\r\\n`` that never comes.

    ``None`` at EOF (or an unparsable request line); :class:`Reject` for a
    head or body that cannot be framed -- bare-LF line endings, a
    ``Transfer-Encoding`` body, a ``Content-Length`` that is not a
    non-negative integer, or one past :data:`MAX_BODY_BYTES`.
    """
    try:
        line = await reader.readuntil(b"\n")
        if not line.endswith(b"\r\n"):
            raise Reject(400, "request lines must end in CRLF")
        try:
            method, target, _version = line.decode("latin-1").split(None, 2)
        except ValueError:
            return None
        block = await reader.readexactly(2)
        if block != b"\r\n":
            block += await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError:
        return None
    except asyncio.LimitOverrunError as exc:
        raise Reject(400, "request head too large") from exc
    headers: Dict[str, str] = {}
    for field in block.decode("latin-1").split("\r\n")[:-2]:
        name, _, value = field.partition(":")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise Reject(400, "Transfer-Encoding request bodies are not supported")
    length = headers.get("content-length", "0")
    if not length.isdecimal():
        raise Reject(400, f"invalid Content-Length {length!r}")
    length = int(length)
    if length > MAX_BODY_BYTES:
        raise Reject(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, body, headers


# --------------------------------------------------------------------------- #
# wire helpers
# --------------------------------------------------------------------------- #
_REASONS = {
    200: b"OK",
    400: b"Bad Request",
    403: b"Forbidden",
    404: b"Not Found",
    405: b"Method Not Allowed",
    409: b"Conflict",
    413: b"Payload Too Large",
    500: b"Internal Server Error",
    503: b"Service Unavailable",
}

#: response heads: ``% (status, reason, content type, length)`` ...
_HEAD = b"HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n"
#: ... and ``% (status, reason, length)`` for a JSON error that ends the
#: connection
_CLOSE_HEAD = (
    b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
    b"Content-Length: %d\r\nConnection: close\r\n\r\n"
)


def encode(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


def _decode(body: bytes) -> Dict[str, object]:
    if not body:
        return {}
    try:
        decoded = json.loads(body)
    except ValueError as exc:
        raise Reject(400, f"invalid JSON body: {exc}") from exc
    if not isinstance(decoded, dict):
        raise Reject(400, "JSON body must be an object")
    return decoded


def _merge_query_string(payload: Dict[str, object], target: str) -> None:
    """Fill ``payload`` from the target's query string (body fields win)."""
    for key, values in parse_qs(urlsplit(target).query).items():
        payload.setdefault(key, values[0])


def int_field(value: object, name: str) -> int:
    """Request field ``name``'s ``value`` as an int, or a 400 naming it.

    Accepts what ``int()`` does (JSON numbers, query-string digits); a value
    it refuses -- ``"abc"``, ``null``, a list -- is the client's error, not
    a 500 carrying the interpreter's exception text.
    """
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise Reject(400, f"'{name}' must be an integer, got {value!r:.40}") from None


def truthy(value: object) -> bool:
    if isinstance(value, str):
        return value.lower() in ("1", "true", "yes", "on")
    return bool(value)


# --------------------------------------------------------------------------- #
# threaded convenience (tests, benchmarks, examples, the router admin)
# --------------------------------------------------------------------------- #
class ServerHandle:
    """An :class:`HttpServer` running on a daemon thread's event loop."""

    def __init__(
        self,
        server: HttpServer,
        thread: threading.Thread,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def address(self) -> str:
        return self.server.address

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Drain and stop the server, then stop and join the loop thread.

        Idempotent: stopping an already-stopped handle is a no-op, so
        teardown code can stop every member of a cluster without tracking
        which replicas a test already killed.
        """
        if self._loop.is_closed():
            return
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(drain=drain), self._loop
            )
        except RuntimeError:
            return  # loop shut down between the check and the submit
        try:
            future.result(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def run_in_thread(server: HttpServer) -> ServerHandle:
    """Start ``server`` on a fresh daemon-thread event loop.

    Returns once the listener is bound (so :attr:`ServerHandle.port` is
    real); stop with :meth:`ServerHandle.stop` or use as a context manager.
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=_run_loop, args=(loop,), name="repro-serve", daemon=True
    )
    thread.start()
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=30.0)
    except BaseException as exc:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=30.0)
        raise RuntimeError(f"server failed to start: {exc!r}") from exc
    return ServerHandle(server, thread, loop)


def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
    asyncio.set_event_loop(loop)
    try:
        loop.run_forever()
    finally:
        loop.run_until_complete(loop.shutdown_asyncgens())
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()

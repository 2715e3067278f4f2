"""HTTP/1.1 for every listening surface: one connection protocol, one route table.

The query server, the cluster shard server and the router's admin surface
all serve through :class:`HttpServer`, which owns what they share:

* **the connection protocol** -- one :class:`asyncio.Protocol` per
  connection frames requests straight out of its receive buffer, inside
  ``data_received``: the request line (CRLF only), the header block (the
  whole head at most :data:`MAX_HEAD_BYTES`), then a ``Content-Length``-framed
  body.  A bare-LF request line, an oversized head, a ``Transfer-Encoding``
  body or a bad ``Content-Length`` is answered ``400`` (a body past
  :data:`MAX_BODY_BYTES` ``413``) once, with ``Connection: close``, and the
  connection closed, since the next request's start is then unknown; an EOF
  mid-request closes silently.  Keep-alive answers go out in request order,
  each one head+body write.  While the transport's write buffer is past its
  high-water mark (``pause_writing``) no further buffered request is parsed
  and reading pauses, so a client that never reads its answers cannot grow
  the server's buffers;
* **a route table** -- ``path -> (methods, handler)``.  A handler takes the
  decoded JSON payload (query-string fields fill in what the body leaves
  out) and the per-request context, and returns ``(status, body)`` -- or,
  when it must wait (a worker-thread hop, a long-poll), an awaitable of
  that tuple.  A tuple is written at once, inside the callback that read the
  request -- the query server's lone ``/query``, ``/insert``, ``/delete``,
  ``/stats`` and ``/unsubscribe`` answer so, as do ``/metrics``,
  ``/slow-queries`` and ``/health`` here; for an awaitable (``/batch``,
  ``/maintain``, ``/subscribe``, ``/poll-deltas``, an update that must
  wait) the connection pauses reading, runs it as its one task, writes the
  answer, resumes and goes on with the requests already buffered.  A path
  off the table answers ``404``, a method its route does not accept
  ``405``;
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
from typing import Awaitable, Callable, Dict, Optional, Tuple, Union
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

#: largest request head (request line plus header block) the server will
#: buffer while it waits for the blank line that ends it
MAX_HEAD_BYTES = 64 * 1024

#: the methods a route accepts: reads take either, mutations POST only
GET = ("GET",)
POST = ("POST",)
READ = ("GET", "POST")

#: a route handler: ``(payload, ctx) -> (status, body)``, or an awaitable
#: of that tuple when the answer must wait
Answer = Tuple[int, bytes]
Handler = Callable[[Dict[str, object], object], Union[Answer, Awaitable[Answer]]]


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
        self._connections: set = set()  # open _Connection protocols
        self._tasks: set = set()  # in-flight awaitable answers

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
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Close the listener and every open connection, then await the
        answers still in flight.

        ``drain`` is for servers with admitted work to finish first.
        """
        if self._server is not None:
            self._server.close()
        # idle keep-alive connections would otherwise stay open across loop
        # shutdown -- and, from Python 3.12 on, hold wait_closed() open
        self.close_connections()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def close_connections(self) -> None:
        """Close every open connection from the server's side (loop thread).

        Answers the kernel took are delivered; answers a client left
        unread in the transport's buffer, and one still being computed
        (it runs to completion), are dropped.
        """
        for connection in list(self._connections):
            connection.close()

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
    # routing
    # ------------------------------------------------------------------ #
    def _respond(
        self, method: str, target: str, body: bytes, headers: Dict[str, str]
    ) -> Union[Answer, Awaitable[Answer]]:
        """Route one framed request: its answer, or an awaitable of it.

        Every failure maps to a status, and :meth:`_finish_request` runs
        once the answer is final -- here for a tuple, in :meth:`_settle`
        for an awaitable.
        """
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
            answer = handler(payload, ctx)
        except Exception as exc:  # noqa: BLE001 - the server must answer
            answer = self._error_answer(exc)
        if isinstance(answer, tuple):
            self._finish_request(ctx, answer[0])
            return answer
        return self._settle(ctx, answer)

    async def _settle(self, ctx, pending: Awaitable[Answer]) -> Answer:
        """Await a handler's answer, then finish it as :meth:`_respond` would."""
        try:
            answer = await pending
        except Exception as exc:  # noqa: BLE001 - the server must answer
            answer = self._error_answer(exc)
        self._finish_request(ctx, answer[0])
        return answer

    def _error_answer(self, exc: Exception) -> Answer:
        """The error response for a handler's exception, counted once."""
        if isinstance(exc, Reject):
            status = exc.status
            out = encode({"error": exc.message, "retry_after": exc.retry_after})
        elif isinstance(exc, ReproError):
            status, out = 400, encode({"error": str(exc)})
        else:
            status, out = 500, encode({"error": f"{type(exc).__name__}: {exc}"})
        self._count_error(status)
        return status, out

    # ------------------------------------------------------------------ #
    # the shared endpoints
    # ------------------------------------------------------------------ #
    def _serve_metrics(self, payload: Dict[str, object], ctx) -> Answer:
        return 200, _TextBody(self.metrics.render().encode())

    def _serve_slow_queries(self, payload: Dict[str, object], ctx) -> Answer:
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

    def _serve_health(self, payload: Dict[str, object], ctx) -> Answer:
        body = self.health()
        return (503 if body["status"] == "draining" else 200), encode(body)


class _Connection(asyncio.Protocol):
    """One client connection: frames the buffered requests and answers them
    in order (see the module docstring for the contract)."""

    __slots__ = (
        "_server", "_transport", "_buffer", "_task", "_write_paused",
        "_read_paused", "_eof",
    )

    def __init__(self, server: HttpServer) -> None:
        self._server = server
        self._transport: Optional[asyncio.Transport] = None
        self._buffer = bytearray()
        self._task: Optional[asyncio.Task] = None  # the awaited answer, if any
        self._write_paused = False
        self._read_paused = False
        self._eof = False

    def connection_made(self, transport: asyncio.Transport) -> None:
        self._transport = transport
        self._server._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._serve()

    def eof_received(self) -> bool:
        # answer every request already framed, then close: keep the write
        # side open until then
        self._eof = True
        self._serve()
        return True

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._serve()

    def close(self) -> None:
        transport = self._transport
        if transport.get_write_buffer_size():
            # the client is not reading its answers: close() would wait for
            # a flush that may never come (and, from Python 3.12 on, hold
            # the server's wait_closed() with it)
            transport.abort()
        else:
            transport.close()

    def _serve(self) -> None:
        """Answer the buffered requests in order until one must wait."""
        transport = self._transport
        while self._task is None and not self._write_paused:
            if transport.is_closing():
                return
            try:
                request = self._frame()
            except Reject as reject:
                # a request that cannot be framed cannot be skipped safely
                # on a keep-alive stream: answer once and close
                self._server._count_error(reject.status)
                payload = encode({"error": reject.message})
                transport.write(
                    _CLOSE_HEAD
                    % (reject.status, _REASONS.get(reject.status, b"Error"), len(payload))
                    + payload
                )
                transport.close()
                return
            if request is None:
                if self._eof:
                    # nothing more will arrive: a partial request is dropped
                    transport.close()
                break
            answer = self._server._respond(*request)
            if isinstance(answer, tuple):
                self._send(answer)
            else:
                task = asyncio.get_running_loop().create_task(self._answer_later(answer))
                self._task = task
                self._server._tasks.add(task)
                task.add_done_callback(self._server._tasks.discard)
        # read no further while an answer is awaited or the client is not
        # reading its answers: the next request waits in the socket
        blocked = self._task is not None or self._write_paused
        if blocked != self._read_paused and not self._eof:
            self._read_paused = blocked
            if blocked:
                transport.pause_reading()
            else:
                transport.resume_reading()

    async def _answer_later(self, pending: Awaitable[Answer]) -> None:
        answer = await pending
        self._task = None
        if not self._transport.is_closing():
            self._send(answer)
            self._serve()

    def _send(self, answer: Answer) -> None:
        status, payload = answer
        content_type = (
            b"text/plain; version=0.0.4; charset=utf-8"
            if isinstance(payload, _TextBody)
            else b"application/json"
        )
        # head and body in one write: one send, one segment
        self._transport.write(
            _HEAD % (status, _REASONS.get(status, b"OK"), content_type, len(payload))
            + payload
        )

    def _frame(self) -> Optional[Tuple[str, str, bytes, Dict[str, str]]]:
        """The first buffered request, cut off the buffer; ``None`` until it
        has all arrived.

        :class:`Reject` for a head or body that cannot be framed -- a bare-LF
        request line, a head past :data:`MAX_HEAD_BYTES`, a
        ``Transfer-Encoding`` body, a ``Content-Length`` that is not a
        non-negative integer, or one past :data:`MAX_BODY_BYTES`.  An
        unparsable request line closes the connection unanswered.
        """
        buffer = self._buffer
        line_end = buffer.find(b"\n")
        if line_end < 0:
            if len(buffer) > MAX_HEAD_BYTES:
                raise Reject(400, "request head too large")
            return None
        if line_end == 0 or buffer[line_end - 1] != 13:  # 13: CR
            # rejected at once rather than left waiting for a CRLF blank
            # line that never comes
            raise Reject(400, "request lines must end in CRLF")
        try:
            method, target, _version = (
                buffer[: line_end - 1].decode("latin-1").split(None, 2)
            )
        except ValueError:
            self._transport.close()
            return None
        # the blank line ends the head; with no header fields it follows the
        # request line's own CRLF
        head_end = buffer.find(b"\r\n\r\n", line_end - 1)
        if (len(buffer) if head_end < 0 else head_end) > MAX_HEAD_BYTES:
            raise Reject(400, "request head too large")
        if head_end < 0:
            return None
        headers: Dict[str, str] = {}
        if head_end > line_end:
            for field in buffer[line_end + 1 : head_end].decode("latin-1").split("\r\n"):
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
        body_start = head_end + 4
        body_end = body_start + length
        if len(buffer) < body_end:
            return None
        body = bytes(buffer[body_start:body_end]) if length else b""
        del buffer[:body_end]
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


#: one compact encoder for every response: ``json.dumps`` with
#: ``separators`` builds a fresh encoder on every call
_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode(payload: Dict[str, object]) -> bytes:
    return _ENCODER.encode(payload).encode()


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

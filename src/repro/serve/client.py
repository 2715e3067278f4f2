"""A tiny stdlib client for the query server (tests, benchmarks, examples).

One :class:`ServeClient` holds one keep-alive TCP socket and speaks just
enough HTTP/1.1 over it: each request is one ``sendall`` of a formatted head
plus the JSON body, each response is read with a ``recv``/``recv_into`` loop
framed by ``Content-Length`` (or by EOF when the server closes).  It is not
thread-safe -- give each client thread its own instance (the connection is
the unit of HTTP pipelining, and the benchmarks measure per-connection
request/response round-trips on purpose).

:class:`StreamClient` layers the standing-query protocol on top: it
subscribes, keeps the live result set locally by folding the delta batches
each ``/poll-deltas`` long-poll returns, and transparently resyncs when the
server's bounded delta log could no longer replay the gap.
"""

from __future__ import annotations

import json
import random
import socket
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ReproError

__all__ = [
    "ServeClient",
    "ServerError",
    "ServerOverloaded",
    "ServerUnavailableError",
    "StreamClient",
]

#: bytes asked of one ``recv`` for the response head; a typical ``/query``
#: answer (head plus a ~1.5 KB body) arrives whole in the first one
_RECV_BYTES = 65536

#: a response head longer than this is not from the query server
_MAX_HEAD_BYTES = 65536

#: one compact encoder for every request body: ``json.dumps`` with
#: ``separators`` builds a fresh encoder on every call
_ENCODER = json.JSONEncoder(separators=(",", ":"))


class ServerError(RuntimeError):
    """A non-2xx response from the query server."""

    def __init__(self, status: int, payload: Dict[str, object]):
        super().__init__(f"server answered {status}: {payload.get('error', payload)}")
        self.status = status
        self.payload = payload


class ServerOverloaded(ServerError):
    """503: admission control rejected the request (back off and retry)."""


class ServerUnavailableError(ReproError, ConnectionError):
    """The server could not be reached (after the client's bounded retries).

    Replaces the raw ``OSError`` exceptions the transport produces (a
    refused connect, a reset, a timeout, an EOF before the response is
    whole); the client's socket has already been torn down when this is
    raised.  Subclasses ``ConnectionError`` so existing callers that caught
    connection failures keep working.
    """

    def __init__(self, host: str, port: int, attempts: int, cause: Exception):
        super().__init__(
            f"query server {host}:{port} unavailable after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: {cause}"
        )
        self.host = host
        self.port = port
        self.attempts = attempts
        self.cause = cause


class ServeClient:
    """JSON-over-HTTP client for one :class:`repro.serve.server.QueryServer`.

    Args:
        host / port: the server address (see ``ServerHandle.port``).
        timeout: per-request socket timeout in seconds (long-poll requests
            stretch it to cover their server-side wait).
        retries: connection attempts per idempotent request before giving
            up with :class:`ServerUnavailableError` (the socket is torn
            down first).  Non-idempotent updates never auto-retry -- the
            first attempt may have been applied before the connection died.
        backoff: base of the jittered exponential backoff between retries
            (``backoff * 2**n`` seconds plus up to 50% jitter, capped at
            ``backoff_cap``).
        retry_overloaded: also retry 503 admission rejections, honouring
            the server's ``Retry-After`` hint.  Off by default: admission
            control *wants* the caller to decide (shed load, try another
            replica); long-lived consumers like :class:`StreamClient` turn
            it on.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 30.0,
        *,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
        retry_overloaded: bool = False,
    ):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retries = max(0, int(retries))
        self._backoff = max(0.0, float(backoff))
        self._backoff_cap = max(self._backoff, float(backoff_cap))
        self._retry_overloaded = bool(retry_overloaded)
        #: the one keep-alive socket (None until the first request, and
        #: again after any transport failure or server-closed response)
        self._sock: Optional[socket.socket] = None
        self._host_line = f"Host: {host}:{port}\r\n".encode("latin-1")

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    #: paths safe to re-send after a dropped keep-alive connection; updates
    #: (/insert, /delete, /maintain) are NOT here -- the first attempt may
    #: have been applied before the connection died, and a blind re-send
    #: would double-apply it
    _RETRYABLE_PATHS = ("/query", "/batch", "/stats", "/health", "/poll-deltas")

    def _sleep_backoff(self, attempt: int, floor: float = 0.0) -> None:
        """Jittered exponential backoff before retry number ``attempt``."""
        delay = min(self._backoff_cap, self._backoff * (2 ** attempt))
        delay = max(floor, delay)
        if delay > 0:
            # up to 50% jitter de-synchronises clients retrying in lockstep
            time.sleep(delay * (1.0 + random.random() * 0.5))

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        *,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
        raw_body: bool = False,
    ) -> Dict[str, object]:
        body = (
            _ENCODER.encode(payload).encode()
            if payload is not None
            else b""
        )
        extra = (
            "".join(f"{name}: {value}\r\n" for name, value in headers.items()).encode(
                "latin-1"
            )
            if headers
            else b""
        )
        request = (
            b"%s %s HTTP/1.1\r\n%s"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n%s\r\n%s"
            % (
                method.encode("latin-1"),
                path.encode("latin-1"),
                self._host_line,
                len(body),
                extra,
                body,
            )
        )
        retryable = method == "GET" or path.split("?", 1)[0] in self._RETRYABLE_PATHS
        request_timeout = timeout if timeout is not None else self._timeout
        # connection resets retry only for idempotent paths; updates
        # (/insert, /delete, /maintain) fail fast -- the first attempt may
        # have been applied before the connection died, and a blind
        # re-send would double-apply it
        attempts = (1 + self._retries) if retryable else 1
        attempt = 0
        while True:
            try:
                sock = self._sock
                if sock is None:
                    sock = self._sock = socket.create_connection(
                        (self._host, self._port), request_timeout
                    )
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                elif sock.gettimeout() != request_timeout:
                    # per-request timeout override (long-polls stretch it)
                    sock.settimeout(request_timeout)
                sock.sendall(request)
                status, raw = self._read_response(sock)
            except OSError as exc:
                # a dropped keep-alive connection (server drained, idle
                # timeout, restart), a refused connect or a timeout: tear
                # the socket down, back off, retry within the bound -- then
                # surface a typed error, never a raw OSError with a
                # half-open socket behind it
                self.close()
                attempt += 1
                if attempt >= attempts:
                    raise ServerUnavailableError(
                        self._host, self._port, attempt, exc
                    ) from exc
                self._sleep_backoff(attempt - 1)
                continue
            if raw_body:
                if status >= 400:
                    raise ServerError(status, {"error": raw.decode()})
                return raw.decode()
            decoded = json.loads(raw) if raw else {}
            if status == 503:
                if self._retry_overloaded and attempt + 1 < attempts:
                    attempt += 1
                    retry_after = decoded.get("retry_after")
                    floor = float(retry_after) if retry_after else 0.0
                    self._sleep_backoff(attempt - 1, floor=floor)
                    continue
                raise ServerOverloaded(status, decoded)
            if status >= 400:
                raise ServerError(status, decoded)
            return decoded

    def _read_response(self, sock: socket.socket) -> Tuple[int, bytes]:
        """One response off the keep-alive socket: ``(status, body)``.

        The head is read up to its blank line, the body by its
        ``Content-Length`` -- or to EOF when it has none.  Any EOF before
        the response is whole raises ``ConnectionError`` (before the status
        line it is a keep-alive the server dropped, which an idempotent
        request retries).  A response that ends the connection
        (``Connection: close``, no length, bytes past the length) drops the
        socket, so the next request reconnects.
        """
        data = b""
        while True:
            chunk = sock.recv(_RECV_BYTES)
            if not chunk:
                raise ConnectionError(
                    "server closed the connection "
                    + ("mid-head" if data else "before the status line")
                )
            data += chunk
            head_end = data.find(b"\r\n\r\n")
            if head_end >= 0:
                break
            if len(data) > _MAX_HEAD_BYTES:
                raise ConnectionError("response head exceeds 64 KiB")
        lines = data[:head_end].split(b"\r\n")
        rest = lines[0].partition(b" ")[2]
        length: Optional[int] = None
        close = False
        try:
            status = int(rest[:3])
            for line in lines[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
        except ValueError:
            raise ConnectionError(f"malformed response head {lines[0]!r}") from None
        body = data[head_end + 4:]
        if length is None:
            parts = [body]
            while True:
                chunk = sock.recv(_RECV_BYTES)
                if not chunk:
                    break
                parts.append(chunk)
            body = b"".join(parts)
            close = True
        elif len(body) < length:
            buffer = bytearray(length)
            got = len(body)
            buffer[:got] = body
            view = memoryview(buffer)
            while got < length:
                received = sock.recv_into(view[got:])
                if not received:
                    raise ConnectionError(
                        f"server closed the connection mid-body "
                        f"({got} of {length} bytes)"
                    )
                got += received
            body = buffer
        elif len(body) > length:
            # one request in flight at a time, so trailing bytes mean the
            # framing cannot be trusted: keep the response, drop the socket
            body = body[:length]
            close = True
        if close:
            self.close()
        return status, body

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        *,
        timeout: Optional[float] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Dict[str, object]:
        """One raw request to an arbitrary endpoint (cluster extensions).

        Retry semantics follow the path: only the idempotent read paths in
        ``_RETRYABLE_PATHS`` (plus any GET) are re-sent after a dropped
        connection.  ``headers`` adds request headers (the cluster router
        uses this to propagate trace context).
        """
        return self._request(method, path, payload, timeout=timeout, headers=headers)

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def query(
        self,
        start: int,
        end: int,
        count_only: bool = False,
        *,
        relation: Optional[str] = None,
        stats: bool = False,
    ) -> Dict[str, object]:
        """One range query; ``{"ids": [...], "count": n}`` (or just count).

        ``relation`` restricts results to one Allen relation with the query
        range; ``stats`` adds the per-query ``QueryStats`` counters.
        """
        payload: Dict[str, object] = {
            "start": start,
            "end": end,
            "count_only": count_only,
        }
        if relation is not None:
            payload["relation"] = relation
        if stats:
            payload["stats"] = True
        return self._request("POST", "/query", payload)

    def stab(self, point: int) -> Dict[str, object]:
        """One stabbing query."""
        return self._request("POST", "/query", {"stab": point})

    def batch(
        self,
        pairs: Sequence[Tuple[int, int]],
        count_only: bool = False,
        *,
        relation: Optional[str] = None,
        stats: bool = False,
    ) -> List[Dict[str, object]]:
        """A whole workload in one request; per-query result dicts.

        ``relation``/``stats`` apply to every query in the batch.
        """
        payload: Dict[str, object] = {
            "queries": [[s, e] for s, e in pairs],
            "count_only": count_only,
        }
        if relation is not None:
            payload["relation"] = relation
        if stats:
            payload["stats"] = True
        response = self._request("POST", "/batch", payload)
        return response["results"]

    def insert(self, interval_id: int, start: int, end: int) -> Dict[str, object]:
        return self._request(
            "POST", "/insert", {"id": interval_id, "start": start, "end": end}
        )

    def delete(self, interval_id: int) -> Dict[str, object]:
        return self._request("POST", "/delete", {"id": interval_id})

    def maintain(self, force: bool = False) -> Dict[str, object]:
        return self._request("POST", "/maintain", {"force": force})

    def stats(self) -> Dict[str, object]:
        return self._request("GET", "/stats")

    def metrics(self) -> str:
        """The server's Prometheus text exposition, verbatim (``/metrics``)."""
        return self._request("GET", "/metrics", raw_body=True)

    def slow_queries(self, limit: Optional[int] = None) -> Dict[str, object]:
        """The server's slow-query log (``/slow-queries``)."""
        path = f"/slow-queries?limit={limit}" if limit is not None else "/slow-queries"
        return self._request("GET", path)

    def health(self) -> Dict[str, object]:
        return self._request("GET", "/health")

    # ------------------------------------------------------------------ #
    # standing queries (raw protocol; StreamClient wraps these)
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        start: Optional[int] = None,
        end: Optional[int] = None,
        *,
        stab: Optional[int] = None,
        relation: Optional[str] = None,
        min_duration: int = 0,
        max_duration: Optional[int] = None,
        filter: Optional[Dict[str, object]] = None,
        subscription_id: Optional[int] = None,
    ) -> Dict[str, object]:
        """Register a standing query (or resync one via ``subscription_id``).

        ``filter`` is a JSON predicate spec (see :mod:`repro.stream.filters`)
        compiled server-side.  Returns ``{"subscription_id", "generation",
        "ids", "count"}`` -- the consistent snapshot deltas are folded onto.
        """
        if subscription_id is not None:
            return self._request(
                "POST", "/subscribe", {"subscription_id": subscription_id}
            )
        payload: Dict[str, object] = {}
        if stab is not None:
            payload["stab"] = stab
        else:
            payload["start"] = start
            payload["end"] = end
        if relation is not None:
            payload["relation"] = relation
        if min_duration:
            payload["min_duration"] = min_duration
        if max_duration is not None:
            payload["max_duration"] = max_duration
        if filter is not None:
            payload["filter"] = filter
        return self._request("POST", "/subscribe", payload)

    def unsubscribe(self, subscription_id: int) -> Dict[str, object]:
        return self._request(
            "POST", "/unsubscribe", {"subscription_id": subscription_id}
        )

    def poll_deltas(
        self, subscription_id: int, after: int, timeout: float = 30.0
    ) -> Dict[str, object]:
        """One long-poll round against a subscription's delta log.

        The socket timeout is stretched past the requested long-poll wait,
        so a quiet subscription is not misread as a dead server.
        """
        return self._request(
            "POST",
            "/poll-deltas",
            {"subscription_id": subscription_id, "after": after, "timeout": timeout},
            timeout=max(self._timeout, timeout + 10.0),
        )


class StreamClient:
    """A standing-query consumer that keeps its result set live.

    Wraps one :class:`ServeClient`: :meth:`subscribe` installs the standing
    query and stores its snapshot locally; each :meth:`poll` (long-poll)
    round folds the delivered delta batches into the local id set and
    advances the acked generation.  When the server
    answers ``resync_required`` -- its bounded delta log was coalesced or
    truncated past our ack, or the subscription is gone after a server
    restart with a fresh manager -- the client re-snapshots transparently
    and bumps :attr:`resyncs`.

    Not thread-safe (same contract as :class:`ServeClient`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        timeout: float = 60.0,
        *,
        retries: int = 2,
        backoff: float = 0.05,
        backoff_cap: float = 2.0,
    ) -> None:
        # a stream consumer is long-lived and idempotent end to end (polls
        # re-send the last ack), so it opts into 503 retries too
        self._client = ServeClient(
            host,
            port,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            backoff_cap=backoff_cap,
            retry_overloaded=True,
        )
        self._subscription_id: Optional[int] = None
        self._generation = -1
        self._ids: set = set()
        self._resyncs = 0
        # the subscribe arguments, kept for re-subscription after the
        # server forgot us (restart with a fresh manager)
        self._spec: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------ #
    @property
    def subscription_id(self) -> Optional[int]:
        return self._subscription_id

    @property
    def generation(self) -> int:
        """The last-acked generation (what the next poll sends as ``after``)."""
        return self._generation

    @property
    def resyncs(self) -> int:
        """Snapshot replacements forced by log truncation/loss."""
        return self._resyncs

    def ids(self) -> frozenset:
        """The standing query's current result set (locally maintained)."""
        return frozenset(self._ids)

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "StreamClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        start: Optional[int] = None,
        end: Optional[int] = None,
        *,
        stab: Optional[int] = None,
        relation: Optional[str] = None,
        min_duration: int = 0,
        max_duration: Optional[int] = None,
        filter: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Install the standing query and adopt its snapshot."""
        self._spec = {
            "start": start,
            "end": end,
            "stab": stab,
            "relation": relation,
            "min_duration": min_duration,
            "max_duration": max_duration,
            "filter": filter,
        }
        response = self._client.subscribe(
            start,
            end,
            stab=stab,
            relation=relation,
            min_duration=min_duration,
            max_duration=max_duration,
            filter=filter,
        )
        self._adopt(response)
        return response

    def unsubscribe(self) -> Dict[str, object]:
        if self._subscription_id is None:
            raise RuntimeError("not subscribed")
        response = self._client.unsubscribe(self._subscription_id)
        self._subscription_id = None
        return response

    def poll(self, timeout: float = 30.0) -> Dict[str, object]:
        """One long-poll round; folds any deltas, resyncs when required.

        Returns the server's poll body (after folding); a transparent
        resync surfaces as ``{"resynced": True, ...snapshot fields}``.
        """
        if self._subscription_id is None:
            raise RuntimeError("not subscribed")
        try:
            response = self._client.poll_deltas(
                self._subscription_id, after=self._generation, timeout=timeout
            )
        except ServerError as exc:
            if exc.status == 404 and exc.payload.get("resync_required"):
                return self._resync()
            raise
        if response.get("resync_required"):
            return self._resync()
        self._apply(response)
        return response

    # ------------------------------------------------------------------ #
    def _apply(self, response: Dict[str, object]) -> None:
        for delta in response.get("deltas", ()):
            self._ids.difference_update(delta.get("removed", ()))
            self._ids.update(delta.get("added", ()))
        self._generation = max(self._generation, int(response.get("generation", -1)))

    def _adopt(self, response: Dict[str, object]) -> None:
        self._subscription_id = int(response["subscription_id"])
        self._generation = int(response["generation"])
        self._ids = set(response["ids"])

    def _resync(self) -> Dict[str, object]:
        """Replace the local state with a fresh server-side snapshot.

        Tries an in-place resync of the existing subscription first; when
        the server no longer knows it (restarted with a fresh manager),
        falls back to re-subscribing with the original query.
        """
        self._resyncs += 1
        try:
            response = self._client.subscribe(subscription_id=self._subscription_id)
        except ServerError as exc:
            if exc.status != 404 or self._spec is None:
                raise
            spec = self._spec
            response = self._client.subscribe(
                spec["start"],
                spec["end"],
                stab=spec["stab"],
                relation=spec["relation"],
                min_duration=spec["min_duration"],
                max_duration=spec["max_duration"],
                filter=spec.get("filter"),
            )
        self._adopt(response)
        result = dict(response)
        result["resynced"] = True
        return result

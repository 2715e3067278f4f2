"""``ServeClient``'s raw keep-alive transport against a scripted socket stub.

The stub is a tiny raw-socket HTTP/1.1 server: each request it reads takes
the next scripted reply -- the exact bytes to send, then what to do with the
connection (keep it, close it, or leave the request hanging unanswered) --
so every framing and failure mode the client must survive is one row of a
table instead of a real server coaxed into misbehaving.
"""

import json
import socket
import threading
import time

import pytest

from repro.serve.client import ServeClient, ServerOverloaded, ServerUnavailableError

BODY = {"ids": [3, 5], "count": 2, "generation": 7}


def _reply(status, payload, *headers):
    body = json.dumps(payload).encode()
    head = [f"HTTP/1.1 {status} X", "Content-Type: application/json"]
    head += [f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


OK = _reply(200, BODY)


class _Stub:
    """Serves one connection at a time; each request read pops one reply."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []  # (method, path) of every request read
        self.connections = 0
        self._stop = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join(timeout=10)
        self._listener.close()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            with conn:
                self._converse(conn)

    def _converse(self, conn):
        conn.settimeout(0.05)
        data = b""
        while not self._stop.is_set():
            request, data = _split_request(data)
            if request is None:
                try:
                    chunk = conn.recv(65536)
                except socket.timeout:
                    continue
                except OSError:
                    return
                if not chunk:
                    return
                data += chunk
                continue
            self.requests.append(request)
            if not self.replies:
                return
            payload, then = self.replies.pop(0)
            conn.sendall(payload)
            if then == "close":
                return
            if then == "hang":
                self._stop.wait()
                return


def _split_request(data):
    """``((method, path), rest)`` once ``data`` holds a whole request, else
    ``(None, data)``."""
    head_end = data.find(b"\r\n\r\n")
    if head_end < 0:
        return None, data
    lines = data[:head_end].decode("latin-1").split("\r\n")
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    end = head_end + 4 + length
    if len(data) < end:
        return None, data
    method, path, _ = lines[0].split(" ", 2)
    return (method, path), data[end:]


def _op(client, name):
    if name == "insert":
        return client.insert(1, 2, 3)
    return client.query(0, 100)


CASES = [
    # (replies, ops, client options, expected outcome of the last op,
    #  requests the stub read, socket left open, least seconds the last op takes)
    pytest.param(
        [(_reply(200, BODY, "Connection: close"), "close"), (OK, "keep")],
        ["query", "query"], {}, BODY, 2, True, 0.0,
        id="connection-close-then-reconnect",
    ),
    pytest.param(
        [(OK, "close"), (OK, "keep")],
        ["query", "query"], {}, BODY, 2, True, 0.0,
        id="idle-keepalive-dropped-query-retries",
    ),
    pytest.param(
        [(OK, "close")],
        ["query", "insert"], {"retries": 5}, (ServerUnavailableError, 1), 1, False, 0.0,
        id="idle-keepalive-dropped-insert-fails-fast",
    ),
    pytest.param(
        [(OK[:-10], "close")] * 2,
        ["query"], {"retries": 1}, (ServerUnavailableError, 2), 2, False, 0.0,
        id="eof-mid-body",
    ),
    pytest.param(
        [(b"HTTP/1.1 200 OK\r\n\r\n" + json.dumps(BODY).encode(), "close")],
        ["query"], {}, BODY, 1, False, 0.0,
        id="no-content-length-reads-to-eof",
    ),
    pytest.param(
        [(_reply(503, {"error": "overloaded", "retry_after": 0.2}), "keep"), (OK, "keep")],
        ["query"], {"retry_overloaded": True}, BODY, 2, True, 0.2,
        id="503-retry-after-honoured",
    ),
    pytest.param(
        [(_reply(503, {"error": "overloaded", "retry_after": 0.2}), "keep")],
        ["query"], {}, (ServerOverloaded, None), 1, True, 0.0,
        id="503-not-retried-by-default",
    ),
    pytest.param(
        [(b"", "hang")],
        ["query"], {"timeout": 0.2, "retries": 0}, (ServerUnavailableError, 1), 1, False, 0.2,
        id="socket-timeout",
    ),
]


@pytest.mark.parametrize(
    "replies, ops, options, expected, requests, socket_open, min_seconds", CASES
)
def test_transport_failure_modes(
    replies, ops, options, expected, requests, socket_open, min_seconds
):
    stub = _Stub(replies)
    client = ServeClient(port=stub.port, **{"timeout": 5.0, "backoff": 0.001, **options})
    try:
        for name in ops[:-1]:
            assert _op(client, name) == BODY
        started = time.perf_counter()
        if isinstance(expected, tuple):
            error, attempts = expected
            with pytest.raises(error) as excinfo:
                _op(client, ops[-1])
            if attempts is not None:
                assert excinfo.value.attempts == attempts
        else:
            assert _op(client, ops[-1]) == expected
        assert time.perf_counter() - started >= min_seconds
        assert len(stub.requests) == requests
        # a failed or connection-ending exchange tears the socket down
        assert (client._sock is not None) == socket_open
    finally:
        client.close()
        stub.stop()


def test_one_sendall_carries_head_body_and_extra_headers():
    stub = _Stub([(OK, "keep")])
    client = ServeClient(port=stub.port, timeout=5.0)
    sent = []

    class _SpySocket(socket.socket):
        def sendall(self, data, *args):
            sent.append(bytes(data))
            return super().sendall(data, *args)

    try:
        # hand the client a live keep-alive socket that records its sends
        live = socket.create_connection(("127.0.0.1", stub.port))
        client._sock = _SpySocket(fileno=live.detach())
        response = client.request(
            "POST", "/query", {"start": 0, "end": 100}, headers={"X-Trace": "abc"}
        )
        assert response == BODY
        assert len(sent) == 1
        head, _, body = sent[0].partition(b"\r\n\r\n")
        assert head.startswith(b"POST /query HTTP/1.1\r\n")
        assert b"\r\nX-Trace: abc" in head
        assert b"\r\nContent-Length: %d" % len(body) in head
        assert json.loads(body) == {"start": 0, "end": 100}
        assert stub.requests == [("POST", "/query")]
    finally:
        client.close()
        stub.stop()

"""Cross-tier query tracing: span trees over HTTP hops and process pools.

A trace is a flat, thread-safe list of **span records** (plain dicts, so
they pickle across process boundaries and encode to JSON unchanged) that
:meth:`Trace.tree` assembles into the per-query span tree the slow-query
log and ``/slow-queries`` expose::

    router_batch
      plan
      shard_probe (shard=0)          <- router-side HTTP span
        shard_batch                  <- shipped back in the /shard-batch body
          run_batch
            kernel_dispatch
              kernel:ids_batch (pid=...)   <- carried back in task results

Propagation is explicit at every boundary, because none of them share
memory with the caller:

* **threads** -- the active context is a thread-local stack, so executor
  threads must be entered via :func:`bind` (``contextvars`` do not follow
  ``run_in_executor`` hand-offs made before the context was set);
* **HTTP** -- :data:`TRACE_HEADER`/:data:`PARENT_HEADER` carry the ids
  downstream; the callee returns its span records in the response body and
  the caller :meth:`Trace.absorb`\\ s them, so one connected tree with a
  single ``trace_id`` spans every tier;
* **process pools** -- kernel tasks carry a ``(trace_id, parent_span_id)``
  pair; the worker builds its span record locally
  (:func:`new_span_record`) and ships it back inside the task result, so
  fork and spawn workers trace identically.

Everything no-ops when no trace is active: an untraced :func:`span` costs
one thread-local read.  Servers build a trace only for a request that
carried :data:`TRACE_HEADER` -- nothing else would read its spans -- so an
untraced request pays for no span record at all.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "PARENT_HEADER",
    "TRACE_HEADER",
    "Trace",
    "activate",
    "bind",
    "context_from_headers",
    "current",
    "headers_for",
    "new_span_record",
    "span",
    "start_span",
]

#: HTTP request headers carrying the trace context downstream (names are
#: matched case-insensitively by the servers' header parser)
TRACE_HEADER = "x-trace-id"
PARENT_HEADER = "x-parent-span"

_ACTIVE = threading.local()


def _new_id() -> str:
    return os.urandom(8).hex()


def _stack() -> List[Tuple["Trace", str]]:
    stack = getattr(_ACTIVE, "stack", None)
    if stack is None:
        stack = _ACTIVE.stack = []
    return stack


def new_span_record(
    trace_id: str,
    parent_id: Optional[str],
    name: str,
    tags: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """A fresh span record dict (shared by in-process and worker-side spans).

    ``start`` is wall-clock (comparable across processes); ``duration_ms``
    is filled by whoever finishes the span from a monotonic clock.
    """
    return {
        "trace_id": trace_id,
        "span_id": _new_id(),
        "parent_id": parent_id,
        "name": name,
        "start": time.time(),
        "duration_ms": 0.0,
        "tags": dict(tags or {}),
    }


class Trace:
    """One query's span collection, shared across threads of one process."""

    __slots__ = ("trace_id", "_lock", "_spans")

    def __init__(self, trace_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or _new_id()
        self._lock = threading.Lock()
        self._spans: List[Dict[str, object]] = []

    def add(self, record: Dict[str, object]) -> None:
        with self._lock:
            self._spans.append(record)

    def absorb(self, records) -> None:
        """Merge span records shipped back from another tier.

        Records are re-stamped with this trace's id: the remote side
        already parented them under one of our span ids (via the request
        headers or the task context), so re-stamping keeps the tree
        connected even if a hop minted its own trace id.
        """
        if not records:
            return
        with self._lock:
            for record in records:
                if isinstance(record, dict) and "span_id" in record:
                    record = dict(record)
                    record["trace_id"] = self.trace_id
                    self._spans.append(record)

    def spans(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._spans)

    def tree(self) -> List[Dict[str, object]]:
        """The span forest: children nested under parents, roots first.

        Spans whose parent is unknown (``None``, or recorded by a tier
        whose enclosing span never closed) surface as roots, so a partial
        trace still renders instead of vanishing.
        """
        spans = self.spans()
        nodes = {record["span_id"]: {**record, "children": []} for record in spans}
        roots: List[Dict[str, object]] = []
        for record in spans:
            node = nodes[record["span_id"]]
            parent = nodes.get(record.get("parent_id"))
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        for node in nodes.values():
            node["children"].sort(key=lambda child: child["start"])
        roots.sort(key=lambda node: node["start"])
        return roots

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            {"trace_id": self.trace_id, "spans": self.tree()}, indent=indent
        )


def current() -> Optional[Tuple[Trace, str]]:
    """The innermost active ``(trace, span_id)`` on this thread, or None."""
    stack = getattr(_ACTIVE, "stack", None)
    return stack[-1] if stack else None


class activate:
    """Enter a foreign context: spans opened inside parent under ``parent_id``.

    Used wherever a trace crosses a thread boundary explicitly -- executor
    threads via :func:`bind`, the cluster router's probe pool, tests.
    """

    __slots__ = ("_context",)

    def __init__(self, trace: Trace, parent_id: str) -> None:
        self._context = (trace, parent_id)

    def __enter__(self) -> None:
        _stack().append(self._context)

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE.stack.pop()


def bind(context: Optional[Tuple[Trace, str]], fn):
    """Wrap ``fn`` so it runs with ``context`` active on whatever thread.

    The hand-off helper for ``run_in_executor``/thread pools: capture
    ``current()`` (or a request's root context) on the submitting thread,
    then submit ``bind(context, fn)``.  With ``context=None`` the function
    passes through untouched (zero wrapping cost on untraced paths).
    """
    if context is None:
        return fn
    trace, parent_id = context

    def wrapper(*args, **kwargs):
        with activate(trace, parent_id):
            return fn(*args, **kwargs)

    return wrapper


class _Span:
    """One span being timed: entered, it records under ``(trace, parent)``;
    exited, it is closed and added to the trace."""

    __slots__ = ("_trace", "_parent_id", "_name", "_tags", "_record", "_started")

    def __init__(
        self, trace: Trace, parent_id: Optional[str], name: str, tags: Dict[str, object]
    ) -> None:
        self._trace = trace
        self._parent_id = parent_id
        self._name = name
        self._tags = tags

    def __enter__(self) -> Dict[str, object]:
        trace = self._trace
        record = self._record = new_span_record(
            trace.trace_id, self._parent_id, self._name, self._tags
        )
        _stack().append((trace, record["span_id"]))
        self._started = time.perf_counter()
        return record

    def __exit__(self, *exc_info: object) -> None:
        record = self._record
        record["duration_ms"] = (time.perf_counter() - self._started) * 1000.0
        _ACTIVE.stack.pop()
        self._trace.add(record)


class _Untraced:
    """The span of an untraced path: enters as ``None``, records nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_UNTRACED = _Untraced()


def span(name: str, **tags: object):
    """Record one span under the active context; no-op when untraced.

    Enters as the span record (or ``None`` when no trace is active) so the
    body can attach result tags: ``record["tags"]["shards"] = 3``.
    """
    stack = getattr(_ACTIVE, "stack", None)
    if not stack:
        return _UNTRACED
    trace, parent_id = stack[-1]
    return _Span(trace, parent_id, name, tags)


def start_span(trace: Trace, name: str, parent_id: Optional[str] = None, **tags):
    """Open a span on an explicit trace (the root-span entry point)."""
    return _Span(trace, parent_id, name, tags)


def context_from_headers(headers: Optional[Dict[str, str]]):
    """``(trace_id, parent_span_id)`` from request headers, or ``None``."""
    if not headers:
        return None
    trace_id = headers.get(TRACE_HEADER)
    if not trace_id:
        return None
    return trace_id, headers.get(PARENT_HEADER) or None


def headers_for(trace: Trace, parent_id: str) -> Dict[str, str]:
    """The propagation headers for one downstream HTTP hop."""
    return {TRACE_HEADER: trace.trace_id, PARENT_HEADER: parent_id}

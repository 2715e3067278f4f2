"""Thread-safe metrics: counters, gauges, histograms, Prometheus exposition.

One :class:`MetricsRegistry` per scope.  A single process-global registry
(:func:`global_registry`) collects engine-level counters -- kernel
retries, pool respawns, WAL records, maintenance passes -- that have no
natural per-server owner; each server (``QueryServer``,
``ShardServer``, ``ClusterRouter``) builds its own registry with the global
one as ``parent``, so scraping any server's ``/metrics`` shows its private
serving counters *and* the process-wide engine state in one page.

Three metric kinds, all safe to update from any thread:

* :class:`Counter` -- monotone; ``inc()``.
* :class:`Gauge` -- point-in-time; ``set()``/``inc()``/``dec()``.
* :class:`Histogram` -- fixed log-spaced buckets (:data:`LATENCY_BUCKETS`
  by default) plus a bounded window of raw observations, so p50/p95/p99
  readout is exact over the last :data:`QUANTILE_WINDOW` observations
  instead of bucket-interpolated.

Metrics the system already maintains elsewhere (cache hit counters, WAL
gauges, stream poller lag) are registered as **pull** metrics
(:meth:`MetricsRegistry.counter_function` / :meth:`gauge_function`): the
callback is read at scrape time, so nothing is double-maintained.

:func:`MetricsRegistry.render` emits the Prometheus text exposition format;
:func:`parse_prometheus_text` is the strict inverse used by tests and the
smoke scripts to assert scrapes stay machine-readable.
"""

from __future__ import annotations

import math
import re
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "LATENCY_BUCKETS",
    "QUANTILE_WINDOW",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_registry",
    "parse_prometheus_text",
]

#: fixed log-spaced latency buckets in seconds, ~100 us to 10 s (the serving
#: tier's observed range: cached hits sit in the lowest buckets, cold broad
#: fan-outs in the top ones)
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: observations a histogram retains for exact quantile readout; a ring
#: buffer, so quantiles describe the most recent window, not all time
QUANTILE_WINDOW = 2048

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _label_string(labelnames: Sequence[str], values: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + pairs + "}"


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Bucketed observations plus an exact quantile window.

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics) with
    an implicit ``+Inf``.  Alongside the buckets, the last
    :data:`QUANTILE_WINDOW` raw observations are kept in a ring, so
    :meth:`quantile` is exact over that window -- the registry's
    ``/stats`` quantiles and the bench tables read it directly instead of
    interpolating bucket boundaries.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count", "_window", "_cursor")

    def __init__(self, buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot: +Inf
        self._sum = 0.0
        self._count = 0
        self._window: List[float] = []
        self._cursor = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            position = 0
            for bound in self.buckets:
                if value <= bound:
                    break
                position += 1
            self._counts[position] += 1
            self._sum += value
            self._count += 1
            if len(self._window) < QUANTILE_WINDOW:
                self._window.append(value)
            else:
                self._window[self._cursor] = value
                self._cursor = (self._cursor + 1) % QUANTILE_WINDOW

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """Exact ``q``-quantile (nearest-rank) over the retained window."""
        with self._lock:
            window = sorted(self._window)
        if not window:
            return 0.0
        rank = min(len(window) - 1, max(0, int(math.ceil(q * len(window))) - 1))
        return window[rank]

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, ending with ``(+Inf, count)``."""
        with self._lock:
            counts = list(self._counts)
        cumulative, out = 0, []
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            out.append((bound, cumulative))
        out.append((math.inf, cumulative + counts[-1]))
        return out

    def summary(self) -> Dict[str, float]:
        """JSON-friendly ``{count, sum, mean, p50, p95, p99}`` readout."""
        count, total = self._count, self._sum
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


_FACTORIES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}

Metric = Union[Counter, Gauge, Histogram]


class MetricFamily:
    """One named metric and its per-label-value children.

    With no ``labelnames`` the family has exactly one (unlabeled) child,
    and the registry hands that child out directly; with labels,
    :meth:`labels` creates/returns the child for one label-value tuple.
    """

    __slots__ = ("name", "help", "kind", "labelnames", "_children", "_lock", "_kwargs")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        labelnames: Sequence[str] = (),
        **kwargs: object,
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.kind = kind
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.labelnames = tuple(labelnames)
        self._children: "OrderedDict[Tuple[str, ...], Metric]" = OrderedDict()
        self._lock = threading.Lock()
        self._kwargs = kwargs

    def labels(self, *values: object, **named: object) -> Metric:
        if named:
            if values:
                raise TypeError("pass label values positionally or by name, not both")
            values = tuple(named[name] for name in self.labelnames)
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got {key!r}"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _FACTORIES[self.kind](**self._kwargs)
                    self._children[key] = child
        return child

    def samples(self) -> List[Tuple[Tuple[str, ...], Metric]]:
        with self._lock:
            return list(self._children.items())


class _PullFamily:
    """A scrape-time metric: the callback is the value.

    ``fn`` returns a number (unlabeled) or a mapping of label-value tuples
    to numbers (labeled).  Exceptions in the callback drop the family from
    that scrape instead of failing the whole exposition.
    """

    __slots__ = ("name", "help", "kind", "labelnames", "fn")

    def __init__(
        self,
        name: str,
        help: str,
        kind: str,
        fn: Callable[[], object],
        labelnames: Sequence[str] = (),
    ) -> None:
        self.name = _check_name(name)
        self.help = help
        self.kind = kind
        self.labelnames = tuple(labelnames)
        self.fn = fn

    def values(self) -> List[Tuple[Tuple[str, ...], float]]:
        try:
            result = self.fn()
        except Exception:  # noqa: BLE001 - a broken gauge must not kill /metrics
            return []
        if isinstance(result, Mapping):
            return [
                (tuple(str(part) for part in key) if isinstance(key, tuple) else (str(key),), float(value))
                for key, value in result.items()
            ]
        return [((), float(result))]


class MetricsRegistry:
    """A named collection of metric families, optionally chained to a parent.

    ``render()`` and ``snapshot()`` walk the parent chain first, so a
    per-server registry built over :func:`global_registry` exposes the
    process-wide engine metrics alongside its own; a name registered in
    both scopes resolves to the child's (the more specific owner wins).
    """

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self._parent = parent
        self._lock = threading.Lock()
        self._families: "OrderedDict[str, object]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def _register(self, name: str, kind: str, help: str, labelnames, **kwargs):
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, MetricFamily) or existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as a different kind"
                    )
                if existing.labelnames != tuple(labelnames):
                    raise ValueError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}"
                    )
                family = existing
            else:
                family = MetricFamily(name, help, kind, labelnames, **kwargs)
                self._families[name] = family
        return family if family.labelnames else family.labels()

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> "Counter | MetricFamily":
        """Register (idempotently) a counter; labeled form returns the family."""
        return self._register(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> "Gauge | MetricFamily":
        return self._register(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = LATENCY_BUCKETS,
    ) -> "Histogram | MetricFamily":
        return self._register(name, "histogram", help, labelnames, buckets=buckets)

    def _register_pull(self, name, kind, help, fn, labelnames):
        family = _PullFamily(name, help, kind, fn, labelnames)
        with self._lock:
            self._families[name] = family
        return family

    def counter_function(
        self, name: str, help: str, fn: Callable[[], object],
        labelnames: Sequence[str] = (),
    ) -> _PullFamily:
        """A counter whose value is pulled from ``fn`` at scrape time."""
        return self._register_pull(name, "counter", help, fn, labelnames)

    def gauge_function(
        self, name: str, help: str, fn: Callable[[], object],
        labelnames: Sequence[str] = (),
    ) -> _PullFamily:
        """A gauge whose value is pulled from ``fn`` at scrape time."""
        return self._register_pull(name, "gauge", help, fn, labelnames)

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #
    def _merged_families(self) -> "OrderedDict[str, object]":
        merged: "OrderedDict[str, object]" = OrderedDict()
        if self._parent is not None:
            merged.update(self._parent._merged_families())
        with self._lock:
            merged.update(self._families)
        return merged

    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name, family in self._merged_families().items():
            samples = self._family_samples(family)
            if samples is None:
                continue
            lines.append(f"# HELP {name} {family.help or name}")
            lines.append(f"# TYPE {name} {family.kind}")
            for labels, value in samples:
                if isinstance(value, Histogram):
                    label_prefix = _label_string(family.labelnames, labels)[1:-1]
                    for bound, count in value.bucket_counts():
                        le = f'le="{_format_value(bound)}"'
                        inner = f"{label_prefix},{le}" if label_prefix else le
                        lines.append(f"{name}_bucket{{{inner}}} {count}")
                    suffix = _label_string(family.labelnames, labels)
                    lines.append(f"{name}_sum{suffix} {_format_value(value.sum)}")
                    lines.append(f"{name}_count{suffix} {value.count}")
                else:
                    suffix = _label_string(family.labelnames, labels)
                    lines.append(f"{name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _family_samples(family):
        """Uniform ``[(labels, value-or-Histogram)]`` across family kinds."""
        if isinstance(family, _PullFamily):
            return family.values() or None
        samples = []
        for labels, metric in family.samples():
            if isinstance(metric, Histogram):
                samples.append((labels, metric))
            else:
                samples.append((labels, metric.value))
        return samples or None

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly registry state: one key per sample.

        Counters and gauges map to their value; histograms map to the
        :meth:`Histogram.summary` dict.  Labeled samples key as
        ``name{k="v",...}`` exactly as the text format renders them.
        """
        out: Dict[str, object] = {}
        for name, family in self._merged_families().items():
            samples = self._family_samples(family)
            if samples is None:
                if isinstance(family, _PullFamily):
                    continue
                samples = []
            for labels, value in samples:
                key = name + _label_string(family.labelnames, labels)
                out[key] = value.summary() if isinstance(value, Histogram) else value
        return out


_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-global registry engine-level metrics land on."""
    return _GLOBAL


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Strictly parse a text-format exposition into ``{sample_name: value}``.

    The inverse of :meth:`MetricsRegistry.render`, used by tests and the
    smoke scripts to assert every scrape stays machine-parseable: any
    malformed line raises :class:`ValueError`.  Sample names keep their
    label string verbatim (``name{k="v"}``) so histograms' per-bucket
    samples stay distinct.
    """
    samples: Dict[str, float] = {}
    typed: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"line {lineno}: malformed comment {raw!r}")
            if parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in ("counter", "gauge", "histogram", "summary", "untyped"):
                    raise ValueError(f"line {lineno}: malformed TYPE {raw!r}")
                typed[parts[2]] = parts[3]
            continue
        match = re.match(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$", line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        name, labels, value = match.groups()
        try:
            number = float(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value {value!r}") from exc
        if math.isnan(number):
            raise ValueError(f"line {lineno}: NaN sample {raw!r}")
        samples[name + (labels or "")] = number
    if not typed:
        raise ValueError("no TYPE lines: not a Prometheus exposition")
    return samples

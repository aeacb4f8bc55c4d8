"""Thread-safe metrics registry with Prometheus text exposition.

The registry is the measurement substrate the gateway and the fleet
report into: counters for volumes, callback gauges for levels,
fixed-bucket histograms for latencies.  Counters and histograms
optionally carry a labels dimension (``outcome``, ``replica``,
``policy``, ``stage``, ...) so one series name covers a family of label
sets, exactly like Prometheus client libraries.

Naming convention (applies repo-wide; see README "Observability"):

- every series is ``repro_<component>_<what>[_total|_seconds]`` —
  component is the serving layer that owns the number (``gateway``,
  ``fleet``);
- counters end in ``_total``, durations are base-unit ``_seconds``;
- the shared per-stage latency histogram is
  ``repro_stage_latency_seconds{component,stage}`` so one query shape
  covers the whole request path.

Everything here is stdlib-only.  ``render_exposition`` merges any number
of per-component registries into one valid Prometheus text page
(format version 0.0.4), and ``parse_exposition`` reads one back — used
by ``repro top``, the CI smoke assertions, and the tests.
"""

from __future__ import annotations

import math
import re
import threading

from repro.errors import ReproError

__all__ = [
    "TelemetryError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "render_exposition",
    "parse_exposition",
    "histogram_quantile",
]


class TelemetryError(ReproError, ValueError):
    """A metric was declared or used inconsistently."""


#: Fixed latency buckets (seconds) shared by every histogram: from 10 µs,
#: so the sub-millisecond stages the serving path spends its time in get
#: buckets of their own, to coarse tail coverage up to 10s for
#: pathological requests.
DEFAULT_LATENCY_BUCKETS = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025,
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 2**53:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{_escape_label_value(str(value))}"'
                     for key, value in labels.items())
    return "{" + inner + "}"


class Metric:
    """Base of one metric family: a name, a help line, a label schema.

    Each distinct label-value combination is a *child* holding its own
    value; a label-less metric has exactly one child (the empty tuple).
    All mutation and snapshotting happens under a per-family lock, so
    metrics are safe to update from the event loop, the fleet collector
    thread, and producer threads at once.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str,
                 labelnames: tuple[str, ...] = ()) -> None:
        if not _NAME_RE.match(name):
            raise TelemetryError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label) or label == "le":
                raise TelemetryError(
                    f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}  # guarded by _lock

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise TelemetryError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[name]) for name in self.labelnames)

    def _labels_of(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.labelnames, key))

    def samples(self) -> list[tuple[str, dict, float]]:
        """Flat exposition samples: ``(sample_name, labels, value)``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.name!r}, "
                f"labels={self.labelnames})")


class Counter(Metric):
    """Monotonically-increasing count (requests, errors, sheds)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))

    def samples(self) -> list[tuple[str, dict, float]]:
        with self._lock:
            children = dict(self._children)
        return [(self.name, self._labels_of(key), float(value))
                for key, value in sorted(children.items())]


class Gauge(Metric):
    """A level read at collection time (in-flight requests, replica count).

    The ``callback`` is evaluated on every read — the idiomatic way to
    expose a value that already lives somewhere (queue depth, pool size)
    without update churn.  A gauge carries no labels.
    """

    kind = "gauge"

    def __init__(self, name: str, help: str, *, callback) -> None:
        super().__init__(name, help)
        self.callback = callback

    def value(self) -> float:
        return float(self.callback())

    def samples(self) -> list[tuple[str, dict, float]]:
        return [(self.name, {}, self.value())]


class _HistogramChild:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.counts = [0] * num_buckets  # per-bucket (non-cumulative)
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket latency histogram (Prometheus-style cumulative).

    Buckets are :data:`DEFAULT_LATENCY_BUCKETS`, upper bounds in seconds;
    an implicit ``+Inf`` bucket catches the tail.  ``observe`` is O(log buckets) and lock-cheap —
    the per-request cost the telemetry-overhead gate audits.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str,
                 labelnames: tuple[str, ...] = ()) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = DEFAULT_LATENCY_BUCKETS

    def _bucket_index(self, value: float) -> int:
        from bisect import bisect_left
        return bisect_left(self.buckets, value)

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        index = self._bucket_index(value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(
                    len(self.buckets) + 1)
            child.counts[index] += 1
            child.sum += value
            child.count += 1

    def snapshot(self, **labels) -> dict:
        """``{"buckets": [(le, cumulative), ...], "sum": s, "count": n}``."""
        key = self._key(labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                counts, total, count = [0] * (len(self.buckets) + 1), 0.0, 0
            else:
                counts = list(child.counts)
                total, count = child.sum, child.count
        cumulative = []
        running = 0
        for bound, n in zip(self.buckets + (math.inf,), counts):
            running += n
            cumulative.append((bound, running))
        return {"buckets": cumulative, "sum": total, "count": count}

    def samples(self) -> list[tuple[str, dict, float]]:
        with self._lock:
            children = {key: (list(child.counts), child.sum, child.count)
                        for key, child in self._children.items()}
        out: list[tuple[str, dict, float]] = []
        for key in sorted(children):
            counts, total, count = children[key]
            labels = self._labels_of(key)
            running = 0
            for bound, n in zip(self.buckets + (math.inf,), counts):
                running += n
                out.append((f"{self.name}_bucket",
                            {**labels, "le": _format_value(bound)},
                            float(running)))
            out.append((f"{self.name}_sum", dict(labels), float(total)))
            out.append((f"{self.name}_count", dict(labels), float(count)))
        return out


class MetricsRegistry:
    """Get-or-create home of one component's metric families.

    ``counter``/``gauge``/``histogram`` return the existing family when
    the name was already registered (and raise on a kind or label-schema
    mismatch), so every call site can declare the metric it needs
    without coordinating creation order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}  # guarded by _lock

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        labelnames = tuple(kwargs.get("labelnames", ()))
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TelemetryError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                if existing.labelnames != labelnames:
                    raise TelemetryError(
                        f"metric {name!r} already registered with labels "
                        f"{existing.labelnames}, not {labelnames}")
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str,
                labelnames: tuple[str, ...] = ()) -> Counter:
        return self._get_or_create(Counter, name, help,
                                   labelnames=labelnames)

    def gauge(self, name: str, help: str, *, callback) -> Gauge:
        return self._get_or_create(Gauge, name, help, callback=callback)

    def histogram(self, name: str, help: str,
                  labelnames: tuple[str, ...] = ()) -> Histogram:
        return self._get_or_create(Histogram, name, help,
                                   labelnames=labelnames)

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        with self._lock:
            return list(self._metrics.values())

    def render(self) -> str:
        return render_exposition(self)

    def collect(self) -> dict:
        """JSON-ready snapshot: ``{name: {kind, help, samples}}``."""
        out = {}
        for metric in self.metrics():
            out[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "samples": [{"name": name, "labels": labels, "value": value}
                            for name, labels, value in metric.samples()],
            }
        return out

    def __repr__(self) -> str:
        return f"MetricsRegistry({sorted(self._metrics)})"


def render_exposition(*registries: MetricsRegistry) -> str:
    """Merge registries into one Prometheus text page (version 0.0.4).

    Families sharing a name across registries (the per-stage histogram
    lives in every component's registry) are emitted once; they must
    agree on kind and label schema, and their children must not collide.
    """
    families: dict[str, list[Metric]] = {}
    order: list[str] = []
    for registry in registries:
        for metric in registry.metrics():
            if metric.name not in families:
                families[metric.name] = []
                order.append(metric.name)
            else:
                first = families[metric.name][0]
                if (first.kind != metric.kind
                        or first.labelnames != metric.labelnames):
                    raise TelemetryError(
                        f"metric {metric.name!r} registered with "
                        f"conflicting schemas across registries")
            families[metric.name].append(metric)
    lines: list[str] = []
    for name in order:
        members = families[name]
        first = members[0]
        help_text = first.help.replace("\\", r"\\").replace("\n", r"\n")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {first.kind}")
        seen: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
        for metric in members:
            for sample_name, labels, value in metric.samples():
                identity = (sample_name, tuple(sorted(labels.items())))
                if identity in seen:
                    raise TelemetryError(
                        f"duplicate sample {sample_name}{labels} across "
                        "registries")
                seen.add(identity)
                lines.append(f"{sample_name}{_format_labels(labels)} "
                             f"{_format_value(value)}")
    return "\n".join(lines) + "\n"


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)\s*$")
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _unescape_label_value(value: str) -> str:
    return (value.replace(r"\"", '"').replace(r"\n", "\n")
            .replace(r"\\", "\\"))


def parse_exposition(text: str) -> dict[str, list[tuple[dict, float]]]:
    """Parse a text exposition page into ``{sample_name: [(labels, v)]}``.

    Sample names include the histogram suffixes (``_bucket``/``_sum``/
    ``_count``).  Raises :class:`TelemetryError` on a malformed line —
    the CI smoke job uses this as its format assertion.
    """
    samples: dict[str, list[tuple[dict, float]]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise TelemetryError(f"malformed exposition line: {line!r}")
        labels = {}
        raw = match.group("labels")
        if raw:
            for key, value in _LABEL_PAIR_RE.findall(raw):
                labels[key] = _unescape_label_value(value)
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf")
                          .replace("-Inf", "-inf"))
        except ValueError:
            raise TelemetryError(
                f"malformed sample value {value_text!r} in line {line!r}")
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


def histogram_quantile(buckets: list[tuple[float, float]],
                       q: float) -> float | None:
    """Estimate quantile ``q`` from cumulative ``(le, count)`` buckets.

    Linear interpolation inside the winning bucket, like PromQL's
    ``histogram_quantile``.  Returns ``None`` on an empty histogram.
    The last bucket may be ``+Inf``; a quantile landing there returns
    the highest finite bound (the estimate cannot exceed the data).
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q}")
    buckets = sorted(buckets)
    if not buckets or buckets[-1][1] <= 0:
        return None
    total = buckets[-1][1]
    rank = q * total
    previous_bound, previous_count = 0.0, 0.0
    for bound, count in buckets:
        if count >= rank:
            if math.isinf(bound):
                return previous_bound
            if count == previous_count:
                return bound
            fraction = (rank - previous_count) / (count - previous_count)
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, count
    return previous_bound

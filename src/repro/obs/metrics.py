"""Thread-safe metric families: counters, gauges, histograms.

The model follows the Prometheus client conventions without the
dependency: a :class:`MetricsRegistry` holds named *families*, a family
with label names vends per-label-set *children* on demand, and an
unlabeled family acts as its own single child (``family.inc()`` just
works).  All mutation is lock-protected, so request threads, job
workers, and the watchdog can hit the same child concurrently.

Two usage modes coexist:

- **direct instruments** — every counter: the code path where the
  event happens increments a child it holds (``self._c_hits.inc()``),
  and ``/stats`` reads the same child back, so a count never drops
  when the object that caused it goes.
- **collectors** — callables registered with
  :meth:`MetricsRegistry.register_collector` that run at scrape time
  and :meth:`Gauge.set` gauges over live objects (resident bytes,
  quarantined entries).  Collectors feed gauges only.

Components built without a registry (a standalone
:class:`~repro.serve.jobs.JobManager`, :class:`~repro.serve.stats.ServeStats`
or :class:`~repro.serve.residency.Residency`) register their families
on a private :class:`MetricsRegistry`.
"""

from __future__ import annotations

import bisect
import re
import threading
from collections.abc import Callable, Iterable
from typing import Any

from repro.errors import ReproError

#: Prometheus metric / label name grammar (colons are reserved for
#: recording rules, so this package does not emit them).
_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds) — tuned for request latencies
#: from sub-millisecond warm MVMs to multi-second cold shard loads.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_TYPE_COUNTER = "counter"
_TYPE_GAUGE = "gauge"
_TYPE_HISTOGRAM = "histogram"


def _check_name(name: str, what: str = "metric") -> str:
    if not _NAME_RE.match(name):
        raise ReproError(
            f"invalid {what} name {name!r}: must match {_NAME_RE.pattern}"
        )
    return name


class Counter:
    """A monotonically increasing count."""

    metric_type = _TYPE_COUNTER

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ReproError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> list[tuple[str, dict, float]]:
        return [("", {}, self.value)]


class Gauge:
    """A value that can go up and down."""

    metric_type = _TYPE_GAUGE

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
        with self._lock:
            return self._value

    def samples(self) -> list[tuple[str, dict, float]]:
        return [("", {}, self.value)]


class Histogram:
    """Cumulative-bucket histogram of observations (seconds, usually)."""

    metric_type = _TYPE_HISTOGRAM

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ReproError("histogram needs at least one bucket bound")
        self._bounds = tuple(bounds)
        self._lock = threading.Lock()
        self._counts = [0] * len(self._bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._sum += value
            self._count += 1
            # Per-bucket (non-cumulative) tally; samples() cumulates.
            i = bisect.bisect_left(self._bounds, value)
            if i < len(self._bounds):
                self._counts[i] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def samples(self) -> list[tuple[str, dict, float]]:
        """Exposition rows: cumulative ``_bucket`` series, ``_sum``, ``_count``."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc_sum = self._sum
        out: list[tuple[str, dict, float]] = []
        cumulative = 0
        for bound, count in zip(self._bounds, counts, strict=True):
            cumulative += count
            out.append(("_bucket", {"le": _format_bound(bound)}, cumulative))
        out.append(("_bucket", {"le": "+Inf"}, total))
        out.append(("_sum", {}, acc_sum))
        out.append(("_count", {}, total))
        return out


def _format_bound(bound: float) -> str:
    """``0.05`` not ``0.050000000000000003`` — repr is already shortest."""
    text = repr(bound)
    return text[:-2] if text.endswith(".0") else text


class Family:
    """One named metric family: shared help/type, children per label set."""

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        label_names: tuple[str, ...],
        child_factory: Callable[[], Counter | Gauge | Histogram],
    ) -> None:
        self.name = _check_name(name)
        self.help = help_text
        self.metric_type = metric_type
        self.label_names = label_names
        for label in label_names:
            _check_name(label, what="label")
        self._child_factory = child_factory
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        #: the implicit child of an unlabeled family.
        self._default = child_factory() if not label_names else None

    def labels(self, **labels: object) -> Any:
        """The child :class:`Counter`/:class:`Gauge`/:class:`Histogram`
        for one label set (created on first use).

        Typed ``Any`` on purpose: strict-mypy call sites hold one
        concrete instrument kind per family and would otherwise fight
        the three-way union on every ``inc``/``observe``.
        """
        if set(labels) != set(self.label_names):
            raise ReproError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._child_factory()
            return child

    def _direct(self) -> Any:
        if self._default is None:
            raise ReproError(
                f"metric {self.name!r} is labeled "
                f"{self.label_names}; call .labels(...) first"
            )
        return self._default

    # Unlabeled families proxy the child API so call sites stay short.

    def inc(self, amount: float = 1.0) -> None:
        self._direct().inc(amount)

    def set(self, value: float) -> None:
        self._direct().set(value)

    def observe(self, value: float) -> None:
        self._direct().observe(value)

    @property
    def value(self) -> float:
        child = self._direct()
        if isinstance(child, Histogram):
            raise ReproError(f"histogram {self.name!r} has no scalar value")
        return child.value

    def collect(self) -> list[tuple[str, dict[str, str], float]]:
        """Every sample row of the family: ``(suffix, labels, value)``."""
        rows: list[tuple[str, dict[str, str], float]] = []
        if self._default is not None:
            for suffix, extra, value in self._default.samples():
                rows.append((suffix, dict(extra), value))
            return rows
        with self._lock:
            children = list(self._children.items())
        for key, child in sorted(children):
            base = dict(zip(self.label_names, key, strict=True))
            for suffix, extra, value in child.samples():
                rows.append((suffix, {**base, **extra}, value))
        return rows


class MetricsRegistry:
    """A named collection of metric families plus scrape-time collectors.

    Family constructors are idempotent: asking for an existing name
    with the same type and labels returns the existing family, so
    independent components can share one registry without coordinating
    construction order.  A name/type/label mismatch is a typed error —
    two meanings for one metric name is exactly the bug a registry
    exists to prevent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, Family] = {}
        self._collectors: list[Callable[[], None]] = []

    def _family(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        label_names: tuple[str, ...],
        child_factory: Callable[[], Counter | Gauge | Histogram],
    ) -> Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    existing.metric_type != metric_type
                    or existing.label_names != label_names
                ):
                    raise ReproError(
                        f"metric {name!r} already registered as "
                        f"{existing.metric_type} with labels "
                        f"{existing.label_names}"
                    )
                return existing
            family = Family(
                name, help_text, metric_type, label_names, child_factory
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> Family:
        return self._family(
            name, help_text, _TYPE_COUNTER, tuple(labels), Counter
        )

    def gauge(
        self, name: str, help_text: str, labels: Iterable[str] = ()
    ) -> Family:
        return self._family(name, help_text, _TYPE_GAUGE, tuple(labels), Gauge)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Family:
        bounds = tuple(buckets)
        return self._family(
            name,
            help_text,
            _TYPE_HISTOGRAM,
            tuple(labels),
            lambda: Histogram(bounds),
        )

    def register_collector(self, collector: Callable[[], None]) -> None:
        """Run ``collector()`` before every scrape to refresh fed values."""
        with self._lock:
            self._collectors.append(collector)

    def families(self) -> list[Family]:
        """Registered families in name order (collectors already run)."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector()
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

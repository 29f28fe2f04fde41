"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry is deliberately small and allocation-light: a metric is a
plain mutable object looked up once at instrumentation time and mutated
with integer/float arithmetic on the hot path.  Nothing here imports the
engine — the engine owns an :class:`EngineMetrics` bundle (created only
under ``collect_metrics=True``) and *samples* the cheap always-on
counters that already live on nodes, routers, the sharing layer and the
view catalog into gauges at snapshot time, so the maintenance hot path
pays instrumentation cost only for the handful of wall-clock timings the
batch pipeline records per batch.

Snapshot format
---------------
:meth:`MetricsRegistry.snapshot` returns a JSON-ready dict::

    {"repro_batches_total": {"type": "counter", "help": ..., "value": 7},
     "repro_batch_seconds": {"type": "histogram", "help": ...,
                             "buckets": [[0.001, 3], [0.0025, 6], ...],
                             "sum": 0.0123, "count": 7},
     ...}

Histogram buckets are cumulative (Prometheus ``le`` semantics) and the
rendering lives in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from typing import Callable

#: default wall-clock buckets (seconds) — spans sub-millisecond columnar
#: batches through multi-second populate storms
LATENCY_BUCKETS = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> dict:
        return {"type": "counter", "help": self.help, "value": self.value}


class Gauge:
    """A sampled value, set at snapshot time from live engine state."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def as_dict(self) -> dict:
        return {"type": "gauge", "help": self.help, "value": self.value}


class Histogram:
    """Fixed-bucket histogram with a sum and a count.

    Bucket counts are stored non-cumulatively (one integer add per
    observation, no bisect — the bound list is short and observations
    cluster in the low buckets) and cumulated only when snapshotted.
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")

    def __init__(self, name: str, help: str, bounds: tuple = LATENCY_BUCKETS):
        self.name = name
        self.help = help
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # trailing +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def as_dict(self) -> dict:
        cumulative = []
        running = 0
        for bound, count in zip(self.bounds, self.counts):
            running += count
            cumulative.append([bound, running])
        return {
            "type": "histogram",
            "help": self.help,
            "buckets": cumulative,
            "sum": self.sum,
            "count": self.count,
        }

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (0 ≤ q ≤ 1) from the bucket counts.

        Prometheus ``histogram_quantile`` semantics: linear interpolation
        inside the bucket the rank falls into, clamped to the highest
        finite bound when the rank lands in the ``+Inf`` bucket.  Returns
        0.0 for an empty histogram."""
        cumulative = []
        running = 0
        for count in self.counts[:-1]:
            running += count
            cumulative.append(running)
        return quantile_from_buckets(self.bounds, cumulative, self.count, q)


def quantile_from_buckets(
    bounds, cumulative, total: int, q: float
) -> float:
    """Quantile estimate from cumulative bucket counts (``le`` semantics).

    *bounds* and *cumulative* run in parallel over the finite buckets;
    *total* includes the trailing ``+Inf`` bucket.  Shared by live
    :meth:`Histogram.quantile` and snapshot-dict rendering (the table
    export), so both agree on interpolation."""
    if total <= 0 or not bounds:
        return 0.0
    rank = q * total
    previous_bound = 0.0
    previous_cum = 0
    for bound, cum in zip(bounds, cumulative):
        if cum >= rank:
            bucket_count = cum - previous_cum
            if bucket_count <= 0:
                return float(bound)
            fraction = (rank - previous_cum) / bucket_count
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cum
    # the rank falls in the +Inf bucket: clamp to the highest finite bound
    return float(bounds[-1])


class MetricsRegistry:
    """Named metrics plus snapshot-time collectors.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent per
    name, so instrument bundles can be rebuilt over one registry).
    Collectors are callables run at the top of :meth:`snapshot`; the
    engine registers one per live subsystem to refresh gauges from the
    always-on counters it samples.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._collectors: list[Callable[[], None]] = []

    def counter(self, name: str, help: str) -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str) -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str, bounds: tuple = LATENCY_BUCKETS
    ) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = Histogram(name, help, bounds)
            self._metrics[name] = metric
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
        return metric

    def _get_or_create(self, cls, name: str, help: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif type(metric) is not cls:
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
        return metric

    def add_collector(self, collector: Callable[[], None]) -> None:
        self._collectors.append(collector)

    def snapshot(self) -> dict[str, dict]:
        """Run collectors, then return every metric as a JSON-ready dict."""
        for collector in self._collectors:
            collector()
        return {
            name: metric.as_dict()
            for name, metric in sorted(self._metrics.items())
        }


class EngineMetrics:
    """The instrument bundle one engine threads through its batch pipeline.

    Created only under ``collect_metrics=True``; every hot-path site
    guards on ``engine.metrics is not None``, so the flag-off engine runs
    the exact uninstrumented path.  The wall-clock instruments here are
    the only metrics that add work per batch — everything else is sampled
    into gauges at snapshot time by the collectors the engine registers.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        counter = self.registry.counter
        histogram = self.registry.histogram
        # batch pipeline phases
        self.batches = counter(
            "repro_batches_total", "Consolidated batches propagated"
        )
        self.batch_raw_events = counter(
            "repro_batch_raw_events_total",
            "Elementary events consumed by propagated batches",
        )
        self.batch_net_records = counter(
            "repro_batch_net_records_total",
            "Net per-entity records after coalescing",
        )
        self.events = counter(
            "repro_events_total", "Per-event (unbatched) dispatches"
        )
        self.coalesce_seconds = histogram(
            "repro_batch_coalesce_seconds",
            "Batch coalesce phase (event buffer to net records)",
        )
        self.dispatch_seconds = histogram(
            "repro_batch_dispatch_seconds",
            "Batch dispatch phase (router and node-graph propagation)",
        )
        self.merge_seconds = histogram(
            "repro_batch_merge_seconds",
            "Batch merge phase (production net deltas and callbacks)",
        )
        self.batch_seconds = histogram(
            "repro_batch_seconds",
            "End-to-end batch latency (coalesce through callbacks)",
        )
        self.event_seconds = histogram(
            "repro_event_dispatch_seconds",
            "Per-event dispatch latency (unbatched path)",
        )
        # view registration: network build, then populate (initial evaluation)
        self.register_build_seconds = histogram(
            "repro_register_build_seconds",
            "View registration: network build phase",
        )
        self.register_populate_seconds = histogram(
            "repro_register_populate_seconds",
            "View registration: populate phase (initial evaluation)",
        )
        self.populate_rows = counter(
            "repro_populate_rows_total",
            "Rows populate handed out (replays of shared state)",
        )

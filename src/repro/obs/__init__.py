"""Engine-wide observability: metrics, trace spans, cost attribution.

Three modules, none of which imports the engine (the glue lives at the
instrumentation sites, so this package stays dependency-free):

* :mod:`~repro.obs.metrics` — counters, gauges and fixed-bucket
  histograms behind a :class:`~repro.obs.metrics.MetricsRegistry`, plus
  the :class:`~repro.obs.metrics.EngineMetrics` instrument bundle the
  engine threads through its batch pipeline;
* :mod:`~repro.obs.tracing` — per-batch span trees
  (:class:`~repro.obs.tracing.BatchTracer`) recording one batch's path
  router → shared layer → node graph → productions with per-node wall
  time and delta sizes;
* :mod:`~repro.obs.export` — Prometheus-text and JSON renderings of a
  registry snapshot.
"""

from .export import render_json, render_prometheus
from .metrics import Counter, EngineMetrics, Gauge, Histogram, MetricsRegistry
from .tracing import BatchTracer, Span

__all__ = [
    "BatchTracer",
    "Counter",
    "EngineMetrics",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "render_json",
    "render_prometheus",
]

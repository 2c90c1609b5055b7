"""``repro.obs`` — structured tracing and metrics for the online engine.

The subsystem has four pieces, all zero-cost when disabled (the engine's
default is the inert :data:`NULL_OBS`):

* :class:`Tracer` — nested spans over the whole execution path
  (run → batch → execution unit → operator ``process`` →
  bootstrap / range-check / recovery-replay);
* the event bus and sinks — JSON-lines event log (``--trace-out``),
  in-memory sink for tests, and a Chrome trace-event exporter whose
  output loads in Perfetto (``iolap trace --format chrome``);
* :class:`MetricsRegistry` — counters/gauges/histograms for the paper's
  signals (|U_i| ND-set sizes, variation-range widths, per-entry state
  bytes, recovery depth, per-operator row throughput), sampled into the
  trace after every batch;
* :class:`ConvergenceReporter` and ``iolap report`` — the live
  estimate ± CI view and the post-hoc trace summary.

See DESIGN.md §9 for the span taxonomy and the event schema.
"""

from repro.obs.chrome import to_chrome, write_chrome
from repro.obs.convergence import ConvergenceReporter
from repro.obs.costmodel import CostModel
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_SCHEMA_VERSION,
    read_events,
    validate_event,
    validate_events,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    metric_key,
)
from repro.obs.export import (
    MetricsHTTPServer,
    TextfileExporter,
    TopView,
    parse_listen,
    parse_prometheus_text,
    prometheus_text,
)
from repro.obs.profile import (
    ContinuousProfiler,
    ProfileStore,
    QueryProfile,
    plan_signature,
)
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    TraceSummary,
    render_report,
    validate_report,
)
from repro.obs.session import NULL_OBS, MetricsObservability, Observability
from repro.obs.sinks import EventBus, EventSink, JsonlSink, MemorySink
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_VERSION",
    "NULL_OBS",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "REPORT_SCHEMA_VERSION",
    "ContinuousProfiler",
    "ConvergenceReporter",
    "CostModel",
    "Counter",
    "EventBus",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricsHTTPServer",
    "MetricsObservability",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Observability",
    "ProfileStore",
    "QueryProfile",
    "Span",
    "TextfileExporter",
    "TopView",
    "TraceSummary",
    "Tracer",
    "metric_key",
    "parse_listen",
    "parse_prometheus_text",
    "plan_signature",
    "prometheus_text",
    "read_events",
    "render_report",
    "to_chrome",
    "validate_event",
    "validate_events",
    "validate_report",
    "write_chrome",
]

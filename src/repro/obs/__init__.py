"""Unified observability: metrics registry, tracing spans, exporters.

``repro.obs`` is the instrumentation spine of the reproduction. One
trial carries one :class:`Observability` context — a
:class:`MetricsRegistry` for the paper's counting claims (§3.1 alert and
report counters, §2.2.2 RTT distributions) plus a stack of hierarchical
spans recorded into the simulation's trace stream — and the experiment
runner merges per-trial registry snapshots order-insensitively, so a
parallel Monte-Carlo run reduces to exactly the serial run's totals.

Everything is stdlib-only and RNG-free: attaching observability to a
pipeline never changes a simulated result (bit-identical, asserted in
tests). Exporters serialize to Prometheus text, Chrome/Perfetto trace
JSON, and JSONL; see ``docs/OBSERVABILITY.md`` for schemas.

Paper section: §3.1, §2.2.2, §4 (the quantities the evaluation counts)
"""

from repro.obs.config import ObserveConfig
from repro.obs.live import (
    SpanRing,
    TelemetryServer,
    TraceContext,
    new_trace_id,
    process_span_namespace,
    process_trace_context,
    queue_liveness_snapshot,
    set_process_span_namespace,
    set_process_trace_context,
    span_event_lines,
)
from repro.obs.export import (
    chrome_trace,
    events_jsonl_lines,
    prometheus_text,
    write_chrome_trace,
    write_events_jsonl,
    write_prometheus,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    format_series_key,
    linear_buckets,
    merge_snapshots,
)
from repro.obs.spans import (
    ACTIVE_SPAN_ATTR,
    SPAN_BEGIN,
    SPAN_END,
    Observability,
    active_span_of,
    tag_active_span,
)

__all__ = [
    "ACTIVE_SPAN_ATTR",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ObserveConfig",
    "SPAN_BEGIN",
    "SPAN_END",
    "SpanRing",
    "TelemetryServer",
    "TraceContext",
    "active_span_of",
    "chrome_trace",
    "events_jsonl_lines",
    "exponential_buckets",
    "format_series_key",
    "linear_buckets",
    "merge_snapshots",
    "new_trace_id",
    "process_span_namespace",
    "process_trace_context",
    "prometheus_text",
    "queue_liveness_snapshot",
    "set_process_span_namespace",
    "set_process_trace_context",
    "span_event_lines",
    "tag_active_span",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_prometheus",
]

"""Hierarchical tracing spans over the simulation's dual timeline.

A span is one named region of work — a trial, a pipeline phase, a
runner task — carrying *both* clocks: wall time (``perf_counter``, for
Chrome/Perfetto timelines and overhead analysis) and simulation time
(engine cycles, for correlating with protocol events). Spans nest; the
innermost open span names "where we were", which is what the experiment
runner attaches to a :class:`~repro.experiments.runner.TrialError` when
a trial dies mid-flight.

Span begin/end markers are recorded into the existing
:class:`repro.sim.trace.TraceRecorder` stream under a unified schema —
kinds ``span.begin`` / ``span.end`` with ``span``/``id``/``parent``/
``depth`` fields — so protocol events (deliveries, alerts, revocations)
and timing structure interleave in one exportable event log.

Span ids are plain integers (``1, 2, ...``) in a standalone process.
When a process-level namespace is set
(:func:`repro.obs.live.set_process_span_namespace`, as queue workers do
with their worker id) they become strings ``"w0:1", "w0:2", ...`` —
still deterministic per process, but globally unique across a fleet, so
stitched multi-process traces never collide. An ambient
:class:`repro.obs.live.TraceContext` additionally stamps root spans
with ``trace_id``/``remote_parent`` attrs for cross-process stitching.

Nothing here draws randomness; an :class:`Observability` attached to a
pipeline leaves every simulated result bit-identical (asserted in
``tests/core/test_pipeline_observe.py``).

Paper section: §4 (the evaluation phases the spans delimit)
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

from repro.obs.config import ObserveConfig
from repro.obs.metrics import MetricsRegistry
from repro.sim.trace import TraceRecorder

#: A span id: a plain int, or ``"{namespace}:{n}"`` under a namespace.
SpanId = Union[int, str]

#: Attribute set on an exception by the innermost failing span/phase, so
#: worker-side error capture can report where a trial died. First tagger
#: wins — the innermost region.
ACTIVE_SPAN_ATTR = "_repro_active_span"

#: TraceRecorder event kinds of the unified span schema.
SPAN_BEGIN = "span.begin"
SPAN_END = "span.end"


def tag_active_span(exc: BaseException, name: str) -> None:
    """Attach ``name`` to ``exc`` unless an inner region already did."""
    if not hasattr(exc, ACTIVE_SPAN_ATTR):
        setattr(exc, ACTIVE_SPAN_ATTR, name)


def active_span_of(exc: BaseException) -> str:
    """The innermost span/phase name tagged onto ``exc`` ('' if none)."""
    return getattr(exc, ACTIVE_SPAN_ATTR, "")


@dataclass
class _OpenSpan:
    """Book-keeping for a span that has begun but not ended."""

    name: str
    span_id: SpanId
    parent_id: SpanId
    depth: int
    t0_wall: float
    t0_sim: float
    attrs: Dict[str, Any]


class Observability:
    """Per-trial observability context: one registry plus a span stack.

    Args:
        config: collection switches (metrics/histograms); defaults on.
        registry: the metrics registry to use (fresh one by default).
        trace: recorder span begin/end events are appended to; by
            default a disabled recorder (spans still complete and are
            exportable — only the event stream is suppressed).
        sim_clock: zero-argument callable returning current simulation
            time; the pipeline passes ``engine.now``.
        namespace: span-id prefix; defaults to the process-level
            namespace (:func:`repro.obs.live.process_span_namespace`).
            When set, span ids are strings ``"{namespace}:{n}"`` —
            globally unique across a worker fleet.
        trace_context: ambient cross-process trace reference; defaults
            to :func:`repro.obs.live.process_trace_context`. When set,
            root spans carry ``trace_id`` (and ``remote_parent`` when
            the context has a parent) in their attrs.

    Completed spans accumulate in :attr:`spans` as plain dicts (wall
    offsets relative to this object's creation; the absolute anchor is
    exported as ``wall0_epoch`` by :meth:`telemetry`), ready for the
    Chrome trace exporter and ``tools/stitch_trace.py``.
    """

    def __init__(
        self,
        config: Optional[ObserveConfig] = None,
        *,
        registry: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        sim_clock: Optional[Callable[[], float]] = None,
        namespace: Optional[str] = None,
        trace_context: Optional[Any] = None,
    ) -> None:
        from repro.obs import live  # local import: live builds on spans

        self.config = config if config is not None else ObserveConfig()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.sim_clock = sim_clock if sim_clock is not None else (lambda: 0.0)
        self.namespace = (
            namespace if namespace is not None else live.process_span_namespace()
        )
        self.trace_context = (
            trace_context
            if trace_context is not None
            else live.process_trace_context()
        )
        self.spans: List[Dict[str, Any]] = []
        self._wall0 = time.perf_counter()
        self._wall0_epoch = time.time()
        self._stack: List[_OpenSpan] = []
        # Namespaced serials are shared process-wide so a worker running
        # many trials never reuses an id; plain ints restart per trial.
        self._ids = (
            live.namespace_counter(self.namespace)
            if self.namespace
            else itertools.count(1)
        )

    def _next_id(self) -> SpanId:
        """The next span id: plain int, or namespaced string."""
        n = next(self._ids)
        return f"{self.namespace}:{n}" if self.namespace else n

    @property
    def current_span(self) -> Optional[str]:
        """Name of the innermost open span, or None outside any span."""
        return self._stack[-1].name if self._stack else None

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Open a span for the duration of the ``with`` block.

        Records ``span.begin``/``span.end`` trace events (at simulation
        time), appends the completed span to :attr:`spans`, and — when
        the block raises — tags the exception with this span's name
        unless an inner span already claimed it.
        """
        span_attrs = dict(attrs)
        if not self._stack and self.trace_context is not None:
            span_attrs.setdefault("trace_id", self.trace_context.trace_id)
            if self.trace_context.parent_span_id:
                span_attrs.setdefault(
                    "remote_parent", self.trace_context.parent_span_id
                )
        open_span = _OpenSpan(
            name=name,
            span_id=self._next_id(),
            parent_id=self._stack[-1].span_id if self._stack else 0,
            depth=len(self._stack),
            t0_wall=time.perf_counter(),
            t0_sim=self.sim_clock(),
            attrs=span_attrs,
        )
        self.trace.record(
            open_span.t0_sim,
            SPAN_BEGIN,
            span=name,
            id=open_span.span_id,
            parent=open_span.parent_id,
            depth=open_span.depth,
            **open_span.attrs,
        )
        self._stack.append(open_span)
        try:
            yield
        except BaseException as exc:
            tag_active_span(exc, name)
            raise
        finally:
            self._stack.pop()
            t1_wall = time.perf_counter()
            t1_sim = self.sim_clock()
            self.trace.record(
                t1_sim,
                SPAN_END,
                span=name,
                id=open_span.span_id,
                parent=open_span.parent_id,
                depth=open_span.depth,
                wall_s=t1_wall - open_span.t0_wall,
            )
            self.spans.append(
                {
                    "name": name,
                    "id": open_span.span_id,
                    "parent": open_span.parent_id,
                    "depth": open_span.depth,
                    "t0_wall_s": open_span.t0_wall - self._wall0,
                    "dur_wall_s": t1_wall - open_span.t0_wall,
                    "t0_sim": open_span.t0_sim,
                    "t1_sim": t1_sim,
                    "attrs": open_span.attrs,
                }
            )

    def telemetry(self) -> Dict[str, Any]:
        """Registry snapshot plus completed spans, as one JSON-ready dict.

        Under a namespace or trace context the dict additionally carries
        ``process`` (the namespace), ``trace`` (the serialized
        :class:`~repro.obs.live.TraceContext`), and ``wall0_epoch`` (the
        absolute wall-clock anchor of the spans' relative offsets) — the
        fields cross-process stitching needs. Standalone telemetry keeps
        the original two-key shape.
        """
        out: Dict[str, Any] = {
            "registry": self.registry.snapshot(),
            "spans": [dict(span) for span in self.spans],
        }
        if self.namespace is not None:
            out["process"] = self.namespace
            out["wall0_epoch"] = self._wall0_epoch
        if self.trace_context is not None:
            out["trace"] = self.trace_context.to_dict()
            out.setdefault("wall0_epoch", self._wall0_epoch)
        return out

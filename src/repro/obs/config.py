"""Observability feature switch (``PipelineConfig.observe``).

``observe=None`` — the default everywhere — means *nothing is
recorded or exported*: the pipeline's span tree still times its phases
(spans are its only timer, so they cannot be switched off), but no
event reaches the trace stream — no span marker and no protocol event
(probe, alert, revocation, drop, delivery), so ``pipeline.trace`` stays
empty — and nothing reaches a metrics registry. An
:class:`ObserveConfig` instance turns collection on: the trace records
the full protocol stream, the registry collects the end-of-trial
counters and the ``rtt_cycles`` histograms, and its one switch selects
what the exported telemetry carries. Because collection never touches
an RNG, results stay bit-identical either way (asserted in
``tests/core/test_pipeline_observe.py``).

The config is a frozen dataclass of plain scalars, so it is hashable
and picklable (parallel workers).

Paper section: §4 (what the evaluation instruments)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ObserveConfig:
    """What an observed pipeline run exports.

    Spans (``trial`` and its ``phase:*`` children) are always recorded;
    an observed run also writes their begin/end events into the trace
    stream, flushes its counters (network, fault injector, batch core,
    base-station §3.1 alert/report counters, engine totals) into the
    metrics registry at end of trial, and records every calibration and
    exchange RTT into fixed-bucket ``rtt_cycles`` histograms
    (Figure-4-style data).

    Attributes:
        trace_events: include the full protocol event stream
            (deliveries, alerts, revocations) in exported telemetry, not
            just the span markers.
    """

    trace_events: bool = False

"""Observability feature switches (``PipelineConfig.observe``).

``observe=None`` — the default everywhere — means *nothing is
recorded or exported*: the pipeline's span tree still times its phases
(spans are its only timer, so they cannot be switched off), but no
event reaches the trace stream — no span marker and no protocol event
(probe, alert, revocation, drop, delivery), so ``pipeline.trace`` stays
empty — and nothing reaches a metrics registry. An
:class:`ObserveConfig` instance turns collection on: the trace records
the full protocol stream, and its switches select which other signals
are collected. Because collection never touches an RNG,
results stay bit-identical even with everything enabled (asserted in
``tests/core/test_pipeline_observe.py``) — the knobs exist for overhead
control, not correctness.

The config is a frozen dataclass of plain scalars, so it is hashable,
picklable (parallel workers), and JSON-round-trippable
(:func:`observe_config_from_dict`, used by the experiment manifests).

Paper section: §4 (what the evaluation instruments)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ObserveConfig:
    """Which observability signals a pipeline run collects.

    Spans (``trial`` and its ``phase:*`` children) are always recorded;
    an observed run also writes their begin/end events into the trace
    stream and exports them in its telemetry.

    Attributes:
        metrics: flush counters (network, fault injector, batch core,
            base-station §3.1 alert/report counters, engine totals) into
            the metrics registry at end of trial.
        rtt_histograms: record every calibration and exchange RTT into
            fixed-bucket ``rtt_cycles`` histograms (Figure-4-style data).
        per_node_rtt: label exchange RTT histograms by requesting node
            (one series per node — detailed but wide; off by default).
        trace_events: include the full protocol event stream
            (deliveries, alerts, revocations) in exported telemetry, not
            just the span markers.
    """

    metrics: bool = True
    rtt_histograms: bool = True
    per_node_rtt: bool = False
    trace_events: bool = False


def observe_config_from_dict(data: Mapping[str, Any]) -> ObserveConfig:
    """Rebuild an :class:`ObserveConfig`; unknown keys are rejected."""
    known = {f.name for f in dataclasses.fields(ObserveConfig)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"unknown observe config keys: {sorted(unknown)}"
        )
    return ObserveConfig(**{k: bool(v) for k, v in data.items()})

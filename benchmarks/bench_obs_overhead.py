"""Observability overhead, measured paired in one process.

Three variants of one trial run in interleaved rounds, the order
rotating each round so no variant always runs first or last:

- ``off``: ``observe=None`` (the default). The trial still records its
  ``trial`` / ``phase:*`` spans, the pipeline's only phase timer, but
  exports nothing;
- ``idle_server``: ``observe=None`` with a live
  :class:`repro.obs.TelemetryServer` bound on an ephemeral port but
  never scraped. Serving telemetry is daemon-thread work, not hot-path
  work;
- ``on``: ``ObserveConfig()``: span events, RTT histograms and the
  finalize-time metric fold.

Both cores run: the default batch core and the scalar oracle
(``use_vectorized_core=False``). Every result is asserted bit-identical
to an untimed warm-up run first; instrumentation that changed a number
would be a bug, not an overhead. Each round yields an idle/off and an
on/off ratio of trials timed seconds apart, so host-speed drift between
rounds cancels out of the ratios. Per core, ``BENCH_obs.json`` records
the median and IQR (spread between the quartiles) of each variant's
seconds and of both ratios. The gate is the median idle/off ratio, at
most :data:`MAX_IDLE_OVER_OFF` per core; the on-path is recorded, not
gated, because observing is opt-in. On a shared host whose CPUs change
speed within a trial, single trials can swing by a quarter, so read the
recorded IQR before trusting a median: a ratio IQR far above 0.02 means
the gate's verdict is noise.

``--quick`` runs a small deployment for one round per core: identity
checks only, no clock gate, and ``BENCH_obs.json`` is left alone.

Usage::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q -s
    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q --quick
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform
import statistics
import sys
import time

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.obs import ObserveConfig, TelemetryServer

OUTPUT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_obs.json"

#: The paper's Section 4 deployment, one seeded trial.
TRIAL_CONFIG = PipelineConfig(seed=11)

#: Smoke-mode deployment (--quick): same shape, ~6x fewer nodes.
QUICK_CONFIG = PipelineConfig(
    n_total=150,
    n_beacons=25,
    n_malicious=4,
    field_width_ft=500.0,
    field_height_ft=500.0,
    rtt_calibration_samples=300,
    seed=11,
)

#: Core -> (use_vectorized_core, rounds). A scalar trial takes about ten
#: times as long as a batch one, so it gets fewer rounds.
CORES = {"batch_core": (True, 41), "scalar_core": (False, 11)}

VARIANTS = ("off", "idle_server", "on")

#: observe=None with an idle telemetry server may cost at most 2%.
MAX_IDLE_OVER_OFF = 1.02


def _timed_trial(config, observe):
    start = time.perf_counter()
    result = SecureLocalizationPipeline(
        dataclasses.replace(config, observe=observe)
    ).run()
    return time.perf_counter() - start, result


def _run_variant(config, variant):
    if variant == "idle_server":
        with TelemetryServer(port=0):
            return _timed_trial(config, None)
    return _timed_trial(config, ObserveConfig() if variant == "on" else None)


def _paired_rounds(config, rounds):
    """Each variant's seconds over ``rounds`` interleaved, rotated rounds."""
    reference = SecureLocalizationPipeline(config).run()
    seconds = {variant: [] for variant in VARIANTS}
    for k in range(rounds):
        shift = k % len(VARIANTS)
        for variant in VARIANTS[shift:] + VARIANTS[:shift]:
            elapsed, result = _run_variant(config, variant)
            # Correctness before speed: observation never changes a result.
            assert result == reference, f"{variant} changed the trial result"
            seconds[variant].append(elapsed)
    return seconds


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": round(median, 6), "iqr": round(q3 - q1, 6)}


def _summary(seconds):
    off = seconds["off"]
    return {
        "rounds": len(off),
        "seconds": {variant: _spread(seconds[variant]) for variant in VARIANTS},
        "ratio": {
            "idle_over_off": _spread(
                [idle / o for idle, o in zip(seconds["idle_server"], off)]
            ),
            "on_over_off": _spread([on / o for on, o in zip(seconds["on"], off)]),
        },
    }


def _record(summaries):
    data = {
        "schema": 2,
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "benchmarks": summaries,
    }
    OUTPUT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def test_observe_overhead(quick):
    """Identical results; median idle/off ratio <= 1.02 on both cores."""
    base = QUICK_CONFIG if quick else TRIAL_CONFIG
    summaries = {}
    for core, (vectorized, rounds) in CORES.items():
        config = dataclasses.replace(base, use_vectorized_core=vectorized)
        seconds = _paired_rounds(config, 1 if quick else rounds)
        if not quick:
            summaries[core] = _summary(seconds)
    if quick:
        return

    data = _record(summaries)
    print(json.dumps(data["benchmarks"], indent=2, sort_keys=True))
    for core, summary in summaries.items():
        ratio = summary["ratio"]["idle_over_off"]
        assert ratio["median"] <= MAX_IDLE_OVER_OFF, (
            f"{core}: an idle telemetry server slowed the trial by a median "
            f"{ratio['median']:.4f}x (IQR {ratio['iqr']:.4f}) over "
            f"{summary['rounds']} paired rounds; the limit is "
            f"{MAX_IDLE_OVER_OFF}x"
        )


if __name__ == "__main__":
    test_observe_overhead(quick="--quick" in sys.argv[1:])

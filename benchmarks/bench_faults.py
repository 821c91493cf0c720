"""Sensitivity of the detection scheme to injected faults.

The paper's evaluation (§4) assumes a clean network: every alert
delivered, as retransmission would ensure (§3.2), and RTTs inside the
calibrated Figure-4 window (§2.2.2). These benches measure how the headline metrics —
detection rate, false positive rate, and N' (affected non-beacon nodes
per malicious beacon) — degrade as those assumptions are violated by the
:mod:`repro.faults` injection layer:

- **loss sweep**: Bernoulli packet loss applied to every delivery
  (requests, replies and probes alike; alerts reach the base station,
  as §3.2 assumes);
- **jitter sweep**: uniform RTT perturbation approaching the calibrated
  window's half-width, pushing genuine malicious-signal RTTs out of the
  §2.2.2 acceptance region so they are misread as local replays.

The zero-fault point of each sweep is asserted bit-identical to a plain
(``faults=None``) run — the sweeps anchor to the paper curves exactly.
Every measurement lands in ``BENCH_faults.json`` at the repo root so
future PRs can track fault tolerance alongside performance.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.experiments.runner import collect_metrics
from repro.experiments.series import FigureData
from repro.faults import FaultConfig

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_faults.json"

#: The paper's §4 deployment; the sweeps perturb only the fault layer.
PAPER_CONFIG = PipelineConfig(seed=11)

#: Independent deployments averaged per sweep point.
TRIALS = 2

#: Bernoulli per-delivery loss probabilities (0 = the paper's clean net).
LOSS_RATES = (0.0, 0.05, 0.15, 0.3)

#: Uniform RTT jitter amplitudes (cycles). The calibrated §2.2.2 window
#: is ~1600 cycles wide, so the top amplitude pushes a large share of
#: genuine malicious-signal RTTs outside it.
JITTER_CYCLES = (0.0, 250.0, 750.0, 1500.0)

#: Metrics tracked by both sweeps.
METRICS = (
    "detection_rate",
    "false_positive_rate",
    "affected_non_beacons_per_malicious",
)


def _record_baseline(name, points):
    """Merge one sweep's points into BENCH_faults.json."""
    try:
        data = json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        data = {}
    data.setdefault("schema", 1)
    data["environment"] = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    data.setdefault("benchmarks", {})[name] = points
    BASELINE_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return points


def _sweep(bench_runner, fault_of, levels):
    """Mean metrics per level: ``{level: {metric: value}}``.

    ``fault_of(level)`` maps a sweep level to a :class:`FaultConfig`
    (``None`` for the clean anchor). Each level runs ``TRIALS``
    deployments (seeds ``seed .. seed + TRIALS - 1``) through the shared
    bench runner, so ``REPRO_BENCH_WORKERS``/``REPRO_BENCH_CACHE``
    shard and cache the sweep like any other simulation bench.
    """
    configs = []
    keys = []
    for level in levels:
        for trial in range(TRIALS):
            configs.append(
                dataclasses.replace(
                    PAPER_CONFIG,
                    seed=PAPER_CONFIG.seed + trial,
                    faults=fault_of(level),
                )
            )
            keys.append(f"level:{level}/trial:{trial}")
    results = bench_runner.run_pipeline_configs(configs, keys=keys)
    points = {}
    for i, level in enumerate(levels):
        rows = results[i * TRIALS : (i + 1) * TRIALS]
        points[level] = {
            metric: sum(row[metric] for row in rows) / len(rows)
            for metric in METRICS
        }
    return points


def _sweep_figure(figure_id, title, x_label, points, notes):
    fig = FigureData(
        figure_id=figure_id,
        title=title,
        x_label=x_label,
        y_label="metric value",
        notes=notes,
    )
    series = {metric: fig.new_series(metric) for metric in METRICS}
    for level, values in points.items():
        for metric in METRICS:
            series[metric].append(level, values[metric])
    return fig


def _assert_clean_anchor(points, zero_level):
    """The zero-fault sweep point must equal the plain (faults=None) run."""
    plain = [
        collect_metrics(
            SecureLocalizationPipeline(
                dataclasses.replace(PAPER_CONFIG, seed=PAPER_CONFIG.seed + t)
            ).run()
        )
        for t in range(TRIALS)
    ]
    expected = {
        metric: sum(row[metric] for row in plain) / len(plain)
        for metric in METRICS
    }
    assert points[zero_level] == expected, (
        "zero-fault sweep point drifted from the faults=None baseline: "
        f"{points[zero_level]} != {expected}"
    )


def test_detection_vs_loss_rate(save_figure, bench_runner):
    """Detection metrics vs Bernoulli per-delivery packet loss."""

    def fault_of(rate):
        if rate == 0.0:
            return None
        return FaultConfig(packet_loss_rate=rate)

    points = _sweep(bench_runner, fault_of, LOSS_RATES)
    _assert_clean_anchor(points, 0.0)
    _record_baseline(
        "detection_vs_loss",
        {str(rate): values for rate, values in points.items()},
    )
    save_figure(
        _sweep_figure(
            "faults_loss",
            "Detection metrics vs packet loss rate",
            "per-delivery loss probability",
            points,
            notes=(
                f"paper deployment, {TRIALS} trials/point; zero-loss point "
                "asserted identical to the clean pipeline"
            ),
        )
    )
    # Losing packets can only suppress probes/alerts, never invent them:
    # the false positive rate must not rise above the clean anchor by
    # more than trial noise allows (exactly 0 new alert content exists).
    clean = points[0.0]["detection_rate"]
    lossy = points[max(LOSS_RATES)]["detection_rate"]
    assert lossy <= clean + 1e-9, (
        f"detection rate rose under loss ({clean} -> {lossy})"
    )


def test_detection_vs_rtt_jitter(save_figure, bench_runner):
    """Detection metrics vs uniform RTT jitter amplitude."""

    def fault_of(amplitude):
        if amplitude == 0.0:
            return None
        return FaultConfig(rtt_jitter_cycles=amplitude)

    points = _sweep(bench_runner, fault_of, JITTER_CYCLES)
    _assert_clean_anchor(points, 0.0)
    _record_baseline(
        "detection_vs_rtt_jitter",
        {str(amplitude): values for amplitude, values in points.items()},
    )
    save_figure(
        _sweep_figure(
            "faults_jitter",
            "Detection metrics vs RTT jitter amplitude",
            "jitter amplitude (cycles)",
            points,
            notes=(
                f"paper deployment, {TRIALS} trials/point; window width "
                "~1600 cycles, so the top amplitude breaks the "
                "section 2.2.2 acceptance region"
            ),
        )
    )

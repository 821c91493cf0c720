"""Generic parameter sweeps over the pipeline.

The figure/ablation benches all share one skeleton: vary one
:class:`PipelineConfig` field over a grid, run (optionally several trials
per point), and collect metrics into series. This module factors that
skeleton out so downstream users can sweep *any* config field in three
lines::

    from repro.experiments.sweeps import sweep_config_field

    fig = sweep_config_field(
        "wormhole_p_d", (0.5, 0.7, 0.9, 1.0),
        metrics=("false_positive_rate",),
        base=dict(n_malicious=0, collusion=False),
        trials=3,
    )

Execution goes through :class:`repro.experiments.runner.ExperimentRunner`:
pass ``runner=ExperimentRunner(n_workers=4, cache_dir=...)`` to shard the
grid across processes and skip already-computed points. Seeds are derived
per (point, trial) exactly as the serial path always has, so results are
bit-identical for any worker count.

Paper section: §4 (evaluation parameter studies).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Sequence

from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError
from repro.experiments.runner import PIPELINE_METRICS, ExperimentRunner
from repro.experiments.series import FigureData
from repro.sim.rng import derive_seed

#: PipelineResult attributes a sweep may collect (runner task payload).
SUPPORTED_METRICS = PIPELINE_METRICS


def sweep_config_field(
    field_name: str,
    values: Sequence[Any],
    *,
    metrics: Sequence[str] = ("detection_rate",),
    base: Optional[Dict[str, Any]] = None,
    trials: int = 1,
    base_seed: int = 0,
    figure_id: str = "sweep",
    title: Optional[str] = None,
    runner: Optional[ExperimentRunner] = None,
) -> FigureData:
    """Sweep one config field; returns one series per requested metric.

    Args:
        field_name: a :class:`PipelineConfig` dataclass field.
        values: grid of values for that field.
        metrics: :class:`PipelineResult` attributes to collect.
        base: overrides applied to every point (e.g. smaller fields).
        trials: independent runs per point (seeds derived per trial);
            series hold the per-point mean over the trials that define
            the metric. A point where no trial defines it (an undefined
            rate, or every trial failed under a ``keep_going`` runner)
            is left out of that metric's series.
        base_seed: determinism anchor.
        figure_id / title: FigureData metadata.
        runner: execution engine (workers + result cache); None runs
            serially in-process. The per-point means are bit-identical
            for any runner.

    Raises:
        ConfigurationError: unknown field, empty grid, or bad metric.
    """
    known_fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    if field_name not in known_fields:
        raise ConfigurationError(
            f"{field_name!r} is not a PipelineConfig field"
        )
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    for metric in metrics:
        if metric not in SUPPORTED_METRICS:
            raise ConfigurationError(
                f"unsupported metric {metric!r}; pick from {SUPPORTED_METRICS}"
            )

    fig = FigureData(
        figure_id=figure_id,
        title=title or f"Sweep of {field_name}",
        x_label=field_name,
        y_label=", ".join(metrics),
        notes=f"{trials} trial(s) per point; base overrides: {base or {}}",
    )
    series = {metric: fig.new_series(metric) for metric in metrics}
    overrides = dict(base or {})
    overrides.pop(field_name, None)

    # Build every (point, trial) config up front — same seed derivation as
    # the historical serial loop — then hand the flat grid to the runner.
    configs = []
    keys = []
    for value in values:
        for trial in range(trials):
            seed = derive_seed(base_seed, f"{field_name}={value}:{trial}") % (
                2**31
            )
            configs.append(
                PipelineConfig(**{**overrides, field_name: value, "seed": seed})
            )
            keys.append(f"{field_name}={value}:trial:{trial}")
    active = runner if runner is not None else ExperimentRunner()
    results = active.run_pipeline_configs(configs, keys=keys)

    for i, value in enumerate(values):
        # A failed trial (keep_going) holds None; an undefined rate is
        # absent from its metric dict. Neither enters a mean.
        trial_results = results[i * trials : (i + 1) * trials]
        points = [p for p in trial_results if p is not None]
        x = float(value) if isinstance(value, (int, float)) else float(
            values.index(value)
        )
        for metric in metrics:
            defined = [float(p[metric]) for p in points if metric in p]
            if defined:
                series[metric].append(x, sum(defined) / len(defined))
    return fig

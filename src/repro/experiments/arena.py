"""The detector arena: every registered detector on the same sweep grid.

Runs each detector from :mod:`repro.detectors` head-to-head across a
Figure-12-style grid of malicious-response probabilities ``P'``, on
**identical seeded scenarios** — the trial seed derives from
``(base_seed, P', trial)`` only, never from the detector name, so every
detector faces byte-for-byte the same deployment, adversary schedule,
and wormhole. Per detector the arena reports:

- mean **detection rate** and **false-positive rate** per grid point
  (``None`` — rendered "n/a" — when undefined in every trial, e.g. a
  zero-malicious scenario; the None-over-empty contract end to end);
- mean **affected non-beacons** per malicious beacon;
- the number of probe **decisions** it issued over the whole grid.

Every output is a pure function of the seeds. The arena reports no
timing: a detector's ``evaluate`` is a small share of a trial, so
phase wall clock would rank the packet plumbing around it, not the
detector. Trials run on the default core, like every other sweep; the
batch core calls each rival's own ``evaluate`` once per reply, in
delivery order (see :mod:`repro.vec.turbo`).

``benchmarks/bench_arena.py`` snapshots the output into the committed
``BENCH_arena.json`` + ``benchmarks/ARENA_REPORT.md``; the CLI target
``arena`` regenerates both on demand.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.detectors import available_detectors
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentRunner, collect_metrics
from repro.sim.rng import derive_seed

#: The Figure-12 malicious-response probabilities the arena sweeps.
ARENA_P_GRID: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8)

#: Grid metrics reported per detector per P' (mean over defined trials).
ARENA_METRICS: Tuple[str, ...] = (
    "detection_rate",
    "false_positive_rate",
    "affected_non_beacons_per_malicious",
)

#: The grid point whose means become the BENCH_arena headline numbers
#: (the paper's default P').
HEADLINE_P = 0.2

#: Reduced deployment the arena sweeps (the full paper deployment times
#: |detectors| x |grid| x trials is bench-only territory).
ARENA_CONFIG: Dict[str, Any] = {
    "n_total": 300,
    "n_beacons": 40,
    "n_malicious": 8,
    "field_width_ft": 600.0,
    "field_height_ft": 600.0,
    "m_detecting_ids": 4,
    "rtt_calibration_samples": 500,
}


def run_arena_trial(config: PipelineConfig) -> Dict[str, Any]:
    """Worker entry point: one trial's metrics and decision count.

    Returns ``{"metrics": ..., "decisions": ...}`` where ``decisions``
    counts the probe verdicts the detector issued.
    """
    pipeline = SecureLocalizationPipeline(config)
    metrics = collect_metrics(pipeline.run())
    decisions = sum(
        len(beacon.probe_outcomes) for beacon in pipeline.benign_beacons
    )
    return {"metrics": metrics, "decisions": decisions}


def arena_configs(
    detector: str,
    *,
    p_grid: Sequence[float] = ARENA_P_GRID,
    trials: int = 3,
    base_seed: int = 41,
    config_kwargs: Optional[Dict[str, Any]] = None,
) -> List[PipelineConfig]:
    """The detector's grid configs, on detector-independent trial seeds."""
    kwargs = dict(ARENA_CONFIG)
    kwargs.update(config_kwargs or {})
    configs = []
    for p in p_grid:
        for trial in range(trials):
            seed = derive_seed(base_seed, f"arena:p={p}:trial={trial}")
            configs.append(
                PipelineConfig(
                    detector=detector,
                    p_prime=p,
                    seed=seed % 2**31,
                    **kwargs,
                )
            )
    return configs


def _mean_or_none(values: List[float]) -> Optional[float]:
    """Mean over defined samples; None (not 0.0) when none are defined."""
    return sum(values) / len(values) if values else None


def run_arena(
    detectors: Optional[Sequence[str]] = None,
    *,
    p_grid: Sequence[float] = ARENA_P_GRID,
    trials: int = 3,
    base_seed: int = 41,
    config_kwargs: Optional[Dict[str, Any]] = None,
    runner: Optional[ExperimentRunner] = None,
) -> Dict[str, Any]:
    """Run the head-to-head comparison; one result dict for the report.

    Shape::

        {"p_grid": [...], "trials": N, "headline_p": 0.2,
         "detectors": {name: {"grid": {"<p>": {metric: mean-or-None}},
                              "headline": {metric: mean-or-None},
                              "decisions": int}}}

    Raises:
        ConfigurationError: ``trials`` is below 1.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    names = list(detectors) if detectors is not None else available_detectors()
    if runner is None:
        runner = ExperimentRunner()
    out: Dict[str, Any] = {
        "p_grid": [float(p) for p in p_grid],
        "trials": trials,
        "headline_p": HEADLINE_P,
        "detectors": {},
    }
    for name in names:
        configs = arena_configs(
            name,
            p_grid=p_grid,
            trials=trials,
            base_seed=base_seed,
            config_kwargs=config_kwargs,
        )
        keys = [
            f"arena:{name}:p={cfg.p_prime}:seed={cfg.seed}" for cfg in configs
        ]
        payloads = runner.map(run_arena_trial, configs, keys=keys)
        grid: Dict[str, Dict[str, Optional[float]]] = {}
        decisions = 0
        for i, p in enumerate(p_grid):
            cell = payloads[i * trials : (i + 1) * trials]
            cell = [entry for entry in cell if entry is not None]
            point: Dict[str, Optional[float]] = {}
            for metric in ARENA_METRICS:
                point[metric] = _mean_or_none(
                    [
                        entry["metrics"][metric]
                        for entry in cell
                        if metric in entry["metrics"]
                    ]
                )
            grid[f"{float(p):g}"] = point
            decisions += sum(entry["decisions"] for entry in cell)
        headline = grid.get(f"{float(HEADLINE_P):g}")
        if headline is None:
            headline = {metric: None for metric in ARENA_METRICS}
        out["detectors"][name] = {
            "grid": grid,
            "headline": dict(headline),
            "decisions": decisions,
        }
    return out


def _fmt(value: Optional[float], digits: int = 3) -> str:
    """Render a mean — ``None`` (undefined rate) is "n/a", never 0."""
    if value is None:
        return "n/a"
    return f"{value:.{digits}f}"


def render_arena_markdown(arena: Dict[str, Any]) -> str:
    """The committed comparison report (benchmarks/ARENA_REPORT.md)."""
    p_grid = arena["p_grid"]
    lines = [
        "# Detector arena: head-to-head comparison",
        "",
        f"Mean over {arena['trials']} seeded trial(s) per grid point; every "
        "detector sees identical scenarios (trial seeds never depend on "
        "the detector). Undefined rates are reported as n/a, never "
        "coerced to 0. Decisions count probe verdicts over the whole grid.",
        "",
        "## Headline (P' = {:g})".format(arena["headline_p"]),
        "",
        "| detector | detection rate | false-positive rate | "
        "affected non-beacons | decisions |",
        "|---|---|---|---|---|",
    ]
    for name, entry in arena["detectors"].items():
        headline = entry["headline"]
        lines.append(
            "| {name} | {dr} | {fpr} | {aff} | {n} |".format(
                name=name,
                dr=_fmt(headline.get("detection_rate")),
                fpr=_fmt(headline.get("false_positive_rate")),
                aff=_fmt(headline.get("affected_non_beacons_per_malicious"), 2),
                n=entry["decisions"],
            )
        )
    for metric, title in (
        ("detection_rate", "Detection rate vs P'"),
        ("false_positive_rate", "False-positive rate vs P'"),
        (
            "affected_non_beacons_per_malicious",
            "Affected non-beacons per malicious vs P'",
        ),
    ):
        lines += [
            "",
            f"## {title}",
            "",
            "| detector | " + " | ".join(f"{p:g}" for p in p_grid) + " |",
            "|---" * (len(p_grid) + 1) + "|",
        ]
        for name, entry in arena["detectors"].items():
            cells = [
                _fmt(entry["grid"][f"{p:g}"].get(metric)) for p in p_grid
            ]
            lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def arena_headlines(arena: Dict[str, Any]) -> Dict[str, Any]:
    """The BENCH_arena.json ``benchmarks`` object (headline grid point)."""
    benchmarks: Dict[str, Any] = {"arena": {}}
    for name, entry in arena["detectors"].items():
        headline = entry["headline"]
        benchmarks["arena"][name] = {
            "detection_rate": headline.get("detection_rate"),
            "false_positive_rate": headline.get("false_positive_rate"),
            "affected_non_beacons_per_malicious": headline.get(
                "affected_non_beacons_per_malicious"
            ),
            "decisions": entry["decisions"],
        }
    return benchmarks

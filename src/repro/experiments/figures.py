"""Per-figure data generators (paper Figures 4-14).

Figures 1-3 of the paper are protocol diagrams without data. Everything
with data is regenerated here:

- Figure 4 — RTT CDF (analysis substrate, Section 2.2.2);
- Figures 5-10 — closed-form analysis curves (Sections 2.3 and 3.2);
- Figure 11 — the random deployment scatter;
- Figures 12-14 — full-pipeline simulation vs theory.

All generators are deterministic in their ``seed`` and return
:class:`repro.experiments.series.FigureData`. The simulation-backed
generators (Figures 12-14) accept a ``runner`` — an
:class:`repro.experiments.runner.ExperimentRunner` — to shard their
pipeline runs across processes and reuse cached points; output is
bit-identical for any worker count.

Paper section: §4 (Figures 4-14).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import analysis
from repro.core.analysis import Population
from repro.core.pipeline import PipelineConfig
from repro.experiments.deployment import generate_deployment
from repro.experiments.runner import ExperimentRunner
from repro.experiments.series import FigureData
from repro.sim.timing import BIT_TIME_CYCLES, RttModel
from repro.utils.stats import Ecdf

#: Analysis population used by Figures 5-10 (10% benign beacons).
ANALYSIS_POPULATION = Population(n_total=10_000, n_beacons=1_010, n_malicious=10)

#: Default P' sweep for the analysis curves.
P_PRIME_GRID: Tuple[float, ...] = tuple(round(0.02 * i, 2) for i in range(1, 51))

#: Requesting nodes per malicious beacon in Figures 6 and 8.
DEFAULT_N_C = 100


# ----------------------------------------------------------------------
# Figure 4 — RTT cumulative distribution
# ----------------------------------------------------------------------
def figure04_rtt_cdf(
    *,
    samples: int = 10_000,
    seed: int = 0,
    model: Optional[RttModel] = None,
    curve_points: int = 101,
) -> FigureData:
    """CDF of the register-level RTT with no replay attack.

    The paper measured 10,000 RTTs on MICA motes; we draw them from the
    synthetic hardware model (DESIGN.md, Substitutions). The note records
    x_min, x_max, and the support width in bit-times (paper: ~4.5).
    """
    rtt_model = model if model is not None else RttModel()
    rng = random.Random(seed)
    rtts = rtt_model.sample_rtts(rng, samples)
    ecdf = Ecdf(rtts)

    fig = FigureData(
        figure_id="figure04",
        title="Cumulative distribution of round trip time",
        x_label="round trip time (CPU clock cycles)",
        y_label="cumulative distribution",
    )
    cdf = fig.new_series("cdf")
    for i in range(curve_points):
        q = i / (curve_points - 1)
        x = ecdf.quantile(q) if q > 0 else ecdf.x_min
        cdf.append(x, ecdf(x))
    width_bits = ecdf.support_width() / BIT_TIME_CYCLES
    fig.notes = (
        f"x_min={ecdf.x_min:.0f} cycles, x_max={ecdf.x_max:.0f} cycles, "
        f"support width={width_bits:.2f} bit-times (paper: ~4.5)"
    )
    return fig


# ----------------------------------------------------------------------
# Figure 5 — P_r vs P'
# ----------------------------------------------------------------------
def figure05_detection_vs_pprime(
    *,
    ms: Sequence[int] = (1, 2, 4, 8),
    p_grid: Sequence[float] = P_PRIME_GRID,
) -> FigureData:
    """``P_r = 1 - (1 - P')^m`` for each number of detecting IDs."""
    fig = FigureData(
        figure_id="figure05",
        title="Relationship between P_r and P'",
        x_label="P'",
        y_label="P_r",
    )
    for m in ms:
        series = fig.new_series(f"m={m}")
        for p in p_grid:
            series.append(p, analysis.detection_rate_pr(p, m))
    return fig


# ----------------------------------------------------------------------
# Figure 6 — revocation detection rate vs P'
# ----------------------------------------------------------------------
def figure06_detection_rate(
    *,
    taus: Sequence[int] = (1, 2, 3, 4),
    ms: Sequence[int] = (1, 2, 4, 8),
    m_fixed: int = 8,
    tau_fixed: int = 4,
    n_c: int = DEFAULT_N_C,
    p_grid: Sequence[float] = P_PRIME_GRID,
    population: Population = ANALYSIS_POPULATION,
) -> FigureData:
    """``P_d`` vs ``P'``: (a) sweeping tau at m=8, (b) sweeping m at tau=4."""
    fig = FigureData(
        figure_id="figure06",
        title="Detection rate vs P' (revocation)",
        x_label="P'",
        y_label="detection rate P_d",
        notes=f"N_c={n_c}; panel (a) fixes m={m_fixed}, panel (b) fixes tau={tau_fixed}",
    )
    for tau in taus:
        series = fig.new_series(f"(a) tau={tau}, m={m_fixed}")
        for p in p_grid:
            series.append(
                p,
                analysis.revocation_detection_rate(p, m_fixed, tau, n_c, population),
            )
    for m in ms:
        series = fig.new_series(f"(b) m={m}, tau={tau_fixed}")
        for p in p_grid:
            series.append(
                p,
                analysis.revocation_detection_rate(p, m, tau_fixed, n_c, population),
            )
    return fig


# ----------------------------------------------------------------------
# Figure 7 — detection rate vs N_c
# ----------------------------------------------------------------------
def figure07_detection_vs_nc(
    *,
    p_primes: Sequence[float] = (0.1, 0.2, 0.3, 0.4),
    m: int = 8,
    tau_alert: int = 1,
    nc_grid: Sequence[int] = tuple(range(0, 205, 5)),
    population: Population = ANALYSIS_POPULATION,
) -> FigureData:
    """``P_d`` vs the number of requesting nodes ``N_c``."""
    fig = FigureData(
        figure_id="figure07",
        title="Detection rate vs N_c",
        x_label="N_c (requesting nodes per malicious beacon)",
        y_label="detection rate P_d",
        notes=f"m={m}, tau={tau_alert}",
    )
    for p in p_primes:
        series = fig.new_series(f"P'={p}")
        for n_c in nc_grid:
            series.append(
                n_c,
                analysis.revocation_detection_rate(p, m, tau_alert, n_c, population),
            )
    return fig


# ----------------------------------------------------------------------
# Figure 8 — affected non-beacon nodes vs P'
# ----------------------------------------------------------------------
def figure08_affected_vs_pprime(
    *,
    combos: Sequence[Tuple[int, int]] = ((2, 8), (2, 4), (3, 8), (3, 4), (4, 8), (4, 4)),
    n_c: int = DEFAULT_N_C,
    p_grid: Sequence[float] = P_PRIME_GRID,
    population: Population = ANALYSIS_POPULATION,
) -> FigureData:
    """``N'`` vs ``P'`` for (tau, m) combinations, after revocation."""
    fig = FigureData(
        figure_id="figure08",
        title="Average number of affected non-beacon nodes vs P'",
        x_label="P'",
        y_label="N'",
        notes=f"N_c={n_c}",
    )
    for tau, m in combos:
        series = fig.new_series(f"tau={tau}, m={m}")
        for p in p_grid:
            series.append(
                p, analysis.affected_non_beacons(p, m, tau, n_c, population)
            )
    return fig


# ----------------------------------------------------------------------
# Figure 9 — worst-case affected nodes vs N_c
# ----------------------------------------------------------------------
def figure09_worstcase_affected(
    *,
    combos: Sequence[Tuple[int, int]] = (
        (8, 1),
        (4, 1),
        (2, 1),
        (8, 2),
        (4, 2),
        (2, 2),
    ),
    nc_grid: Sequence[int] = tuple(range(0, 255, 5)),
    population: Population = ANALYSIS_POPULATION,
    grid: int = 200,
) -> FigureData:
    """``N'`` vs ``N_c`` when the attacker picks ``P'`` to maximize ``N'``."""
    fig = FigureData(
        figure_id="figure09",
        title="Worst-case affected non-beacon nodes vs N_c",
        x_label="N_c",
        y_label="max over P' of N'",
    )
    for m, tau in combos:
        series = fig.new_series(f"m={m}, tau={tau}")
        for n_c in nc_grid:
            _, n_affected = analysis.worst_case_affected(
                m, tau, n_c, population, grid=grid
            )
            series.append(n_c, n_affected)
    return fig


# ----------------------------------------------------------------------
# Figure 10 — report-counter overflow probability
# ----------------------------------------------------------------------
def figure10_report_counter(
    *,
    n_cs: Sequence[int] = (1, 5, 10, 15, 20),
    tau_report_grid: Sequence[int] = tuple(range(0, 11)),
    m: int = 8,
    p_prime: float = 0.1,
    tau_alert: int = 1,
    n_wormholes: int = 10,
    p_d: float = 0.9,
    population: Population = ANALYSIS_POPULATION,
) -> FigureData:
    """``P_o`` vs ``tau_report`` for several ``N_c`` (threshold selection)."""
    fig = FigureData(
        figure_id="figure10",
        title="Probability of a benign beacon's report counter exceeding tau'",
        x_label="tau' (report-counter threshold)",
        y_label="P_o",
        notes=(
            f"N={population.n_total}, N_b={population.n_beacons}, "
            f"N_a={population.n_malicious}, N_w={n_wormholes}, p_d={p_d}, "
            f"tau={tau_alert}, m={m}, P'={p_prime}"
        ),
    )
    for n_c in n_cs:
        series = fig.new_series(f"N_c={n_c}")
        for tau_report in tau_report_grid:
            series.append(
                tau_report,
                analysis.report_counter_overflow(
                    tau_report,
                    n_c=n_c,
                    m=m,
                    p_prime=p_prime,
                    tau_alert=tau_alert,
                    n_wormholes=n_wormholes,
                    p_d=p_d,
                    population=population,
                ),
            )
    return fig


# ----------------------------------------------------------------------
# Figure 11 — deployment scatter
# ----------------------------------------------------------------------
def figure11_deployment(*, seed: int = 0) -> FigureData:
    """The random beacon deployment of the simulation (Section 4)."""
    deployment = generate_deployment(seed=seed)
    fig = FigureData(
        figure_id="figure11",
        title="Deployment of beacon nodes in the sensing field",
        x_label="x (feet)",
        y_label="y (feet)",
        notes=(
            f"{len(deployment.benign_beacons)} benign beacons, "
            f"{len(deployment.malicious_beacons)} malicious beacons, "
            f"{len(deployment.non_beacons)} non-beacon nodes"
        ),
    )
    benign = fig.new_series("benign beacons")
    for p in deployment.benign_beacons:
        benign.append(p.x, p.y)
    malicious = fig.new_series("malicious beacons")
    for p in deployment.malicious_beacons:
        malicious.append(p.x, p.y)
    return fig


# ----------------------------------------------------------------------
# Figures 12/13 — simulation vs theory
# ----------------------------------------------------------------------
def _defined_mean(
    trial_metrics: Sequence[Dict[str, float]], name: str
) -> Optional[float]:
    """Mean of ``name`` over the trials that define it, in trial order.

    None when no trial defines it (an undefined rate, or every trial
    failed); the caller then leaves the point out of its series.
    """
    values = [metrics[name] for metrics in trial_metrics if name in metrics]
    return sum(values) / len(values) if values else None


def _simulate_sweep(
    fig: FigureData,
    metric: str,
    theory_fn: Callable[..., float],
    p_grid: Sequence[float],
    *,
    trials: int,
    seed: int,
    config_kwargs: Optional[dict],
    runner: Optional[ExperimentRunner],
) -> FigureData:
    """Fill ``fig`` with simulated ``metric`` and its theory curve vs ``P'``.

    Configs are built in the historical (point-major, trial-minor) order
    with the historical seed formula, then executed through the runner —
    so both curves are identical for any worker count. A point's
    simulated value is the mean of ``metric`` over the trials that
    define it; its theory value uses the trials' mean ``N_c`` (each
    trial's rounded first). A trial that failed under a ``keep_going``
    runner defines nothing, and a point no trial defines is left out of
    that series.
    """
    sim = fig.new_series("simulation")
    theory = fig.new_series("theory")
    kwargs = dict(config_kwargs or {})
    pop = Population(
        n_total=kwargs.get("n_total", 1_000),
        n_beacons=kwargs.get("n_beacons", 110),
        n_malicious=kwargs.get("n_malicious", 10),
    )
    tau_alert = kwargs.get("tau_alert", 2)
    m = kwargs.get("m_detecting_ids", 8)
    configs = [
        PipelineConfig(p_prime=p, seed=seed + 7_919 * trial, **kwargs)
        for p in p_grid
        for trial in range(trials)
    ]
    keys = [
        f"p={p}:trial:{trial}" for p in p_grid for trial in range(trials)
    ]
    active = runner if runner is not None else ExperimentRunner()
    results = active.run_pipeline_configs(configs, keys=keys)
    for i, p in enumerate(p_grid):
        trial_metrics = [
            r for r in results[i * trials : (i + 1) * trials] if r is not None
        ]
        value = _defined_mean(trial_metrics, metric)
        if value is not None:
            sim.append(p, value)
        ncs = [
            int(round(r["mean_requesters_per_malicious"]))
            for r in trial_metrics
            if "mean_requesters_per_malicious" in r
        ]
        if ncs:
            mean_nc = int(round(sum(ncs) / len(ncs)))
            theory.append(p, theory_fn(p, m, tau_alert, mean_nc, pop))
    return fig


def figure12_sim_detection_rate(
    *,
    p_grid: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0),
    trials: int = 1,
    seed: int = 11,
    config_kwargs: Optional[dict] = None,
    runner: Optional[ExperimentRunner] = None,
) -> FigureData:
    """Simulated vs theoretical detection rate vs ``P'`` (tau'=2, tau=2)."""
    fig = FigureData(
        figure_id="figure12",
        title="Detection rate vs P' (simulation vs theory)",
        x_label="P'",
        y_label="detection rate",
        notes="tau'=2, tau=2, m=8, p_d=0.9",
    )
    return _simulate_sweep(
        fig, "detection_rate", analysis.revocation_detection_rate, p_grid,
        trials=trials, seed=seed, config_kwargs=config_kwargs, runner=runner,
    )


def figure13_sim_affected(
    *,
    p_grid: Sequence[float] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 1.0),
    trials: int = 1,
    seed: int = 13,
    config_kwargs: Optional[dict] = None,
    runner: Optional[ExperimentRunner] = None,
) -> FigureData:
    """Simulated vs theoretical ``N'`` vs ``P'``."""
    fig = FigureData(
        figure_id="figure13",
        title="Affected non-beacon requesters vs P' (simulation vs theory)",
        x_label="P'",
        y_label="N'",
        notes="tau'=2, tau=2, m=8, p_d=0.9",
    )
    return _simulate_sweep(
        fig, "affected_non_beacons_per_malicious", analysis.affected_non_beacons,
        p_grid, trials=trials, seed=seed, config_kwargs=config_kwargs,
        runner=runner,
    )


# ----------------------------------------------------------------------
# Figure 14 — ROC curves
# ----------------------------------------------------------------------
def figure14_roc(
    *,
    n_as: Sequence[int] = (5, 10),
    tau_reports: Sequence[int] = (2, 3, 4),
    tau_alerts: Sequence[int] = (1, 2, 3, 4, 6, 8, 12),
    trials: int = 1,
    seed: int = 17,
    p_grid_for_worst_case: int = 20,
    runner: Optional[ExperimentRunner] = None,
) -> FigureData:
    """ROC: detection rate vs false positive rate, sweeping ``tau``.

    For each (N_a, tau') pair, vary ``tau``; ``P'`` is chosen adversarially
    (maximizing ``N'``) per the paper's caption.
    """
    fig = FigureData(
        figure_id="figure14",
        title="ROC curves (detection rate vs false positive rate)",
        x_label="false positive rate",
        y_label="detection rate",
        notes="P' chosen adversarially per (tau, m); x points follow tau sweep",
    )
    # Build the full (N_a, tau', tau, trial) config grid up front so one
    # runner call can shard every operating point at once.
    configs: List[PipelineConfig] = []
    keys: List[str] = []
    for n_a in n_as:
        for tau_report in tau_reports:
            for tau_alert in tau_alerts:
                pop = Population(
                    n_total=1_000, n_beacons=100 + n_a, n_malicious=n_a
                )
                # Adversarial P' at the deployment's natural N_c (~60).
                best_p, _ = analysis.worst_case_affected(
                    8, tau_alert, 60, pop, grid=p_grid_for_worst_case
                )
                for trial in range(trials):
                    configs.append(
                        PipelineConfig(
                            n_beacons=100 + n_a,
                            n_malicious=n_a,
                            p_prime=best_p,
                            tau_report=tau_report,
                            tau_alert=tau_alert,
                            seed=seed + 31 * trial,
                        )
                    )
                    keys.append(
                        f"Na={n_a}:tau_report={tau_report}:"
                        f"tau={tau_alert}:trial:{trial}"
                    )
    active = runner if runner is not None else ExperimentRunner()
    results = active.run_pipeline_configs(configs, keys=keys)

    index = 0
    for n_a in n_as:
        for tau_report in tau_reports:
            series = fig.new_series(f"N_a={n_a}, tau'={tau_report}")
            for tau_alert in tau_alerts:
                trial_metrics = [
                    m for m in results[index : index + trials] if m is not None
                ]
                index += trials
                detection = _defined_mean(trial_metrics, "detection_rate")
                fp = _defined_mean(trial_metrics, "false_positive_rate")
                if detection is not None and fp is not None:
                    series.append(fp, detection)
    return fig


#: Registry used by benches and the CLI-style examples.
ALL_FIGURES = {
    "figure04": figure04_rtt_cdf,
    "figure05": figure05_detection_vs_pprime,
    "figure06": figure06_detection_rate,
    "figure07": figure07_detection_vs_nc,
    "figure08": figure08_affected_vs_pprime,
    "figure09": figure09_worstcase_affected,
    "figure10": figure10_report_counter,
    "figure11": figure11_deployment,
    "figure12": figure12_sim_detection_rate,
    "figure13": figure13_sim_affected,
    "figure14": figure14_roc,
}

"""Ablation: localization error with and without the detection suite.

The paper's motivation: compromised beacons mislead location estimation.
This bench measures mean localization error of the non-beacon population
(a) with the full defence, (b) with filters but no revocation, and
(c) with a defenceless baseline agent — plus the replay-filter rejection
counts that explain the difference.
"""

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.experiments.series import FigureData


def compare_defences(p_prime=0.4, seed=41):
    fig = FigureData(
        figure_id="ablation_localization",
        title="Localization error with and without the defence",
        x_label="configuration index",
        y_label="mean localization error (ft)",
        notes=f"P'={p_prime}; same deployment seed across configurations",
    )
    configs = {
        "full defence": dict(),
        "no revocation (filters only)": dict(collusion=False, tau_alert=10_000),
        "no wormhole in field": dict(wormhole_endpoints=None),
    }
    for index, (label, overrides) in enumerate(configs.items()):
        cfg = PipelineConfig(p_prime=p_prime, seed=seed, **overrides)
        result = SecureLocalizationPipeline(cfg).run()
        series = fig.new_series(label)
        series.append(index, result.mean_localization_error_ft)
    return fig


def test_ablation_localization(run_once, save_figure):
    fig = run_once(compare_defences)
    save_figure(fig)
    full = fig.series["full defence"].y[0]
    no_revoke = fig.series["no revocation (filters only)"].y[0]
    # Revocation removes misleading references, so the defended run cannot
    # be (meaningfully) worse than the revocation-less one.
    assert full <= no_revoke * 1.25
    # Removing the wormhole removes a large error source.
    clean_field = fig.series["no wormhole in field"].y[0]
    assert clean_field <= full


def test_pipeline_runtime(benchmark):
    """Wall-clock for one paper-scale pipeline run (capacity planning)."""

    def run():
        return SecureLocalizationPipeline(
            PipelineConfig(p_prime=0.2, seed=3)
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0.0 <= result.detection_rate <= 1.0

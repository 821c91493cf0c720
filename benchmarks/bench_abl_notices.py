"""Ablation: revocation-notice dissemination under radio loss.

The paper assumes revocation messages "can reach most of sensor nodes"
(§3.2). This bench replaces the oracle with the actual mechanism —
µTESLA-authenticated notices flooded hop by hop — and degrades the radio:
at higher loss rates, rebroadcasts die out, fewer agents learn the
revocations, and the whole localization pipeline (probes, replies, alerts'
radio legs) suffers alongside. Reported: detection rate, the fraction of
agents that learned at least one revocation, and N'.
"""

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.experiments.series import FigureData
from repro.faults import FaultConfig


def sweep_loss(loss_rates=(0.0, 0.1, 0.3, 0.5), seed=91):
    fig = FigureData(
        figure_id="ablation_notices",
        title="Flooded revocation notices under radio loss",
        x_label="per-transmission loss rate",
        y_label="rate",
        notes="300-node field; flooded µTESLA notices replace the oracle",
    )
    detection = fig.new_series("detection rate")
    informed = fig.new_series("agents aware of >=1 revocation")
    affected = fig.new_series("N' per malicious beacon (x0.1)")
    for loss in loss_rates:
        cfg = PipelineConfig(
            n_total=300,
            n_beacons=40,
            n_malicious=4,
            field_width_ft=600.0,
            field_height_ft=600.0,
            p_prime=0.5,
            rtt_calibration_samples=500,
            wormhole_endpoints=None,
            revocation_dissemination="flood",
            notice_interval_cycles=500_000.0,
            faults=FaultConfig(packet_loss_rate=loss),
            seed=seed,
        )
        pipeline = SecureLocalizationPipeline(cfg)
        result = pipeline.run()
        detection.append(loss, result.detection_rate)
        aware = sum(
            1
            for agent in pipeline.agents
            if getattr(agent, "applied_revocations", None)
        )
        informed.append(loss, aware / max(1, len(pipeline.agents)))
        affected.append(
            loss, result.affected_non_beacons_per_malicious * 0.1
        )
    return fig


def test_ablation_notices(run_once, save_figure):
    fig = run_once(sweep_loss)
    save_figure(fig)
    informed = fig.series["agents aware of >=1 revocation"]
    detection = fig.series["detection rate"]
    affected = fig.series["N' per malicious beacon (x0.1)"]
    # Finding: on a dense field the epidemic redundancy of flooding makes
    # the paper's "reaches most sensor nodes" assumption easy — agents
    # stay informed even at 50% per-transmission loss...
    assert min(informed.y) > 0.8
    # ...the loss bites elsewhere: probe/alert traffic degrades detection,
    # and the surviving unrevoked liars show up in N'.
    assert detection.y_at(0.5) <= detection.y_at(0.0)
    assert affected.y_at(0.5) >= affected.y_at(0.0)

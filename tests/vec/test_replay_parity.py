"""Whole-pipeline parity: vectorized batch core vs the scalar oracle.

``use_vectorized_core=True`` promises *bit-identical* trials, not
statistically similar ones — the RNG stream-parity rules in
``docs/PERFORMANCE.md`` are what make that possible. These tests run
small deployments through both cores across the envelope axes the
batch core covers (wormholes, packet loss and RTT jitter, and their
edge cases), for every registered detector, and compare the results
with ``==``, together with the simulator state the result does not
carry: event counts, fault counters, the base
station's alert log, the detector's diagnostics, the replay filters'
counters and the per-node records (every beacon's probe outcomes and
alerted targets, every agent's references and position estimate, and
every node's next nonce; the records are read after ``close()``, last
node first). Unobserved, neither core records a protocol event;
observed, both record the same ordered ``drop.*`` traces and
the same ordered ``probe``, ``alert`` and ``revoke`` stream, which
must not be empty where the run lost copies or judged replies. An
observed case per detector compares the RTT histograms. The routing
test pins that every fault field reaches the batch core.
"""

from dataclasses import fields, replace

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.core.rtt import LocalReplayDetector
from repro.detectors import available_detectors
from repro.errors import CalibrationError
from repro.faults.config import FaultConfig
from repro.obs import ObserveConfig
from repro.vec import vectorized_core_supported

BASE = PipelineConfig(
    n_total=120,
    n_beacons=18,
    n_malicious=3,
    field_width_ft=500.0,
    field_height_ft=500.0,
    rtt_calibration_samples=200,
    wormhole_endpoints=((100.0, 100.0), (380.0, 350.0)),
    seed=13,
)

#: Both faults the batch core models: per-copy loss and per-observation
#: jitter, wide enough to push honest RTTs past the calibrated window.
FAULTS = FaultConfig(packet_loss_rate=0.05, rtt_jitter_cycles=750.0)

CASES = {
    "turbo-wormhole": BASE,
    "turbo-no-wormhole": replace(BASE, wormhole_endpoints=None),
    "turbo-no-malicious": replace(BASE, n_malicious=0),
    "turbo-other-seed": replace(BASE, seed=101),
    # Packet loss alone: one fault-loss draw per geometric copy.
    "turbo-loss": replace(BASE, faults=FaultConfig(packet_loss_rate=0.12)),
    # Both faults, with and without the tunnel.
    "turbo-faults": replace(BASE, faults=FAULTS),
    "turbo-faults-loss": replace(BASE, faults=FAULTS, wormhole_endpoints=None),
    "turbo-faults-all-zero": replace(BASE, faults=FaultConfig()),
    # Edge cases: every copy lost (empty reply waves), and RTT jitter
    # alone, wide enough to clamp RTTs at zero.
    "turbo-fault-loss-total": replace(
        BASE, faults=FaultConfig(packet_loss_rate=1.0)
    ),
    "turbo-rtt-clamped": replace(
        BASE, faults=FaultConfig(rtt_jitter_cycles=1e6)
    ),
}


#: Every case for every registered detector. The paper detector is the
#: default, so its cases keep the bare case name as their test ID.
PARITY = [
    pytest.param(
        name, detector, id=name if detector == "paper" else f"{detector}-{name}"
    )
    for detector in available_detectors()
    for name in sorted(CASES)
]


def _run(config, *, vectorized):
    pipeline = SecureLocalizationPipeline(
        replace(config, use_vectorized_core=vectorized)
    )
    return pipeline, pipeline.run()


def _sim_state(pipeline):
    """What the result does not carry, in comparable form.

    Closes the pipeline first, and reads the per-node records last node
    first: the batch core builds a node's records on its first read.
    """
    pipeline.close()
    network = pipeline.network
    injector = pipeline.fault_injector
    # One wormhole detector serves every cascade of the trial.
    wormhole = pipeline.agents[0].filter_cascade.wormhole_detector
    return {
        "events": pipeline.engine.events_processed,
        "now": pipeline.engine.now(),
        "deliveries": network.stats.deliveries,
        "faults": None if injector is None else injector.counters(),
        "outcomes": [
            [(o.detecting_id, o.target_id, o.decision) for o in b.probe_outcomes]
            for b in reversed(pipeline.benign_beacons)
        ][::-1],
        "alerted_targets": [
            sorted(b.alerted_targets) for b in pipeline.benign_beacons
        ],
        "references": [
            [
                (r.beacon_id, r.beacon_location, r.measured_distance_ft,
                 r.received_at)
                for r in a.references
            ]
            for a in reversed(pipeline.agents)
        ][::-1],
        "estimates": [a.estimated_position for a in pipeline.agents],
        "nonces": [
            node._next_nonce
            for node in (*pipeline.benign_beacons, *pipeline.agents)
        ],
        "rejected_replays": [a.rejected_replays for a in pipeline.agents],
        "local_replay": [
            (window.checks, window.flagged)
            for window in (
                a.filter_cascade.local_replay_detector for a in pipeline.agents
            )
        ],
        "wormhole": (wormhole.checks, wormhole.flags),
        "alerts": pipeline.base_station.log,
        "diagnostics": (
            [b.detector.diagnostics() for b in pipeline.benign_beacons]
            if pipeline.detector is None
            else pipeline.detector.diagnostics()
        ),
    }


def _drops(pipeline):
    """The ordered ``drop.*`` trace: time, kind and every field."""
    return [
        (event.time, event.kind, event.fields)
        for event in pipeline.trace
        if event.kind.startswith("drop.")
    ]


def _probes(pipeline):
    """The ordered ``probe`` trace, ``signal_consistent`` included."""
    return [
        (event.time, event.fields)
        for event in pipeline.trace
        if event.kind == "probe"
    ]


def _verdicts(pipeline):
    """The ordered ``probe``, ``alert`` and ``revoke`` stream, interleaved.

    Each alert follows the probe that raised it, and each revocation
    the alert that crossed the threshold.
    """
    return [
        (event.time, event.kind, event.fields)
        for event in pipeline.trace
        if event.kind in ("probe", "alert", "revoke")
    ]


def _assert_streams_recorded(pipeline):
    """A trace comparison must not pass on empty streams.

    Checked against counters kept outside the trace: one ``probe``
    event per probe outcome, and a ``drop.*`` event per copy lost to
    packet loss. Every case sends probes, so at least one of the two
    streams holds events.
    """
    outcomes = sum(len(b.probe_outcomes) for b in pipeline.benign_beacons)
    injector = pipeline.fault_injector
    counters = {} if injector is None else injector.counters()
    lost = counters.get("fault_packet_loss", 0)
    assert pipeline._probes_sent > 0
    assert outcomes + lost > 0
    assert len(_probes(pipeline)) == outcomes
    assert len(_drops(pipeline)) >= lost


@pytest.mark.parametrize("name,detector", PARITY)
def test_vectorized_core_reproduces_scalar_trial(name, detector):
    config = replace(CASES[name], detector=detector)
    scalar_pipeline, scalar_result = _run(config, vectorized=False)
    vec_pipeline, vec_result = _run(config, vectorized=True)

    assert not scalar_pipeline._vec_active
    assert vec_pipeline._vec_active

    # The headline contract: the PipelineResult compares equal — every
    # rate, counter, and the full localization-error list, to the bit.
    assert vec_result == scalar_result
    assert list(vec_result.localization_errors_ft) == list(
        scalar_result.localization_errors_ft
    )
    assert _sim_state(vec_pipeline) == _sim_state(scalar_pipeline)
    assert len(vec_pipeline.trace) == len(scalar_pipeline.trace) == 0

    # Observed, both cores record the same ordered streams. A lost copy
    # names the packet's src_id (on a probe, the detecting ID); an
    # out-of-range packet names its sender.
    observed = replace(config, observe=ObserveConfig())
    scalar_observed, _ = _run(observed, vectorized=False)
    vec_observed, _ = _run(observed, vectorized=True)
    _assert_streams_recorded(scalar_observed)
    assert _drops(vec_observed) == _drops(scalar_observed)
    assert _probes(vec_observed) == _probes(scalar_observed)
    assert _verdicts(vec_observed) == _verdicts(scalar_observed)


@pytest.mark.parametrize("detector", available_detectors())
def test_observed_rtt_histograms_match(detector):
    """Every RTT a detector asks for reaches the observer, in order."""
    config = replace(
        CASES["turbo-faults"], detector=detector, observe=ObserveConfig()
    )

    def histograms(vectorized):
        pipeline, result = _run(config, vectorized=vectorized)
        snapshot = pipeline.obs.registry.snapshot()["histograms"]
        rtt = {k: v for k, v in snapshot.items() if k.startswith("rtt_cycles")}
        return result, rtt

    scalar_result, scalar_rtt = histograms(False)
    vec_result, vec_rtt = histograms(True)
    assert vec_result == scalar_result
    assert 'rtt_cycles{kind="exchange"}' in scalar_rtt
    # The sum is order-sensitive, so it pins the observation order too.
    assert vec_rtt == scalar_rtt


def test_lossy_cases_drop_copies():
    """The loss cases must really lose copies, or parity is vacuous."""
    pipeline, _ = _run(
        replace(CASES["turbo-faults-loss"], observe=ObserveConfig()),
        vectorized=True,
    )
    kinds = {kind for _, kind, _ in _drops(pipeline)}
    assert "drop.fault" in kinds
    counters = pipeline.fault_injector.counters()
    assert counters["fault_packet_loss"] > 0
    assert counters["fault_rtt_jitter"] > 0
    # The jitter pushes some honest RTTs past the calibrated window.
    assert any(a.rejected_replays for a in pipeline.agents)


@pytest.mark.parametrize("vectorized", [True, False], ids=["batch", "scalar"])
def test_uncalibrated_local_replay_window_raises(vectorized):
    pipeline = SecureLocalizationPipeline(
        replace(BASE, use_vectorized_core=vectorized)
    ).build()
    for agent in pipeline.agents:
        agent.filter_cascade.local_replay_detector = LocalReplayDetector(None)
    with pytest.raises(CalibrationError):
        pipeline.run()


#: Short case ids of the fault fields; a new field runs under its name.
SHORT_IDS = {"packet_loss_rate": "loss", "rtt_jitter_cycles": "jitter"}


@pytest.mark.parametrize(
    "overrides",
    [
        # Every FaultConfig field switched on alone, so a fault field the
        # batch core does not take fails here.
        *(
            pytest.param(
                dict(faults=FaultConfig(**{f.name: 0.1})),
                id=SHORT_IDS.get(f.name, f.name),
            )
            for f in fields(FaultConfig)
        ),
        pytest.param(dict(faults=FaultConfig()), id="all-zero"),
    ],
)
def test_batch_core_takes_loss_and_rtt_faults(overrides):
    config = replace(BASE, **overrides)
    assert vectorized_core_supported(config)
    assert SecureLocalizationPipeline(config)._vectorized_active()

"""Pipeline-level guarantees of the observability layer.

The contract under test:

- **off = bit-identical**: ``observe=None`` and an observed run draw the
  same random numbers, so the :class:`PipelineResult` matches exactly —
  across seeds, wormhole placement, and fault injection;
- observation is *additive*: the observed run also yields spans for
  every phase, Figure-4-style RTT histograms, and the §3.1 alert/report
  counters via ``telemetry()``;
- ``telemetry()`` on an unobserved pipeline is an empty dict, not an
  error;
- one timer: the ``phase:*`` spans time every trial, observed or not,
  and ``profile_snapshot()`` reads its phases from them; its counters
  and the registry's ``net_*`` series agree.
"""

import pytest

from repro.core.pipeline import (
    PipelineConfig,
    SecureLocalizationPipeline,
)
from repro.errors import BudgetExceededError
from repro.faults import FaultConfig
from repro.obs import ObserveConfig


def small_config(**overrides):
    """A scaled-down deployment that keeps tests fast."""
    defaults = dict(
        n_total=220,
        n_beacons=40,
        n_malicious=4,
        field_width_ft=500.0,
        field_height_ft=500.0,
        m_detecting_ids=4,
        rtt_calibration_samples=500,
        wormhole_endpoints=((50.0, 50.0), (400.0, 350.0)),
        seed=5,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


SCENARIOS = [
    pytest.param(dict(seed=5), id="wormhole-seed5"),
    pytest.param(dict(seed=17), id="wormhole-seed17"),
    pytest.param(dict(seed=5, wormhole_endpoints=None), id="benign-seed5"),
    pytest.param(
        dict(seed=5, faults=FaultConfig(packet_loss_rate=0.2)),
        id="faulted-seed5",
    ),
    pytest.param(
        dict(
            seed=17,
            faults=FaultConfig(packet_loss_rate=0.1, rtt_jitter_cycles=10.0),
        ),
        id="faulted-seed17",
    ),
]


class TestObserveOffBitIdentical:
    @pytest.mark.parametrize("overrides", SCENARIOS)
    def test_observed_equals_unobserved(self, overrides):
        baseline = SecureLocalizationPipeline(small_config(**overrides)).run()
        observed = SecureLocalizationPipeline(
            small_config(observe=ObserveConfig(), **overrides)
        ).run()
        assert observed == baseline

    def test_unobserved_telemetry_is_empty(self):
        pipeline = SecureLocalizationPipeline(small_config())
        pipeline.run()
        assert pipeline.telemetry() == {}


class TestObservedTelemetry:
    @pytest.fixture(scope="class")
    def telemetry(self):
        pipeline = SecureLocalizationPipeline(
            small_config(observe=ObserveConfig())
        )
        pipeline.run()
        return pipeline.telemetry()

    def test_every_phase_has_a_span(self, telemetry):
        names = {span["name"] for span in telemetry["spans"]}
        assert names == {
            "trial",
            "phase:build",
            "phase:collusion",
            "phase:detection",
            "phase:notices",
            "phase:localization",
            "phase:metrics",
        }

    def test_trial_span_is_root(self, telemetry):
        trial = [s for s in telemetry["spans"] if s["name"] == "trial"][0]
        assert trial["parent"] == 0
        phases = [s for s in telemetry["spans"] if s["name"] != "trial"]
        assert all(span["parent"] == trial["id"] for span in phases)

    def test_rtt_histograms_present(self, telemetry):
        histograms = telemetry["registry"]["histograms"]
        calibration = histograms['rtt_cycles{kind="calibration"}']
        exchange = histograms['rtt_cycles{kind="exchange"}']
        assert calibration["count"] == 500  # rtt_calibration_samples
        assert exchange["count"] > 0
        # The honest-RTT band (~15.5-17.2k cycles) lands inside the fixed
        # bucket layout, not in the +Inf overflow slot.
        assert calibration["counts"][-1] == 0

    def test_section3_counters_present(self, telemetry):
        counters = telemetry["registry"]["counters"]
        accepted = sum(
            value
            for key, value in counters.items()
            if key.startswith("alerts_total{") and 'accepted="true"' in key
        )
        assert accepted > 0
        assert counters["revocations_total"] > 0
        assert counters["probes_sent_total"] > 0
        assert counters["sim_events_total"] > 0
        assert counters["net_deliveries_total"] > 0

    def test_report_counters_present(self, telemetry):
        gauges = telemetry["registry"]["gauges"]
        assert any(key.startswith("bs_alert_counter{") for key in gauges)
        assert any(key.startswith("bs_report_counter{") for key in gauges)

    def test_span_events_in_event_stream(self, telemetry):
        kinds = [event["kind"] for event in telemetry["events"]]
        assert kinds.count("span.begin") == 7
        assert kinds.count("span.end") == 7


class TestObserveKnobs:
    def test_rtt_histograms_off(self):
        # RTT histograms are collected exactly when the trial is observed.
        pipeline = SecureLocalizationPipeline(small_config())
        pipeline.run()
        assert pipeline.network.rtt_observer is None
        assert pipeline.obs.registry.snapshot()["histograms"] == {}

    def test_observe_rejects_non_config(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            small_config(observe={"metrics": True})


PHASES = ("build", "collusion", "detection", "notices", "localization", "metrics")

#: profile_snapshot() counter -> registry series of the same count.
NETWORK_SERIES = {
    "deliveries": "net_deliveries_total",
    "distance_evals": "net_distance_evals_total",
    "grid_cells_visited": "net_grid_cells_visited_total",
    "spatial_queries": "net_spatial_queries_total",
}
#: Counters benchmarks/e2e/workload.py reads from every pipeline trial.
BENCHMARK_COUNTERS = (
    "deliveries",
    "distance_evals",
    "spatial_queries",
    "vec_deliveries",
    "vec_waves",
)


class TestOneTimer:
    def test_profile_phases_are_the_phase_span_durations(self):
        pipeline = SecureLocalizationPipeline(
            small_config(observe=ObserveConfig())
        )
        pipeline.run()
        summed = {}
        for span in pipeline.telemetry()["spans"]:
            if span["name"].startswith("phase:"):
                name = span["name"][len("phase:"):]
                summed[name] = summed.get(name, 0.0) + span["dur_wall_s"]
        assert pipeline.profile_snapshot()["phases"] == summed
        assert set(summed) == set(PHASES)

    def test_re_entered_phase_names_sum(self):
        pipeline = SecureLocalizationPipeline(small_config())
        for _ in range(2):
            with pipeline.obs.span("phase:build"):
                pipeline.build()
        durations = [span["dur_wall_s"] for span in pipeline.obs.spans]
        assert pipeline.profile_snapshot()["phases"] == {
            "build": durations[0] + durations[1]
        }

    def test_failed_phase_is_still_timed(self):
        pipeline = SecureLocalizationPipeline(small_config(max_events=50))
        with pytest.raises(BudgetExceededError):
            pipeline.run()
        assert set(pipeline.profile_snapshot()["phases"]) == {
            "build",
            "collusion",
            "detection",
        }

    def test_unobserved_trial_times_every_phase_and_exports_nothing(self):
        for vectorized in (True, False):
            pipeline = SecureLocalizationPipeline(
                small_config(use_vectorized_core=vectorized)
            )
            pipeline.run()
            phases = pipeline.profile_snapshot()["phases"]
            assert set(phases) == set(PHASES)
            assert all(seconds >= 0.0 for seconds in phases.values())
            # No protocol event and no span marker reaches the trace.
            assert len(pipeline.trace) == 0
            assert pipeline.obs.registry.snapshot()["counters"] == {}
            assert pipeline.telemetry() == {}

    @pytest.mark.parametrize(
        "overrides, keys",
        [
            pytest.param({}, BENCHMARK_COUNTERS, id="default"),
            pytest.param(
                dict(
                    faults=FaultConfig(
                        packet_loss_rate=0.05, rtt_jitter_cycles=250.0
                    )
                ),
                BENCHMARK_COUNTERS + ("fault_packet_loss", "fault_rtt_jitter"),
                id="faulted",
            ),
        ],
    )
    def test_profile_has_the_counters_the_benchmark_reads(self, overrides, keys):
        pipeline = SecureLocalizationPipeline(small_config(**overrides))
        pipeline.run()
        counters = pipeline.profile_snapshot()["counters"]
        for key in keys:
            assert counters[key] > 0, key

    def test_profile_counters_match_the_registry_series(self):
        # The scalar network counts every delivery and spatial query.
        pipeline = SecureLocalizationPipeline(
            small_config(use_vectorized_core=False, observe=ObserveConfig())
        )
        pipeline.run()
        profile = pipeline.profile_snapshot()["counters"]
        registry = pipeline.telemetry()["registry"]["counters"]
        for key, series in NETWORK_SERIES.items():
            assert profile[key] == registry[series], key

"""Sweep-replay identity: service decisions equal the in-process run."""

import pytest

from repro.core.pipeline import PipelineConfig
from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.experiments.runner import ExperimentRunner
from repro.revocation import (
    capture_stream,
    capture_streams,
    make_backend,
    replay_stream,
    replay_sweep,
)


def small_config(seed):
    """A reduced deployment that still raises a handful of alerts."""
    return PipelineConfig(
        n_total=160,
        n_beacons=24,
        n_malicious=4,
        rtt_calibration_samples=200,
        seed=seed,
    )


@pytest.fixture(scope="module")
def sweep_streams():
    """Captured alert streams of a small Monte-Carlo sweep (3 trials)."""
    return capture_streams([small_config(seed) for seed in range(3)])


class TestCapture:
    def test_capture_freezes_ground_truth(self, sweep_streams):
        stream = sweep_streams[0]
        assert stream.key == "seed=0"
        assert len(stream.alerts) == len(stream.expected_log)
        assert stream.alerts, "reduced deployment should still raise alerts"
        # Pipeline streams are MAC-authenticated before submission, so
        # the captured ground truth never contains bad-auth rejections.
        assert all(
            reason != "bad-auth" for _, reason in stream.expected_log
        )

    def test_capture_through_runner_matches_serial(self, sweep_streams):
        runner = ExperimentRunner(n_workers=2)
        parallel = capture_streams(
            [small_config(seed) for seed in range(3)], runner
        )
        assert parallel == list(sweep_streams)


class TestSweepReplayIdentity:
    @pytest.mark.parametrize("batch_size", [1, 8, 128])
    def test_identical_for_any_batch_size(self, sweep_streams, batch_size):
        for report in replay_sweep(sweep_streams, batch_size=batch_size):
            assert report.identical, report.to_dict()

    @pytest.mark.parametrize("restart_fraction", [0.0, 0.5, 1.0])
    def test_identical_with_injected_restart(
        self, sweep_streams, restart_fraction
    ):
        reports = replay_sweep(
            sweep_streams,
            batch_size=8,
            restart_fraction=restart_fraction,
            snapshot_every=10,
        )
        for report in reports:
            assert report.identical, report.to_dict()
            assert report.restart_after is not None

    @pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
    def test_identical_on_durable_backends(
        self, sweep_streams, tmp_path, kind
    ):
        stream = sweep_streams[0]
        backend = make_backend(kind, tmp_path / kind)
        try:
            report = replay_stream(
                stream,
                backend=backend,
                batch_size=8,
                restart_after=len(stream.alerts) // 2,
            )
            assert report.identical, report.to_dict()
        finally:
            backend.close()

    def test_report_shape(self, sweep_streams):
        report = replay_stream(sweep_streams[0])
        data = report.to_dict()
        assert data["identical"] is True
        assert data["backend"] == "memory"
        assert data["n_alerts"] == len(sweep_streams[0].alerts)
        assert data["mismatches"] == []

    def test_divergence_is_reported(self, sweep_streams):
        stream = sweep_streams[0]
        tampered = type(stream)(
            key=stream.key,
            tau_report=stream.tau_report,
            tau_alert=stream.tau_alert,
            alerts=stream.alerts,
            expected_log=((not stream.expected_log[0][0], "tampered"),)
            + stream.expected_log[1:],
            expected_state=dict(stream.expected_state, revoked=[999]),
        )
        report = replay_stream(tampered)
        assert not report.identical
        assert not report.decisions_match
        assert not report.state_match
        assert report.mismatches

    def test_restart_bounds_checked(self, sweep_streams):
        with pytest.raises(ConfigurationError):
            replay_stream(sweep_streams[0], restart_after=-1)
        with pytest.raises(ConfigurationError):
            replay_sweep(sweep_streams, restart_fraction=1.5)


class TestDeterminism:
    def test_capture_is_deterministic(self):
        assert capture_stream(small_config(1)) == capture_stream(
            small_config(1)
        )


class TestCli:
    def test_revocation_target_passes(self, capsys):
        assert main(["revocation", "--trials", "1"]) == 0
        err = capsys.readouterr().err
        assert "0 divergence(s)" in err

    def test_revocation_target_durable_with_restart(self, tmp_path):
        assert (
            main(
                [
                    "revocation",
                    "--trials",
                    "1",
                    "--persistence",
                    "sqlite",
                    "--state-dir",
                    str(tmp_path),
                    "--restart-fraction",
                    "0.5",
                    "--quiet",
                ]
            )
            == 0
        )
        assert (tmp_path / "stream-0").exists()

"""Cross-process trace propagation through the file-queue backend.

The acceptance bar from the live-telemetry plane: an observed queue run
leaves per-process span event logs (coordinator + one per worker) whose
worker roots name the coordinator ``task:*`` span that caused them, all
under one trace id — and ``tools/stitch_trace.py`` folds those logs
(plus a revocation replay's) into a single Perfetto trace with
cross-process flow edges, validated by the same checker CI runs.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from repro.core.pipeline import PipelineConfig
from repro.experiments.runner import ExperimentRunner
from repro.obs import ObserveConfig, TraceContext

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

#: Small enough for sub-second pipeline runs; still a real deployment.
SMALL = dict(
    n_total=120,
    n_beacons=20,
    n_malicious=2,
    field_width_ft=400.0,
    field_height_ft=400.0,
    m_detecting_ids=2,
    rtt_calibration_samples=200,
    wormhole_endpoints=None,
)


def _load_tool(name):
    """Import a tools/ script as a module (they are not a package)."""
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _span_records(path):
    return [
        record
        for record in map(json.loads, path.read_text().splitlines())
        if record.get("kind") == "span"
    ]


@pytest.fixture(scope="module")
def observed_run(tmp_path_factory):
    """One observed 2-worker queue run; (runner, run_dir, results)."""
    queue_dir = tmp_path_factory.mktemp("queue")
    configs = [PipelineConfig(seed=s, **SMALL) for s in (31, 32, 33, 34)]
    with ExperimentRunner(
        backend="queue", n_workers=2, queue_dir=queue_dir, observe=True
    ) as runner:
        results = runner.run_pipeline_configs(configs)
    return runner, next(queue_dir.glob("run-*")), results


class TestQueueEventLogs:
    def test_logs_written_per_process(self, observed_run):
        _, run_dir, _ = observed_run
        assert (run_dir / "coordinator.events.jsonl").exists()
        worker_logs = sorted((run_dir / "workers").glob("*.events.jsonl"))
        assert worker_logs, "observed workers must log their spans"

    def test_worker_roots_link_to_coordinator_spans(self, observed_run):
        runner, run_dir, _ = observed_run
        coordinator_ids = {
            record["id"]
            for record in _span_records(run_dir / "coordinator.events.jsonl")
        }
        assert coordinator_ids  # one task:* span per trial
        roots = []
        for log in (run_dir / "workers").glob("*.events.jsonl"):
            for record in _span_records(log):
                worker = log.name.split(".", 1)[0]
                assert str(record["id"]).startswith(f"{worker}:")
                if record["parent"] == 0:
                    roots.append(record)
        assert len(roots) == 4  # one trial root per config
        for root in roots:
            assert root["trace_id"] == runner.stats.trace_id
            assert root["remote_parent"] in coordinator_ids

    def test_coordinator_spans_share_the_trace_id(self, observed_run):
        runner, run_dir, _ = observed_run
        records = _span_records(run_dir / "coordinator.events.jsonl")
        assert {r["trial"] for r in records} == {"coordinator"}
        assert {r.get("trace_id") for r in records} == {runner.stats.trace_id}

    def test_results_unchanged_by_tracing(self, observed_run):
        _, _, results = observed_run
        configs = [PipelineConfig(seed=s, **SMALL) for s in (31, 32, 33, 34)]
        assert ExperimentRunner().run_pipeline_configs(configs) == results


class TestSpanIdUniqueness:
    def test_four_worker_fleet_never_reuses_a_span_id(self, tmp_path):
        # Regression: per-trial serial counters once restarted at 1 for
        # every task, so two trials on one worker both minted "w0:1".
        configs = [PipelineConfig(seed=s, **SMALL) for s in range(41, 49)]
        with ExperimentRunner(
            backend="queue", n_workers=4, queue_dir=tmp_path, observe=True
        ) as runner:
            runner.run_pipeline_configs(configs)
        run_dir = next(tmp_path.glob("run-*"))
        ids = []
        for log in (run_dir / "workers").glob("*.events.jsonl"):
            ids.extend(record["id"] for record in _span_records(log))
        assert ids and len(ids) == len(set(ids))


class TestStitchedTrace:
    @pytest.fixture(scope="class")
    def revocation_log(self, observed_run, tmp_path_factory):
        """A revocation replay joined to the queue run's trace."""
        from repro.revocation import capture_stream, replay_stream

        runner, _, _ = observed_run
        events_log = tmp_path_factory.mktemp("svc") / "revocation.events.jsonl"
        stream = capture_stream(
            PipelineConfig(seed=31, **{**SMALL, "n_malicious": 4})
        )
        report = replay_stream(
            stream,
            observe=ObserveConfig(),
            events_log=events_log,
            trace_context=TraceContext(
                trace_id=runner.stats.trace_id, parent_span_id="coord:1"
            ),
        )
        assert report.identical
        return events_log

    def test_one_trace_with_cross_process_edges(
        self, observed_run, revocation_log, tmp_path
    ):
        runner, run_dir, _ = observed_run
        stitch_trace = _load_tool("stitch_trace")
        problems = []
        paths = stitch_trace.collect_run_dir(run_dir) + [revocation_log]
        spans = stitch_trace.load_span_lines(paths, problems)
        document = stitch_trace.stitch(spans, problems)
        assert problems == []
        summary = document["stitchSummary"]
        assert summary["trace_ids"] == [runner.stats.trace_id]
        assert "coord" in summary["processes"]
        assert "svc" in summary["processes"]
        assert any(p.startswith("w") for p in summary["processes"])
        # Every remote-parented root became one s->f flow pair.
        roots = [s for s in spans if s.get("remote_parent")]
        assert summary["edges"] == len(roots) >= 5
        flows = [e for e in document["traceEvents"] if e["ph"] in ("s", "f")]
        assert len(flows) == 2 * summary["edges"]

        # The stitched artifact satisfies the CI telemetry checker.
        out = tmp_path / "stitched.json"
        out.write_text(json.dumps(document))
        check = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "check_telemetry.py"),
                "--chrome",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert check.returncode == 0, check.stdout + check.stderr

    def test_missing_parent_log_is_an_error_unless_allowed(
        self, observed_run
    ):
        _, run_dir, _ = observed_run
        stitch_trace = _load_tool("stitch_trace")
        worker_logs = sorted((run_dir / "workers").glob("*.events.jsonl"))
        problems = []
        spans = stitch_trace.load_span_lines(worker_logs, problems)
        stitch_trace.stitch(spans, problems)
        assert any("remote parent" in p for p in problems)
        lenient = []
        document = stitch_trace.stitch(spans, lenient, allow_dangling=True)
        assert lenient == []
        assert document["stitchSummary"]["edges"] == 0

    def test_cli_end_to_end(self, observed_run, revocation_log, tmp_path):
        _, run_dir, _ = observed_run
        out = tmp_path / "stitched.json"
        check = subprocess.run(
            [
                sys.executable,
                str(REPO_ROOT / "tools" / "stitch_trace.py"),
                "--run-dir",
                str(run_dir),
                str(revocation_log),
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert check.returncode == 0, check.stdout + check.stderr
        assert "cross-process edge(s)" in check.stdout
        assert json.loads(out.read_text())["traceEvents"]


class TestTelemetryCli:
    def test_telemetry_port_flag_reaches_runner(self):
        from repro.experiments.cli import build_parser, make_runner

        args = build_parser().parse_args(
            ["figure05", "--telemetry-port", "0"]
        )
        with make_runner(args) as runner:
            assert runner.telemetry_server is not None
            assert runner.telemetry_server.port > 0
        assert runner.telemetry_server is None  # close() stopped it

    def test_telemetry_off_by_default(self):
        from repro.experiments.cli import build_parser, make_runner

        args = build_parser().parse_args(["figure05"])
        with make_runner(args) as runner:
            assert runner.telemetry_server is None

"""Live telemetry plane: trace contexts, namespaced ids, scrape server.

The contracts pinned here keep stitched traces trustworthy: span ids
minted under a namespace never repeat within a process (a stitched trace
with duplicate ids cannot resolve its cross-process edges), trace
contexts survive a serialize/deserialize round trip through a task
manifest, and the scrape endpoints answer with well-formed payloads —
including the 503 an unhealthy service must return so probes notice.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.obs import (
    MetricsRegistry,
    Observability,
    SpanRing,
    TelemetryServer,
    TraceContext,
    new_trace_id,
    process_span_namespace,
    process_trace_context,
    queue_liveness_snapshot,
    set_process_span_namespace,
    set_process_trace_context,
    span_event_lines,
)
from repro.obs.live import append_event_lines, namespace_counter


@pytest.fixture(autouse=True)
def _clean_process_state():
    """Never leak a namespace or trace context into other tests."""
    previous_namespace = process_span_namespace()
    previous_context = process_trace_context()
    yield
    set_process_span_namespace(previous_namespace)
    set_process_trace_context(previous_context)


class TestTraceContext:
    def test_round_trip(self):
        context = TraceContext(trace_id="abc123", parent_span_id="coord:4")
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_default_parent_is_root(self):
        context = TraceContext(trace_id="abc123")
        assert context.parent_span_id == ""
        assert context.to_dict() == {
            "trace_id": "abc123",
            "parent_span_id": "",
        }

    @pytest.mark.parametrize(
        "data", [{}, {"trace_id": ""}, {"trace_id": None}, {"trace_id": 7}]
    )
    def test_bad_trace_id_rejected(self, data):
        with pytest.raises(ConfigurationError):
            TraceContext.from_dict(data)

    def test_new_trace_id_is_hex_and_unique(self):
        ids = {new_trace_id() for _ in range(16)}
        assert len(ids) == 16
        for trace_id in ids:
            assert len(trace_id) == 32
            int(trace_id, 16)  # raises on non-hex


class TestProcessState:
    def test_namespace_set_get_clear(self):
        set_process_span_namespace("w3")
        assert process_span_namespace() == "w3"
        set_process_span_namespace(None)
        assert process_span_namespace() is None

    def test_trace_context_set_get_clear(self):
        context = TraceContext(trace_id=new_trace_id(), parent_span_id="c:1")
        set_process_trace_context(context)
        assert process_trace_context() == context
        set_process_trace_context(None)
        assert process_trace_context() is None

    def test_namespace_counter_shared_across_observabilities(self):
        # Two trials in one worker process must not both mint "<ns>:1";
        # the serial counter is per-namespace process state.
        namespace = "test-shared-ns"
        first = Observability(namespace=namespace)
        with first.span("trial"):
            pass
        second = Observability(namespace=namespace)
        with second.span("trial"):
            pass
        assert first.spans[0]["id"] == f"{namespace}:1"
        assert second.spans[0]["id"] == f"{namespace}:2"

    def test_namespace_counters_independent(self):
        assert next(namespace_counter("test-ns-a")) == 1
        assert next(namespace_counter("test-ns-b")) == 1
        assert next(namespace_counter("test-ns-a")) == 2


class TestNamespacedObservability:
    def test_namespaced_ids_and_parent_links(self):
        obs = Observability(namespace="test-links")
        with obs.span("trial"):
            with obs.span("phase:build"):
                pass
        build, trial = obs.spans
        assert trial["id"] == "test-links:1"
        assert build["id"] == "test-links:2"
        assert build["parent"] == trial["id"]
        assert trial["parent"] == 0  # local root stays a root

    def test_trace_context_lands_on_root_attrs_only(self):
        context = TraceContext(trace_id="feed0", parent_span_id="coord:9")
        obs = Observability(namespace="test-ctx", trace_context=context)
        with obs.span("trial"):
            with obs.span("phase:build"):
                pass
        build, trial = obs.spans
        assert trial["attrs"]["trace_id"] == "feed0"
        assert trial["attrs"]["remote_parent"] == "coord:9"
        assert "trace_id" not in build["attrs"]
        assert "remote_parent" not in build["attrs"]

    def test_rootless_context_omits_remote_parent(self):
        context = TraceContext(trace_id="feed1")
        obs = Observability(namespace="test-root", trace_context=context)
        with obs.span("trial"):
            pass
        attrs = obs.spans[0]["attrs"]
        assert attrs["trace_id"] == "feed1"
        assert "remote_parent" not in attrs

    def test_process_defaults_adopted_at_construction(self):
        context = TraceContext(trace_id="feed2", parent_span_id="coord:1")
        set_process_span_namespace("test-ambient")
        set_process_trace_context(context)
        obs = Observability()
        assert obs.namespace == "test-ambient"
        assert obs.trace_context == context

    def test_telemetry_carries_stitching_fields(self):
        context = TraceContext(trace_id="feed3", parent_span_id="coord:2")
        obs = Observability(namespace="test-telemetry", trace_context=context)
        with obs.span("trial"):
            pass
        telemetry = obs.telemetry()
        assert telemetry["process"] == "test-telemetry"
        assert telemetry["trace"] == context.to_dict()
        assert telemetry["wall0_epoch"] > 0

    def test_unnamespaced_ids_stay_plain_ints(self):
        obs = Observability()
        with obs.span("trial"):
            pass
        assert obs.spans[0]["id"] == 1
        telemetry = obs.telemetry()
        assert "process" not in telemetry and "trace" not in telemetry


class TestSpanRing:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            SpanRing(capacity=0)

    def test_append_extend_and_eviction(self):
        ring = SpanRing(capacity=3)
        ring.append({"id": 1})
        ring.extend([{"id": 2}, {"id": 3}, {"id": 4}])
        assert [span["id"] for span in ring.recent()] == [2, 3, 4]

    def test_recent_returns_copies(self):
        ring = SpanRing()
        ring.append({"id": 1})
        ring.recent()[0]["id"] = 99
        assert ring.recent() == [{"id": 1}]


def _scrape(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


class TestTelemetryServer:
    def test_metrics_healthz_spans_endpoints(self):
        registry = MetricsRegistry()
        registry.counter("queue_tasks_total").inc(5)
        registry.gauge("queue_depth").set(2)
        server = TelemetryServer(
            registry.snapshot,
            spans_fn=lambda: [{"id": "w0:1", "name": "trial"}],
        )
        with server:
            assert server.port > 0 and server.url.startswith("http://")
            status, body = _scrape(server.url + "/metrics")
            assert status == 200
            assert "queue_tasks_total 5" in body.splitlines()
            assert "queue_depth 2" in body.splitlines()
            status, body = _scrape(server.url + "/healthz")
            assert status == 200
            assert json.loads(body) == {"status": "ok"}
            status, body = _scrape(server.url + "/spans")
            assert status == 200
            assert json.loads(body) == [{"id": "w0:1", "name": "trial"}]

    def test_unhealthy_returns_503(self):
        server = TelemetryServer(health_fn=lambda: {"status": "down"})
        with server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _scrape(server.url + "/healthz")
            # The HTTPError wraps the live response socket; close it.
            with excinfo.value as error:
                assert error.code == 503
                assert json.loads(error.read()) == {"status": "down"}

    def test_unknown_path_is_404(self):
        with TelemetryServer() as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _scrape(server.url + "/nope")
            with excinfo.value as error:
                assert error.code == 404

    def test_stop_idempotent_and_restartable(self):
        server = TelemetryServer().start()
        port = server.port
        server.stop()
        server.stop()  # idempotent
        assert server.port == 0 and server.url == ""
        with server:  # a stopped server can serve again
            assert server.port > 0
        assert port > 0


class TestQueueLivenessSnapshot:
    def _layout(self, root, tasks=(), results=(), leases=()):
        for name in ("tasks", "results", "leases"):
            (root / name).mkdir(parents=True, exist_ok=True)
        for task in tasks:
            (root / "tasks" / f"{task}.json").write_text("{}")
        for result in results:
            (root / "results" / f"{result}.json").write_text("{}")
        for lease in leases:
            (root / "leases" / f"{lease}.lease").write_text("{}")

    def test_counts_and_depth(self, tmp_path):
        self._layout(
            tmp_path,
            tasks=("000001", "000002", "000003"),
            results=("000001",),
            leases=("000002",),
        )
        snapshot = queue_liveness_snapshot(tmp_path, requeues=1)
        assert snapshot["counters"] == {
            "queue_tasks_total": 3,
            "queue_results_total": 1,
            "queue_requeues_total": 1,
        }
        assert snapshot["gauges"]["queue_depth"] == 2
        assert snapshot["gauges"]["queue_inflight_leases"] == 1
        assert snapshot["gauges"]["queue_heartbeat_age_seconds_max"] >= 0.0

    def test_heartbeat_age_uses_now(self, tmp_path):
        self._layout(tmp_path, leases=("000001",))
        mtime = (tmp_path / "leases" / "000001.lease").stat().st_mtime
        snapshot = queue_liveness_snapshot(tmp_path, now=mtime + 7.5)
        age = snapshot["gauges"]["queue_heartbeat_age_seconds_max"]
        assert age == pytest.approx(7.5, abs=0.01)

    def test_empty_run_dir_is_all_zero(self, tmp_path):
        snapshot = queue_liveness_snapshot(tmp_path)
        assert snapshot["gauges"]["queue_depth"] == 0
        assert snapshot["gauges"]["queue_heartbeat_age_seconds_max"] == 0.0

    def test_snapshot_merges_with_max_rule(self, tmp_path):
        from repro.obs import merge_snapshots

        self._layout(tmp_path, leases=("000001",))
        mtime = (tmp_path / "leases" / "000001.lease").stat().st_mtime
        young = queue_liveness_snapshot(tmp_path, now=mtime + 1.0)
        old = queue_liveness_snapshot(tmp_path, now=mtime + 9.0)
        merged = merge_snapshots([young, old])
        # _max gauges keep the worst heartbeat age instead of summing.
        assert merged["gauges"]["queue_heartbeat_age_seconds_max"] == (
            old["gauges"]["queue_heartbeat_age_seconds_max"]
        )


class TestSpanEventLines:
    def _telemetry(self):
        context = TraceContext(trace_id="feed4", parent_span_id="coord:3")
        obs = Observability(namespace="test-lines", trace_context=context)
        with obs.span("trial", seed=7):
            with obs.span("phase:build"):
                pass
        return obs.telemetry()

    def test_lines_are_stitchable_records(self):
        lines = span_event_lines(self._telemetry(), trial="seed=7")
        records = [json.loads(line) for line in lines]
        assert len(records) == 2
        for record in records:
            assert record["kind"] == "span"
            assert record["trial"] == "seed=7"
            assert record["process"] == "test-lines"
            assert record["t0_epoch_s"] > 0
            assert record["dur_s"] >= 0
        root = next(r for r in records if r["parent"] == 0)
        assert root["trace_id"] == "feed4"
        assert root["remote_parent"] == "coord:3"
        child = next(r for r in records if r["parent"] != 0)
        assert "remote_parent" not in child

    def test_epoch_anchor_applied(self):
        telemetry = self._telemetry()
        lines = span_event_lines(telemetry, trial="t")
        for line in lines:
            record = json.loads(line)
            assert record["t0_epoch_s"] >= telemetry["wall0_epoch"]

    def test_append_event_lines(self, tmp_path):
        path = tmp_path / "deep" / "events.jsonl"
        append_event_lines(path, ['{"kind": "span"}'])
        append_event_lines(path, [])  # no-op, no trailing garbage
        append_event_lines(path, ['{"kind": "span"}'])
        assert path.read_text().splitlines() == ['{"kind": "span"}'] * 2

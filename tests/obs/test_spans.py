"""Hierarchical spans: nesting, timing, trace events, exception tagging."""

import time

import pytest

from repro.obs import (
    Observability,
    ObserveConfig,
    SPAN_BEGIN,
    SPAN_END,
    active_span_of,
    tag_active_span,
)
from repro.sim.trace import TraceRecorder


class TestSpanNesting:
    def test_parent_child_links(self):
        obs = Observability()
        with obs.span("trial"):
            with obs.span("phase:build"):
                pass
            with obs.span("phase:detection"):
                pass
        names = [span["name"] for span in obs.spans]
        # Children close before the parent, so they are recorded first.
        assert names == ["phase:build", "phase:detection", "trial"]
        trial = obs.spans[-1]
        for child in obs.spans[:-1]:
            assert child["parent"] == trial["id"]
            assert child["depth"] == 1
        assert trial["parent"] == 0
        assert trial["depth"] == 0

    def test_current_span_tracks_stack(self):
        obs = Observability()
        assert obs.current_span is None
        with obs.span("outer"):
            assert obs.current_span == "outer"
            with obs.span("inner"):
                assert obs.current_span == "inner"
                assert obs.depth == 2
            assert obs.current_span == "outer"
        assert obs.current_span is None

    def test_attrs_recorded(self):
        obs = Observability()
        with obs.span("trial", seed=7):
            pass
        assert obs.spans[0]["attrs"] == {"seed": 7}


class TestSpanTiming:
    def test_sim_clock_sampled_at_entry_and_exit(self):
        clock = {"now": 0.0}
        obs = Observability(sim_clock=lambda: clock["now"])
        with obs.span("phase:detection"):
            clock["now"] = 42.0
        span = obs.spans[0]
        assert span["t0_sim"] == 0.0
        assert span["t1_sim"] == 42.0

    def test_wall_times_nonnegative_and_nested(self):
        obs = Observability()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = obs.spans
        assert inner["t0_wall_s"] >= outer["t0_wall_s"]
        assert inner["dur_wall_s"] >= 0.0
        assert outer["dur_wall_s"] >= inner["dur_wall_s"]

    def test_duration_covers_the_block(self):
        obs = Observability()
        with obs.span("work"):
            time.sleep(0.01)
        assert obs.spans[0]["dur_wall_s"] >= 0.01


class TestSpanTraceEvents:
    def test_begin_end_markers_recorded(self):
        trace = TraceRecorder(enabled=True)
        obs = Observability(trace=trace)
        with obs.span("trial"):
            with obs.span("phase:build"):
                pass
        kinds = [event.kind for event in trace]
        assert kinds == [SPAN_BEGIN, SPAN_BEGIN, SPAN_END, SPAN_END]
        begin = list(trace)[0]
        assert begin.fields["span"] == "trial"
        assert begin.fields["depth"] == 0

    def test_disabled_trace_records_nothing(self):
        obs = Observability()  # default recorder is disabled
        with obs.span("trial"):
            pass
        assert obs.spans  # spans still collected in memory


class TestExceptionTagging:
    def test_innermost_open_span_wins(self):
        obs = Observability()
        with pytest.raises(RuntimeError) as excinfo:
            with obs.span("trial"):
                with obs.span("phase:detection"):
                    raise RuntimeError("boom")
        assert active_span_of(excinfo.value) == "phase:detection"

    def test_first_tagger_wins(self):
        error = RuntimeError("x")
        tag_active_span(error, "inner")
        tag_active_span(error, "outer")
        assert active_span_of(error) == "inner"

    def test_untagged_exception_reads_empty(self):
        assert active_span_of(RuntimeError("x")) == ""

    def test_span_closes_on_exception(self):
        obs = Observability()
        with pytest.raises(ValueError):
            with obs.span("trial"):
                raise ValueError("x")
        assert len(obs.spans) == 1
        assert obs.current_span is None


class TestTelemetryPayload:
    def test_registry_and_spans(self):
        obs = Observability(config=ObserveConfig())
        obs.registry.counter("probes_sent_total").inc(3)
        with obs.span("trial"):
            pass
        payload = obs.telemetry()
        assert payload["registry"]["counters"] == {"probes_sent_total": 3}
        assert payload["spans"][0]["name"] == "trial"

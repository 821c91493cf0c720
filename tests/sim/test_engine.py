"""Tests for the discrete-event engine and clock."""

import pytest

from repro.errors import ScheduleError
from repro.sim.clock import Clock


class TestClock:
    def test_starts_at_zero(self):
        assert Clock().now() == 0.0

    def test_custom_start(self):
        assert Clock(start=10.0).now() == 10.0

    def test_negative_start_rejected(self):
        with pytest.raises(ScheduleError):
            Clock(start=-1.0)

    def test_advance(self):
        c = Clock()
        c.advance_to(5.0)
        assert c.now() == 5.0

    def test_advance_backwards_rejected(self):
        c = Clock(start=5.0)
        with pytest.raises(ScheduleError):
            c.advance_to(4.0)


class TestEngineScheduling:
    def test_schedule_and_run(self, engine):
        fired = []
        engine.schedule_at(10.0, lambda: fired.append(engine.now()))
        engine.run()
        assert fired == [10.0]

    def test_schedule_in_past_rejected(self, engine):
        engine.schedule_at(10.0, lambda: None)
        engine.run()
        with pytest.raises(ScheduleError):
            engine.schedule_at(5.0, lambda: None)

    def test_schedule_in_negative_delay_rejected(self, engine):
        with pytest.raises(ScheduleError):
            engine.schedule_in(-1.0, lambda: None)

    def test_time_ordering(self, engine):
        order = []
        engine.schedule_at(20.0, lambda: order.append("b"))
        engine.schedule_at(10.0, lambda: order.append("a"))
        engine.schedule_at(30.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_by_ticket(self, engine):
        order = []
        engine.schedule_at(10.0, lambda: order.append(1))
        engine.schedule_at(10.0, lambda: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_priority_breaks_ties(self, engine):
        order = []
        engine.schedule_at(10.0, lambda: order.append("low"), priority=200)
        engine.schedule_at(10.0, lambda: order.append("high"), priority=1)
        engine.run()
        assert order == ["high", "low"]

    def test_cancel(self, engine):
        fired = []
        event = engine.schedule_at(10.0, lambda: fired.append(1))
        event.cancel()
        engine.run()
        assert fired == []

    def test_events_scheduled_during_run(self, engine):
        fired = []

        def outer():
            engine.schedule_in(5.0, lambda: fired.append(engine.now()))

        engine.schedule_at(10.0, outer)
        engine.run()
        assert fired == [15.0]


class TestEngineExecution:
    def test_step_empty_queue(self, engine):
        assert engine.step() is False

    def test_run_returns_count(self, engine):
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda: None)
        assert engine.run() == 3
        assert engine.events_processed == 3

    def test_max_events(self, engine):
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda: None)
        assert engine.run(max_events=2) == 2
        assert engine.pending == 1

    def test_run_until(self, engine):
        fired = []
        for t in (1.0, 2.0, 3.0):
            engine.schedule_at(t, lambda t=t: fired.append(t))
        engine.run_until(2.0)
        assert fired == [1.0, 2.0]
        assert engine.now() == 2.0
        engine.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_run_until_advances_clock_when_idle(self, engine):
        engine.run_until(42.0)
        assert engine.now() == 42.0

    def test_stop_inside_callback(self, engine):
        fired = []
        engine.schedule_at(1.0, lambda: (fired.append(1), engine.stop()))
        engine.schedule_at(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1]
        # The rest is still runnable afterwards.
        engine.run()
        assert fired == [1, 2]

    def test_run_until_skips_cancelled_head(self, engine):
        event = engine.schedule_at(1.0, lambda: None)
        event.cancel()
        fired = []
        engine.schedule_at(2.0, lambda: fired.append(1))
        engine.run_until(3.0)
        assert fired == [1]

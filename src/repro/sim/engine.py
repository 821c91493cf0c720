"""The discrete-event simulation engine.

A classic calendar-queue design: events are ``(time, priority, seq)``-ordered
callbacks held in a binary heap. The engine owns the :class:`Clock`; running
an event advances the clock to the event's timestamp before the callback
fires, so callbacks always observe a consistent "now".
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.errors import BudgetExceededError, ScheduleError
from repro.sim.clock import Clock

#: Default priority; lower numbers run first among same-time events.
DEFAULT_PRIORITY = 100


@dataclass(order=True)
class Event:
    """A scheduled callback.

    Ordering is by ``(time, priority, seq)`` so that simultaneous events run
    in a deterministic order; ``seq`` is a monotonically increasing ticket.
    """

    time: float
    priority: int
    seq: int
    action: Callable[[], Any] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class Engine:
    """Event queue + simulation loop.

    Example:
        >>> engine = Engine()
        >>> fired = []
        >>> _ = engine.schedule_at(10.0, lambda: fired.append(engine.now()))
        >>> engine.run()
        >>> fired
        [10.0]
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        *,
        event_budget: Optional[int] = None,
    ) -> None:
        if event_budget is not None and event_budget < 1:
            raise ScheduleError(
                f"event_budget must be >= 1 or None, got {event_budget}"
            )
        self.clock = clock if clock is not None else Clock()
        #: Lifetime cap on executed events; ``None`` means unbounded. A
        #: scenario that keeps scheduling (a storm of relayed revocation
        #: notices) can in principle run without bound — the budget
        #: converts that into a :class:`repro.errors.BudgetExceededError`
        #: that the experiment runner records as a structured trial
        #: failure.
        self.event_budget = event_budget
        self._queue: List[Event] = []
        self._tickets = itertools.count()
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current simulation time (CPU cycles)."""
        return self.clock.now()

    @property
    def events_processed(self) -> int:
        """How many events have run so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still in the queue (including cancelled ones)."""
        return len(self._queue)

    def record_metrics(self, registry: Any) -> None:
        """Flush engine totals into a metrics registry (end of trial).

        Emits ``sim_events_total`` (events executed) and the
        ``sim_events_pending`` gauge (events still queued — nonzero means
        the run stopped before the calendar drained, e.g. on a budget).
        """
        registry.counter("sim_events_total").inc(self._events_processed)
        registry.gauge("sim_events_pending").inc(len(self._queue))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule_at(
        self,
        when: float,
        action: Callable[[], Any],
        *,
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to run at absolute time ``when``.

        Raises:
            ScheduleError: if ``when`` is before the current time.
        """
        if when < self.clock.now():
            raise ScheduleError(
                f"cannot schedule in the past: now={self.clock.now()}, when={when}"
            )
        event = Event(
            time=float(when),
            priority=priority,
            seq=next(self._tickets),
            action=action,
            label=label,
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_in(
        self,
        delay: float,
        action: Callable[[], Any],
        *,
        priority: int = DEFAULT_PRIORITY,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ScheduleError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(
            self.clock.now() + delay, action, priority=priority, label=label
        )

    def absorb_batch(self, events: int, advance_to: float) -> None:
        """Fold an externally simulated batch of events into the engine.

        The vectorized batch core (``repro.vec``) simulates whole phases
        without materializing :class:`Event` objects; it reports back the
        number of deliveries it emulated and the timestamp of the last
        one, so ``events_processed`` and the clock read exactly as if the
        calendar queue had executed the same schedule event by event.

        Args:
            events: emulated event count to add to ``events_processed``.
            advance_to: clock target; ignored when it is not ahead of now.

        Raises:
            ScheduleError: ``events`` is negative.
        """
        if events < 0:
            raise ScheduleError(f"events must be >= 0, got {events}")
        self._events_processed += events
        if advance_to > self.clock.now():
            self.clock.advance_to(advance_to)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next event.

        Returns:
            True if an event ran, False if the queue was empty.

        Raises:
            BudgetExceededError: the engine's ``event_budget`` is set and
                already spent — the queue still holds runnable events.
        """
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if (
                self.event_budget is not None
                and self._events_processed >= self.event_budget
            ):
                heapq.heappush(self._queue, event)
                raise BudgetExceededError(
                    f"event budget exhausted: {self._events_processed} events "
                    f"executed (budget {self.event_budget}), "
                    f"{len(self._queue)} still queued"
                )
            self.clock.advance_to(event.time)
            event.action()
            self._events_processed += 1
            return True
        return False

    def run(self, *, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` events have run).

        Returns:
            The number of events executed by this call.
        """
        executed = 0
        self._running = True
        try:
            while self._running:
                if max_events is not None and executed >= max_events:
                    break
                if not self.step():
                    break
                executed += 1
        finally:
            self._running = False
        return executed

    def run_until(self, deadline: float) -> int:
        """Run events with ``time <= deadline``; leave later events queued.

        The clock ends at ``deadline`` (or later if an executed event pushed
        it past — which cannot happen given the filter below).
        """
        executed = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > deadline:
                break
            self.step()
            executed += 1
        if self.clock.now() < deadline:
            self.clock.advance_to(deadline)
        return executed

    def stop(self) -> None:
        """Request that a :meth:`run` in progress stop after the current event."""
        self._running = False

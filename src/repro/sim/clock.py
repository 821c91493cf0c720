"""Simulation time bookkeeping.

Time is counted in **CPU clock cycles** of the modelled mote, matching the
paper's Figure 4 ("we use one CPU clock cycle as the basic unit to measure
the time"). The MICA mote's ATmega128 runs at roughly 7.37 MHz; the exact
constant only sets the speed of light in feet per cycle (the radio's and
the RTT model's flight term), never the detection logic itself.
"""

from __future__ import annotations

from repro.errors import ScheduleError

#: Modeled CPU frequency (Hz) of the mote; ATmega128L on a MICA mote.
CPU_HZ: float = 7_372_800.0


class Clock:
    """Monotonically non-decreasing simulation clock (cycle resolution).

    Only the :class:`repro.sim.engine.Engine` advances the clock; nodes and
    detectors read it through :meth:`now`.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ScheduleError(f"clock cannot start before 0, got {start}")
        self._now = float(start)

    def now(self) -> float:
        """Current simulation time in CPU cycles."""
        return self._now

    def advance_to(self, when: float) -> None:
        """Move the clock forward to ``when``.

        Raises:
            ScheduleError: if ``when`` is in the past.
        """
        if when < self._now:
            raise ScheduleError(
                f"cannot move clock backwards: now={self._now}, requested={when}"
            )
        self._now = float(when)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Clock(now={self._now})"

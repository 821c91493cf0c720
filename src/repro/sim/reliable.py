"""Lossy channels and retransmission-based reliable delivery (ARQ).

The paper assumes (§3.2) "every alert from beacon nodes can be
successfully delivered to the base station using some standard fault
tolerant techniques (e.g., retransmission) when there are message
losses". This module supplies both halves of that assumption:

- :class:`LossModel` — per-attempt Bernoulli loss, pluggable into the
  network or used standalone;
- :class:`ReliableChannel` — stop-and-wait ARQ over a lossy link.

ARQ semantics
-------------

One ``send`` makes up to ``1 + max_retries`` transmission attempts. An
attempt succeeds when the data packet gets through and — with
``ack_required`` (default) — its acknowledgement gets through too, so one
round trip succeeds with probability ``(1 - loss)^2``. Attempt ``i``
(0-based) waits ``retry_timeout_cycles * backoff_factor ** i`` before
being declared failed, i.e. ``backoff_factor > 1`` gives truncated
exponential backoff; the delivery callback runs at the simulated time the
successful attempt completes (the sum of all earlier timeouts).

When the retry budget is exhausted the channel schedules the
``on_failure`` callback (if any) at the time the last timeout expires,
records the failure in its :class:`ChannelCounters`,
and **raises** :class:`repro.errors.DeliveryError` — silently returning an
undelivered report let callers forget the §3.2 assumption had failed.
Callers that prefer report semantics (e.g. metrics that count losses)
pass ``raise_on_exhaustion=False`` and check ``report.delivered``.

Paper section: §3.2 (fault-tolerant alert delivery via retransmission)
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.errors import ConfigurationError, DeliveryError
from repro.sim.engine import Engine
from repro.utils.validation import check_int_in_range, check_probability


@dataclass
class LossModel:
    """Independent per-attempt message loss.

    Attributes:
        loss_rate: probability a single transmission attempt is lost.
        rng: randomness source.
    """

    loss_rate: float
    rng: random.Random
    attempts: int = field(default=0, init=False)
    losses: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        check_probability(self.loss_rate, "loss_rate")

    def attempt_succeeds(self) -> bool:
        """Draw one attempt; updates counters."""
        self.attempts += 1
        if self.rng.random() < self.loss_rate:
            self.losses += 1
            return False
        return True

    def expected_attempts(self) -> float:
        """Mean attempts until first success (geometric distribution)."""
        if self.loss_rate >= 1.0:
            return float("inf")
        return 1.0 / (1.0 - self.loss_rate)


@dataclass
class ChannelCounters:
    """Per-reliable-channel delivery accounting (ARQ observability).

    Maintained by :class:`ReliableChannel` and folded into the pipeline
    profile snapshot under a channel-name prefix, so a ``--profile`` run
    shows how much retransmission work the §3.2 delivery assumption
    actually cost.

    Attributes:
        sends: logical messages handed to the channel.
        attempts: physical transmission attempts (first tries + retries).
        retries: attempts beyond the first, summed over sends.
        delivered: messages that got through within the retry budget.
        failed: messages whose budget was exhausted.
    """

    sends: int = 0
    attempts: int = 0
    retries: int = 0
    delivered: int = 0
    failed: int = 0


@dataclass(frozen=True)
class DeliveryReport:
    """Outcome of one reliable send."""

    delivered: bool
    attempts: int
    completion_time: float


class ReliableChannel:
    """Stop-and-wait ARQ: retransmit until delivered or budget exhausted.

    Both the data packet and the acknowledgement traverse the lossy link,
    so one round trip succeeds with probability ``(1 - loss)^2``. See the
    module docstring for the full ARQ semantics (timeouts, backoff,
    exhaustion behaviour).

    Args:
        engine: the simulation engine for timeout scheduling.
        loss: the loss model (shared counters are intentional).
        max_retries: additional attempts after the first.
        retry_timeout_cycles: wait before concluding the *first* attempt
            failed; later attempts scale by ``backoff_factor``.
        backoff_factor: multiplicative timeout growth per retry (1.0 =
            the classic fixed-timeout stop-and-wait; 2.0 = binary
            exponential backoff).
        ack_required: model the acknowledgement path too (default True).
        name: label used when surfacing this channel's counters in a
            profile snapshot (e.g. ``"alert"`` -> ``channel_alert_*``).
    """

    def __init__(
        self,
        engine: Engine,
        loss: LossModel,
        *,
        max_retries: int = 8,
        retry_timeout_cycles: float = 1_000_000.0,
        backoff_factor: float = 1.0,
        ack_required: bool = True,
        name: str = "channel",
    ) -> None:
        check_int_in_range(max_retries, "max_retries", 0)
        if retry_timeout_cycles <= 0:
            raise ConfigurationError(
                f"retry_timeout_cycles must be > 0, got {retry_timeout_cycles}"
            )
        if backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1.0, got {backoff_factor}"
            )
        self.engine = engine
        self.loss = loss
        self.max_retries = max_retries
        self.retry_timeout_cycles = retry_timeout_cycles
        self.backoff_factor = backoff_factor
        self.ack_required = ack_required
        self.name = name
        self.counters = ChannelCounters()

    def record_metrics(self, registry) -> None:
        """Flush the ARQ counters into ``registry`` (end of trial).

        One ``arq_<field>_total{channel=<name>}`` series per
        :class:`ChannelCounters` field.
        """
        for name, value in asdict(self.counters).items():
            registry.counter(f"arq_{name}_total", channel=self.name).inc(value)

    def _attempt_round_trip(self) -> bool:
        if not self.loss.attempt_succeeds():
            return False
        if self.ack_required and not self.loss.attempt_succeeds():
            return False
        return True

    def _timeout_of_attempt(self, attempt_index: int) -> float:
        """Timeout of 0-based attempt ``attempt_index`` (with backoff)."""
        return self.retry_timeout_cycles * self.backoff_factor**attempt_index

    def send(
        self,
        deliver: Callable[[], None],
        *,
        on_failure: Optional[Callable[[], None]] = None,
        raise_on_exhaustion: bool = True,
    ) -> DeliveryReport:
        """Deliver ``deliver()`` reliably; returns the synchronous report.

        The delivery callback runs at the simulated completion time (the
        sum of the failed attempts' timeouts); the report is computed
        eagerly so callers in tests can assert without running the
        engine, while the scheduled callback preserves causality for
        protocol code.

        Raises:
            DeliveryError: the retry budget was exhausted and
                ``raise_on_exhaustion`` is True (the default). The
                ``on_failure`` callback is scheduled either way.
        """
        counters = self.counters
        counters.sends += 1
        attempts = 0
        elapsed = 0.0
        for attempt in range(self.max_retries + 1):
            attempts += 1
            counters.attempts += 1
            if attempt > 0:
                counters.retries += 1
            if self._attempt_round_trip():
                completion = self.engine.now() + elapsed
                if elapsed > 0:
                    self.engine.schedule_in(elapsed, deliver, label="arq-deliver")
                else:
                    deliver()
                counters.delivered += 1
                return DeliveryReport(
                    delivered=True, attempts=attempts, completion_time=completion
                )
            elapsed += self._timeout_of_attempt(attempt)
        counters.failed += 1
        if on_failure is not None:
            self.engine.schedule_in(elapsed, on_failure, label="arq-fail")
        report = DeliveryReport(
            delivered=False,
            attempts=attempts,
            completion_time=self.engine.now() + elapsed,
        )
        if raise_on_exhaustion:
            raise DeliveryError(
                f"reliable channel {self.name!r}: retry budget exhausted "
                f"after {attempts} attempts "
                f"(loss_rate={self.loss.loss_rate}, "
                f"max_retries={self.max_retries})"
            )
        return report

    def delivery_probability(self) -> float:
        """P[delivered within the retry budget] for the configured loss."""
        p_attempt = 1.0 - self.loss.loss_rate
        if self.ack_required:
            p_attempt *= 1.0 - self.loss.loss_rate
        return 1.0 - (1.0 - p_attempt) ** (self.max_retries + 1)

"""Per-attempt Bernoulli message loss on a radio link.

The paper assumes (§3.2) "every alert from beacon nodes can be
successfully delivered to the base station using some standard fault
tolerant techniques (e.g., retransmission) when there are message
losses". The reproduction keeps that assumption as the paper does: an
alert reaches the base station. :class:`LossModel` is the lossy link
that stresses the rest of the protocol, plugged into the network as
``PipelineConfig.network_loss_rate``.

Paper section: §3.2 (message loss on the delivery path)
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.utils.validation import check_probability


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

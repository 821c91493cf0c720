"""Abstract + probabilistic wormhole detectors.

A wormhole detector answers one question about a received signal: *did it
reach me through a tunnel rather than directly?* The paper's analysis only
needs the detector's detection rate ``p_d``, so the model here is the
analysis-level one: it reads the tunnel ground truth off the transmission
and flags it with probability ``p_d``, without modelling a mechanism.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple

from repro.sim.radio import Reception
from repro.utils.geometry import Point
from repro.utils.validation import check_probability


class WormholeDetector(ABC):
    """Interface for per-reception wormhole checks."""

    @abstractmethod
    def detect(self, reception: Reception, receiver_position: Point) -> bool:
        """True when this reception is judged wormhole-replayed."""


class ProbabilisticWormholeDetector(WormholeDetector):
    """The analysis-level detector: true wormholes flagged w.p. ``p_d``.

    Ground truth comes from the transmission metadata: a signal is
    "really" wormholed when it traversed a tunnel (``via_wormhole``) or
    when a malicious beacon faked the symptoms (``fake_wormhole_symptoms``
    — the paper notes the attacker "can always manipulate its beacon
    signals to convince the detecting node that there is a wormhole",
    so faked symptoms are flagged with probability 1).

    The verdict for a genuine tunnel is **sticky per (requester, target)
    pair**: whether a given detector spots the wormhole on a given link is
    a property of the mechanism and geometry, not per-packet luck. This is
    exactly the paper's analysis model, where a benign beacon reports a
    false alert across a wormhole with probability ``1 - p_d`` *per pair*
    (not per probe). Detecting IDs are canonicalized to their owner via
    ``identity_resolver`` so m probes share one verdict. A clean direct
    signal is never flagged and draws no coin.

    Args:
        p_d: detection rate on genuine tunnels (paper evaluation: 0.9).
        rng: source for the detection coin flips.
        identity_resolver: maps a requester identity to its canonical node
            (detecting ID -> owning beacon); defaults to the identity map.
    """

    def __init__(
        self,
        p_d: float,
        rng: random.Random,
        *,
        identity_resolver: Optional[Callable[[int], int]] = None,
    ) -> None:
        self.p_d = check_probability(p_d, "p_d")
        self._rng = rng
        self._resolve = identity_resolver if identity_resolver else lambda i: i
        self._verdicts: Dict[Tuple[int, int], bool] = {}
        self.checks = 0
        self.flags = 0

    def detect(self, reception: Reception, receiver_position: Point) -> bool:
        self.checks += 1
        tx = reception.transmission
        if tx.fake_wormhole_symptoms:
            flagged = True
        else:
            flagged = tx.via_wormhole and self._pair_verdict(reception)
        if flagged:
            self.flags += 1
        return flagged

    def _pair_verdict(self, reception: Reception) -> bool:
        requester = self._resolve(reception.packet.dst_id)
        key = (requester, reception.packet.src_id)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._rng.random() < self.p_d
            self._verdicts[key] = verdict
        return verdict

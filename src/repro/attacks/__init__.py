"""Adversary substrate: every attack class the paper considers.

- :mod:`repro.attacks.strategy` — the compromised beacon's mixed strategy
  ``(p_n, p_w, p_l)`` from the paper's analysis (Section 2.3);
- :mod:`repro.attacks.compromised` — a compromised beacon node that lies
  about its location / manipulates its signal (Figure 1b);
- :mod:`repro.attacks.masquerade` — external attacker forging beacon
  packets without keys (Figure 1a);
- :mod:`repro.attacks.replay` — local replay of captured beacon signals
  (Section 2.2.2) and wormhole orchestration (Figure 1c);
- :mod:`repro.attacks.collusion` — malicious beacons flooding false alerts
  at the base station (Section 3/4).
"""

from repro.attacks.strategy import AdversaryStrategy, ResponseKind
from repro.attacks.compromised import MaliciousBeacon
from repro.attacks.masquerade import MasqueradeAttacker
from repro.attacks.replay import LocalReplayAttacker, build_wormhole
from repro.attacks.collusion import ColludingReporters
from repro.attacks.inference import InferringMaliciousBeacon

__all__ = [
    "AdversaryStrategy",
    "ResponseKind",
    "MaliciousBeacon",
    "MasqueradeAttacker",
    "LocalReplayAttacker",
    "build_wormhole",
    "ColludingReporters",
    "InferringMaliciousBeacon",
]

"""Deterministic, seeded fault injection for the simulated network.

The paper's scheme is evaluated under idealized conditions: §3.2 assumes
every alert reaches the base station ("using some standard fault tolerant
techniques"), and the §2.2.2 replay filter assumes the tight Figure-4 RTT
window holds at run time. This package makes those assumptions *levers*
instead of axioms:

- :class:`FaultConfig` — the declarative, serializable scenario knob
  (nested in ``PipelineConfig.faults``; all-zero default = off =
  bit-identical to an un-faulted run);
- :mod:`repro.faults.models` — one model per fault: packet loss and
  RTT jitter;
- :class:`FaultInjector` — the runtime composition the network and the
  RTT path hook into.

Both faults run on both cores: the scalar event loop and the
:mod:`repro.vec` batch core draw the same streams in the same order.

See ``docs/FAULTS.md`` for the taxonomy, the mapping from each fault to
a paper assumption, and the determinism/seeding rules.

Paper section: §2.2.2, §3.2 (the stressed assumptions)
"""

from repro.faults.config import FaultConfig
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultModel, PacketLossFault, RttJitterFault

__all__ = [
    "FaultConfig",
    "FaultInjector",
    "FaultModel",
    "PacketLossFault",
    "RttJitterFault",
]

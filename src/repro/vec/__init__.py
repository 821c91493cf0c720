"""Vectorized batch simulation core.

``repro.vec`` processes whole probe rounds as NumPy arrays instead of
driving every packet through the per-event calendar queue. Its kernels
are one exact range mask against ``comm_range_ft``
(:mod:`repro.vec.geometry`), the measurement models on the same
derived RNG streams the scalar path uses — ranging noise, the RTT
chain and the §2.1 discrepancy check ``|estimated - derived| >
threshold`` (:mod:`repro.vec.measurement`) — and a batched
Gauss-Newton multilateration solver (:mod:`repro.vec.localization`).

The batch core is the pipeline's default path, and
:mod:`repro.vec.turbo` is its one implementation of the detection and
localization phases, for every registered detector and both faults a
config can carry. Both phases run one request/reply exchange and
one pass of the §2.2 replay filters. The paper detector's §2.1+§2.2
suite runs as array masks; a rival detector's own ``evaluate`` runs
once per reply, in delivery order. The scalar event-driven pipeline
(``use_vectorized_core=False``) remains the reference oracle;
:func:`vectorized_core_supported` gates the configurations the batch
path reproduces draw-for-draw (see ``docs/PERFORMANCE.md`` for the
parity rules, and ``repro.verify.differential_vectorized_core`` for
the oracle that asserts bit-identical outcomes).

Paper section: §2.1, §2.2.2, §4 (batched kernels for the paper's hot math)
"""

from __future__ import annotations


def vectorized_core_supported(config) -> bool:
    """True when the batch core reproduces ``config`` draw-for-draw.

    The batch core covers the paper's evaluation matrix — wormholes,
    collusion — for every registered detector, and both faults a
    :class:`~repro.faults.FaultConfig` can carry: packet loss and RTT
    jitter. It does not cover the two
    configurations whose control flow interleaves extra events with
    deliveries:

    - flooded revocation dissemination relays notices during phases;
    - a ``max_events`` budget needs per-event accounting to stop
      mid-phase.

    Those run on the scalar oracle path unchanged. The predicate is
    duck-typed on the config attributes so it never imports the
    pipeline module.
    """
    return config.revocation_dissemination == "oracle" and config.max_events is None

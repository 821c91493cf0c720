"""Wormhole detectors.

The paper assumes "there is a wormhole detector installed on every beacon
and non-beacon node ... [that] can tell whether two communicating nodes are
neighbor nodes or not with certain accuracy" and parameterizes the analysis
by its detection rate ``p_d`` (0.9 in the evaluation).

- :class:`WormholeDetector` — the per-reception interface the §2.2.1
  replay filter calls;
- :class:`ProbabilisticWormholeDetector` — the abstract detector the
  analysis uses: flags true wormholes with probability ``p_d``.
"""

from repro.wormhole.detector import (
    ProbabilisticWormholeDetector,
    WormholeDetector,
)

__all__ = [
    "WormholeDetector",
    "ProbabilisticWormholeDetector",
]

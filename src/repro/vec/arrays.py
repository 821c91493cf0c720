"""Struct-of-arrays views of network topology state.

The event-driven substrate stores nodes as Python objects; the batch
kernels want columnar ``float64`` arrays. :func:`topology_arrays`
derives them once and caches the result on the network, keyed by
:attr:`repro.sim.network.Network.topology_version` — node additions,
moves, and wormhole installs bump the version, so a stale view is
rebuilt on the next query instead of being invalidated eagerly.

Paper section: §4 (deployment geometry behind the batch kernels)
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import List, Set

import numpy as np

from repro.vec.geometry import within_range_matrix

#: Attribute under which the cached view lives on the Network instance.
_CACHE_ATTR = "_vec_topology_arrays"


@dataclass(frozen=True)
class TopologyArrays:
    """Columnar snapshot of the deployed node population.

    Rows are sorted by ``node_id`` (the same order
    ``Network.nodes()`` returns), so row ``i`` of every column
    describes the same node.

    Attributes:
        version: the ``topology_version`` this view was derived at.
        node_ids: ``(n,)`` int64 primary identities.
        xs: ``(n,)`` float64 x coordinates (feet).
        ys: ``(n,)`` float64 y coordinates (feet).
        is_beacon: ``(n,)`` bool beacon-role flags.
    """

    version: int
    node_ids: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    is_beacon: np.ndarray

    @property
    def count(self) -> int:
        """Number of nodes in the snapshot."""
        return int(self.node_ids.shape[0])


def topology_arrays(network) -> TopologyArrays:
    """The cached SoA view of ``network``, rebuilt when topology moved.

    Args:
        network: a :class:`repro.sim.network.Network`.

    Returns:
        The current :class:`TopologyArrays`; identical object on
        repeated calls while ``network.topology_version`` is unchanged.
    """
    version = network.topology_version
    cached = getattr(network, _CACHE_ATTR, None)
    if cached is not None and cached.version == version:
        return cached
    nodes = network.nodes()
    view = TopologyArrays(
        version=version,
        node_ids=np.array([n.node_id for n in nodes], dtype=np.int64),
        xs=np.array([n.position.x for n in nodes], dtype=np.float64),
        ys=np.array([n.position.y for n in nodes], dtype=np.float64),
        is_beacon=np.array([n.is_beacon for n in nodes], dtype=bool),
    )
    setattr(network, _CACHE_ATTR, view)
    return view


def requester_counts_vectorized(
    network,
    malicious_beacons,
    malicious_ids: Set[int],
    comm_range_ft: float,
) -> List[int]:
    """The N' spatial scan as one range-mask call over the malicious beacons.

    Matches the scalar ``_requester_counts`` exactly: for each malicious
    beacon, count every deployed node within ``comm_range_ft`` of it
    whose identity is not malicious (membership decided by the
    guard-banded exact mask, so boundary nodes agree with the scalar
    ``distance(...) <= comm_range_ft`` predicate bit for bit).
    """
    view = topology_arrays(network)
    in_range = within_range_matrix(
        view.xs,
        view.ys,
        [beacon.position.x for beacon in malicious_beacons],
        [beacon.position.y for beacon in malicious_beacons],
        comm_range_ft,
    )
    in_range &= ~np.isin(
        view.node_ids, np.array(sorted(malicious_ids), dtype=np.int64)
    )
    return np.count_nonzero(in_range, axis=1).tolist()

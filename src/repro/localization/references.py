"""The ``location reference`` abstraction.

Per the paper's introduction: "We refer to such a measurement and the
location of the corresponding beacon node collectively as a location
reference."
"""

from __future__ import annotations

from typing import NamedTuple

from repro.utils.geometry import Point


class LocationReference(NamedTuple):
    """One beacon's contribution to a node's position estimate.

    Attributes:
        beacon_id: the (claimed) source beacon identity.
        beacon_location: the location declared in the beacon packet.
        measured_distance_ft: the ranging estimate derived from the signal.
        received_at: simulation time of reception (cycles).
    """

    beacon_id: int
    beacon_location: Point
    measured_distance_ft: float
    received_at: float = 0.0

    def residual_at(self, position: Point) -> float:
        """Measured minus calculated distance if the node were at ``position``.

        The malicious-signal detector's core quantity: for a benign beacon
        and a correct position this is bounded by the maximum ranging error.
        """
        return self.measured_distance_ft - position.distance_to(self.beacon_location)

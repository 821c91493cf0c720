"""Localization substrate: measurement models and position solvers.

The paper's detection techniques sit *on top of* beacon-based localization;
this package provides that base layer:

- :mod:`repro.localization.measurement` — RSSI / TDoA ranging models
  with the bounded-error property the detector relies on;
- :mod:`repro.localization.references` — the ``location reference``
  abstraction (beacon location + measurement);
- :mod:`repro.localization.multilateration` — MMSE multilateration (the
  paper's "mathematical solution that satisfies these constraints with
  minimum estimation error");
- :mod:`repro.localization.atomic` — AHLoS-style atomic/iterative
  multilateration (Savvides et al.), the baseline the paper's related-work
  section cites;
- :mod:`repro.localization.beacon` — beacon service / non-beacon agent
  protocol roles over the simulator.
"""

from repro.localization.measurement import RangingModel, RssiModel, TdoaModel
from repro.localization.references import LocationReference
from repro.localization.multilateration import mmse_multilaterate
from repro.localization.robust import robust_multilaterate
from repro.localization.atomic import iterative_multilateration
from repro.localization.beacon import BeaconService, NonBeaconAgent

__all__ = [
    "RangingModel",
    "RssiModel",
    "TdoaModel",
    "LocationReference",
    "mmse_multilaterate",
    "robust_multilaterate",
    "iterative_multilateration",
    "BeaconService",
    "NonBeaconAgent",
]

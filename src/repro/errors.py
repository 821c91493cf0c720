"""Exception hierarchy shared by every ``repro`` subpackage.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch the whole family with a single ``except`` clause while still being
able to discriminate on the concrete class.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "SimulationError",
    "ScheduleError",
    "DeliveryError",
    "BudgetExceededError",
    "ExperimentError",
    "CryptoError",
    "KeyAgreementError",
    "AuthenticationError",
    "LocalizationError",
    "InsufficientReferencesError",
    "SolverError",
    "DetectionError",
    "CalibrationError",
    "RevocationError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class SimulationError(ReproError):
    """Base class for errors raised by the discrete-event simulator."""


class ScheduleError(SimulationError):
    """An event was scheduled in the past or after the engine stopped."""


class DeliveryError(SimulationError):
    """A packet could not be delivered (unknown node, or out of range)."""


class BudgetExceededError(SimulationError):
    """A simulation exceeded its configured event budget.

    Raised by :class:`repro.sim.engine.Engine` when ``event_budget`` is
    set and a run attempts to execute more events — the backstop that
    turns an event storm (e.g. a flood of relayed revocation notices)
    into a structured, catchable failure instead of an unbounded run.
    """


class ExperimentError(ReproError):
    """An experiment task failed in a way the runner could not recover."""


class CryptoError(ReproError):
    """Base class for key-management and authentication failures."""


class KeyAgreementError(CryptoError):
    """Two nodes could not establish a pairwise key."""


class AuthenticationError(CryptoError):
    """A packet failed its message-authentication-code check."""


class LocalizationError(ReproError):
    """Base class for localization-substrate failures."""


class InsufficientReferencesError(LocalizationError):
    """Too few location references to solve for a position."""


class SolverError(LocalizationError):
    """The position solver failed to converge to a solution."""


class DetectionError(ReproError):
    """Base class for failures in the malicious-beacon detection suite."""


class CalibrationError(DetectionError):
    """The RTT detector was used before calibration, or calibration failed."""


class RevocationError(ReproError):
    """The base-station revocation protocol was misused."""

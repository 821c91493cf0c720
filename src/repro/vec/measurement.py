"""Batched measurement-model kernels with exact RNG-stream parity.

Each kernel consumes raw draws from the *same* named ``random.Random``
stream the scalar path uses, in the same order, and reproduces the
scalar arithmetic operation for operation:

- CPython's ``rng.uniform(a, b)`` is ``a + (b - a) * rng.random()``;
  :func:`batched_uniform` pulls ``n`` raw ``random()`` values and
  applies the identical expression elementwise, so every element is
  bit-identical to the corresponding scalar call.
- :class:`~repro.sim.timing.RttModel` draws five uniforms per sample
  (``d1..d4`` then the receiver processing time) and combines them with
  a fixed left-associated chain; :func:`batched_rtt` pulls ``5 * n``
  raws, reshapes, and evaluates the same chain elementwise —
  bit-identical again, because IEEE-754 addition/multiplication of
  identical operands is deterministic.

The §2.1 discrepancy check is a pure comparison of already-computed
floats, so its mask kernel is trivially exact.

Paper section: §2.1, §2.2.2 (measurement models behind the checks)
"""

from __future__ import annotations

import random

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.timing import _SPEED_OF_LIGHT_FT_PER_CYCLE, RttModel


def raw_uniforms(rng: random.Random, n: int) -> np.ndarray:
    """``n`` sequential ``rng.random()`` draws as a float64 array.

    The draws advance ``rng`` exactly as ``n`` scalar calls would —
    this is the primitive every stream-parity kernel builds on.
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    if n == 0:
        return np.empty(0, dtype=np.float64)
    # iter(rng.random, None) never hits its sentinel; fromiter's count
    # stops it after exactly n calls — same draws, no list round trip.
    return np.fromiter(iter(rng.random, None), dtype=np.float64, count=n)


def batched_uniform(
    rng: random.Random, n: int, low: float, high: float
) -> np.ndarray:
    """``n`` draws bit-identical to ``[rng.uniform(low, high)] * n``.

    Mirrors CPython's ``uniform``: ``low + (high - low) * random()``,
    evaluated elementwise over the raw draws.
    """
    raws = raw_uniforms(rng, n)
    return low + (high - low) * raws


def batched_rtt(
    rng: random.Random,
    model: RttModel,
    distances_ft: np.ndarray,
    extra_delay_cycles: np.ndarray,
    start_times: np.ndarray,
) -> np.ndarray:
    """``n`` register-level RTTs bit-identical to scalar ``model.sample``.

    Consumes ``5 * n`` raw draws from ``rng`` in scalar order (per
    sample: d1, d2, d3, d4, processing) and evaluates the scalar
    timestamp chain ``t2 = t1 + d1 + flight + d2``,
    ``t3 = t2 + processing``,
    ``t4 = t3 + d3 + flight + d4 + extra``, returning
    ``(t4 - t1) - (t3 - t2)`` elementwise.

    Args:
        rng: the shared ``"rtt"`` stream.
        model: the (frozen) hardware-delay model.
        distances_ft: ``(n,)`` requester-responder distances.
        extra_delay_cycles: ``(n,)`` replay/tunnel delays.
        start_times: ``(n,)`` absolute t1 cycles per exchange.

    Raises:
        ConfigurationError: any distance or extra delay is negative
            (the scalar sampler's validation, applied batch-wide).
    """
    dists = np.asarray(distances_ft, dtype=np.float64)
    extras = np.asarray(extra_delay_cycles, dtype=np.float64)
    starts = np.asarray(start_times, dtype=np.float64)
    if dists.shape != extras.shape or dists.shape != starts.shape:
        raise ConfigurationError(
            f"shape mismatch: {dists.shape}, {extras.shape}, {starts.shape}"
        )
    if np.any(dists < 0):
        raise ConfigurationError("distance_ft must be >= 0")
    if np.any(extras < 0):
        raise ConfigurationError("extra_delay_cycles must be >= 0")
    n = dists.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.float64)
    raws = raw_uniforms(rng, 5 * n).reshape(n, 5)
    base = model.base_delay_cycles
    jitter = model.jitter_cycles
    # delay() is base + uniform(0, jitter); 0.0 + jitter*u == jitter*u
    # bitwise for u >= 0, so the scalar expression reduces to this.
    d1 = base + jitter * raws[:, 0]
    d2 = base + jitter * raws[:, 1]
    d3 = base + jitter * raws[:, 2]
    d4 = base + jitter * raws[:, 3]
    processing = 1e4 + (1e6 - 1e4) * raws[:, 4]
    flight = dists / _SPEED_OF_LIGHT_FT_PER_CYCLE
    t1 = starts
    t2 = t1 + d1 + flight + d2
    t3 = t2 + processing
    t4 = t3 + d3 + flight + d4 + extras
    return (t4 - t1) - (t3 - t2)


def batched_calibration_rtts(
    model: RttModel, rng: random.Random, samples: int, distance_ft: float
) -> list:
    """The calibration phase's RTT draws as one array kernel.

    Bit-identical to ``model.sample_rtts(rng, samples,
    distance_ft=distance_ft)`` — the scalar loop behind
    :func:`repro.core.rtt.calibrate_rtt` — and leaves ``rng`` in the
    identical state (exactly ``5 * samples`` raw draws, in scalar
    order). Calibration is attack-free by construction, so every sample
    shares one distance, zero extra delay, and a zero start time; the
    general :func:`batched_rtt` chain reduces to a constant-operand
    evaluation over the raw draws.

    Returns a plain list of floats so the result drops into
    :func:`repro.core.rtt.calibration_from_samples` (and the perturb/
    observe hooks) exactly like the scalar sampler's output.
    """
    if samples <= 0:
        raise ConfigurationError(f"n must be > 0, got {samples}")
    n = int(samples)
    rtts = batched_rtt(
        rng,
        model,
        np.full(n, float(distance_ft), dtype=np.float64),
        np.zeros(n, dtype=np.float64),
        np.zeros(n, dtype=np.float64),
    )
    return rtts.tolist()


def discrepancy_mask(
    calculated_ft: np.ndarray,
    measured_ft: np.ndarray,
    threshold_ft,
) -> np.ndarray:
    """The §2.1 check as a mask: ``|calculated - measured| > threshold``.

    ``True`` marks a malicious beacon signal. Both inputs are floats
    the caller already computed (calculated distances via the correctly
    rounded scalar ``math.hypot``), so subtraction/abs/compare here are
    the exact scalar operations, elementwise.

    Args:
        calculated_ft: ``(n,)`` own-to-declared-location distances.
        measured_ft: ``(n,)`` ranging estimates from the signals.
        threshold_ft: scalar or ``(n,)`` maximum-measurement-error
            bound(s).
    """
    calc = np.asarray(calculated_ft, dtype=np.float64)
    meas = np.asarray(measured_ft, dtype=np.float64)
    return np.abs(calc - meas) > threshold_ft

"""Performance: the batch core's full trial vs the scalar oracle.

End-to-end ``run()`` with the vectorized batch core (the default
``use_vectorized_core=True``, the ``repro.vec`` kernels) vs the scalar
event-driven reference. The batch core is asserted *identical* to the
oracle before its clock is read — a wrong fast path must never look
like a fast one: the ``PipelineResult`` objects must compare equal to
the last bit, and the speedup is asserted >= 10x (``--quick`` smoke
mode relaxes the floor, not the equality).

Every config here pins ``use_vectorized_core=False``: the reference
must be the scalar oracle, not the default batch core.

The measurement lands in ``BENCH_pipeline.json`` at the repo root so
future changes have a perf trajectory to compare against; per-phase
cost tables live in ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import platform
import time

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.experiments.series import FigureData

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

#: The full-trial comparison runs the paper deployment end to end, once
#: per path (about 2 s scalar): the honest number, since it includes the
#: build/calibration work the batch core cannot touch.
TRIAL_CONFIG = PipelineConfig(seed=11, use_vectorized_core=False)

#: Smoke-mode deployment (--quick): same shape, ~6x fewer nodes.
QUICK_TRIAL_CONFIG = PipelineConfig(
    n_total=150,
    n_beacons=25,
    n_malicious=4,
    field_width_ft=500.0,
    field_height_ft=500.0,
    rtt_calibration_samples=300,
    seed=11,
    use_vectorized_core=False,
)

ASSERTED_FULL_TRIAL_SPEEDUP = 10.0


def _best_of(fn, repeats=3):
    """Minimum wall clock of ``repeats`` runs (noise-robust micro timing)."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _record_baseline(name, fast_s, naive_s):
    """Merge one benchmark's numbers into BENCH_pipeline.json."""
    try:
        data = json.loads(BASELINE_PATH.read_text())
    except (OSError, ValueError):
        data = {}
    data.setdefault("schema", 1)
    data["environment"] = {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
    data.setdefault("benchmarks", {})[name] = {
        "fast_s": round(fast_s, 6),
        "naive_s": round(naive_s, 6),
        "speedup": round(naive_s / fast_s, 2),
    }
    BASELINE_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data["benchmarks"][name]


def _speedup_figure(figure_id, title, fast_s, naive_s, notes):
    fig = FigureData(
        figure_id=figure_id,
        title=title,
        x_label="path (1=scalar core, 2=vectorized core)",
        y_label="seconds",
        notes=notes,
    )
    wall = fig.new_series("wall clock (s)")
    wall.append(1, naive_s)
    wall.append(2, fast_s)
    return fig


def test_full_trial_speedup(save_figure, quick):
    """End-to-end trial, vectorized core vs scalar: identical, >= 10x.

    The scalar run is the reference oracle; the vectorized run must
    reproduce its ``PipelineResult`` exactly (the ``repro.vec`` stream-
    parity rules make that a bit-identity, not a tolerance). Only then
    do the clocks count. ``--quick`` keeps the equality assertion on a
    smaller deployment but drops the 10x floor — CI smoke runners have
    noisy clocks and should gate on correctness, not timing.
    """
    scalar_config = QUICK_TRIAL_CONFIG if quick else TRIAL_CONFIG
    vec_config = dataclasses.replace(scalar_config, use_vectorized_core=True)

    # Best-of timing: the first vectorized run pays one-time NumPy/kernel
    # import costs that say nothing about the steady-state cost of a trial.
    scalar_s, scalar_result = _best_of(
        lambda: SecureLocalizationPipeline(scalar_config).run(),
        repeats=1 if quick else 2,
    )
    vec_s, vec_result = _best_of(
        lambda: SecureLocalizationPipeline(vec_config).run(),
        repeats=2 if quick else 3,
    )

    # The whole point: the batch core changes nothing but the clock.
    assert vec_result == scalar_result

    if quick:
        # Smoke floor only: the batch path must not be a slowdown.
        assert scalar_s / vec_s > 1.0
        return

    entry = _record_baseline("full_trial", vec_s, scalar_s)
    save_figure(
        _speedup_figure(
            "perf_full_trial",
            "Full pipeline trial: scalar core vs vectorized core",
            vec_s,
            scalar_s,
            notes=(
                f"{scalar_config.n_total} nodes, "
                f"{scalar_config.n_beacons} beacons, wormhole on; "
                f"bit-identical results; speedup {entry['speedup']}x"
            ),
        )
    )
    assert scalar_s / vec_s >= ASSERTED_FULL_TRIAL_SPEEDUP, (
        f"vectorized core only {scalar_s / vec_s:.2f}x faster "
        f"(need >= {ASSERTED_FULL_TRIAL_SPEEDUP}x)"
    )

"""Benchmark: the detector arena — every detector, identical scenarios.

Runs the head-to-head comparison from :mod:`repro.experiments.arena`
(paper detector vs Mahalanobis residual vs noisy-channel sequential vs
deterministic consistency) across the Figure-12 grid and commits the
artifacts at the repo root:

- ``BENCH_arena.json`` — headline numbers (detection rate, FP rate,
  affected non-beacons, decisions) per detector at the paper's default
  P', in the same schema/environment envelope as the other BENCH files
  so ``tools/bench_report.py`` folds it into the trend report;
- ``benchmarks/ARENA_REPORT.md`` — the full markdown grid tables.

Both are pure functions of the seeds (no timing), so a full run must
reproduce the committed files; CI's ``committed-outputs`` job checks
that. ``--quick`` is identity-only: a reduced grid asserts the paper
detector's arena trials are bit-identical run-to-run and that every
detector issued probe decisions, with no artifact rewrite.
"""

import json
import os
import pathlib
import platform

from repro.detectors import available_detectors
from repro.experiments.arena import (
    arena_configs,
    arena_headlines,
    render_arena_markdown,
    run_arena,
    run_arena_trial,
)

ARENA_BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_arena.json"
)
ARENA_REPORT_PATH = pathlib.Path(__file__).resolve().parent / "ARENA_REPORT.md"

#: Reduced grid for --quick smoke mode (identity, not timing).
QUICK_KWARGS = dict(
    p_grid=(0.2,),
    trials=2,
    config_kwargs=dict(
        n_total=150,
        n_beacons=20,
        n_malicious=3,
        field_width_ft=420.0,
        field_height_ft=420.0,
        rtt_calibration_samples=200,
    ),
)


def _record_arena(arena):
    """Write BENCH_arena.json + benchmarks/ARENA_REPORT.md."""
    data = {
        "schema": 1,
        "environment": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "benchmarks": arena_headlines(arena),
    }
    ARENA_BENCH_PATH.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    ARENA_REPORT_PATH.write_text(render_arena_markdown(arena))
    return data


def test_arena_head_to_head(bench_runner, quick):
    """The committed comparison — or, with --quick, its identity core."""
    kwargs = QUICK_KWARGS if quick else {}
    arena = run_arena(runner=bench_runner, **kwargs)

    # Every registered detector entered.
    assert sorted(arena["detectors"]) == sorted(available_detectors())
    assert list(arena["detectors"])[0] == "paper"

    # Fairness invariant: identical scenarios => every detector received
    # probe replies from the same deployments. Decision counts may only
    # differ through revocation feedback (an indicted beacon stops
    # replying), so the paper detector's count anchors the same order of
    # magnitude rather than exact equality.
    decisions = {
        name: entry["decisions"] for name, entry in arena["detectors"].items()
    }
    assert all(count > 0 for count in decisions.values()), decisions

    # Identity: re-running one paper-detector trial reproduces the same
    # deterministic payload bit for bit.
    config = arena_configs(
        "paper",
        p_grid=kwargs.get("p_grid", (0.2,))[:1],
        trials=1,
        config_kwargs=kwargs.get("config_kwargs"),
    )[0]
    first = run_arena_trial(config)
    second = run_arena_trial(config)
    assert first["metrics"] == second["metrics"]
    assert first["decisions"] == second["decisions"]

    if not quick:
        entry = _record_arena(arena)
        headline = entry["benchmarks"]["arena"]
        # The paper detector's headline must stay on the committed grid.
        assert set(headline) == set(available_detectors())
        for name, numbers in headline.items():
            assert numbers["decisions"] > 0, name

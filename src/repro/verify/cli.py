"""The ``repro-verify`` command-line conformance gate.

Runs, in order: the differential oracle suite, the trace-invariant pass
over a freshly-run pipeline, the zero-jitter honest-RTT check, the
detector-arena conformance checks (every registered rival detector:
clean anchors never indicted at zero noise, byte-identical under
re-runs and worker sharding — see :mod:`repro.verify.detectors`), and
the Figure 12-14 statistical gate. Exit status 0 means full
conformance; 1 means at least one divergence/violation (each printed
on stderr).

Typical invocations::

    repro-verify                          # everything, CI defaults
    repro-verify --scenarios 200          # quick local differential run
    repro-verify --only differential      # one stage
    repro-verify --update-golden          # re-commit the statgate golden

Paper section: §4 (conformance gate over the reproduction)
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional

from repro.core.rtt import calibrate_rtt
from repro.sim.timing import RttModel
from repro.verify.differential import run_differential_suite
from repro.verify.invariants import (
    InvariantViolation,
    check_honest_rtt_window,
    run_invariants,
)
from repro.verify.statgate import run_statgate

STAGES = ("differential", "invariants", "detectors", "statgate")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Paper-fidelity conformance gate (oracles, invariants, figures).",
    )
    parser.add_argument(
        "--scenarios",
        type=int,
        default=1000,
        help="differential scenarios per component (default: 1000)",
    )
    parser.add_argument(
        "--axes-scenarios",
        type=int,
        default=4,
        help="pipeline bit-identity scenarios (default: 4)",
    )
    parser.add_argument(
        "--vec-scenarios",
        type=int,
        default=8,
        help="vectorized-core bit-identity scenarios (default: 8)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master scenario seed (default: 0)"
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=1,
        help="Monte-Carlo trials per statgate point (default: 1)",
    )
    parser.add_argument(
        "--only",
        choices=STAGES,
        default=None,
        help="run a single stage instead of all three",
    )
    parser.add_argument(
        "--update-golden",
        action="store_true",
        help="re-commit the statgate golden data (trend checks still apply)",
    )
    return parser


def _run_differential(args: argparse.Namespace) -> int:
    failures = 0
    reports = run_differential_suite(
        args.scenarios,
        args.seed,
        axes_scenarios=args.axes_scenarios,
        vec_scenarios=args.vec_scenarios,
    )
    for report in reports:
        print(report.summary())
        for divergence in report.divergences:
            failures += 1
            print(
                f"  scenario {divergence.scenario}: {divergence.detail}",
                file=sys.stderr,
            )
    return failures


def _run_invariants(args: argparse.Namespace) -> int:
    # Deferred imports: the pipeline pulls in the whole simulator.
    from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
    from repro.obs import ObserveConfig

    # Observed: an unobserved trial records no protocol events.
    config = PipelineConfig(
        n_total=200,
        n_beacons=30,
        n_malicious=4,
        field_width_ft=600.0,
        field_height_ft=600.0,
        p_prime=0.5,
        rtt_calibration_samples=1000,
        observe=ObserveConfig(),
        seed=args.seed + 101,
    )
    pipeline = SecureLocalizationPipeline(config)
    pipeline.run()
    violations: List[InvariantViolation] = run_invariants(
        pipeline.trace,
        tau_report=config.tau_report,
        tau_alert=config.tau_alert,
        reporter_ids={b.node_id for b in pipeline.malicious_beacons},
    )
    # The checks above pass vacuously on a stream without the events
    # they read.
    for kind in ("probe", "alert"):
        if pipeline.trace.count(kind) == 0:
            violations.append(
                InvariantViolation("trace", f"no {kind!r} event recorded")
            )

    # §2.2.2 honest-window check under zero jitter: calibrate at the
    # radio range (as the pipeline does) and confirm no honest in-range
    # exchange would trip the local-replay filter.
    model = RttModel(jitter_cycles=0.0)
    rng = random.Random(args.seed)
    calibration = calibrate_rtt(
        model, rng, samples=64, distance_ft=config.comm_range_ft
    )
    honest = [
        model.sample(rng, distance_ft=d).rtt
        for d in [
            config.comm_range_ft * i / 50 for i in range(51)
        ]
    ]
    violations.extend(check_honest_rtt_window(calibration, honest))

    print(
        f"invariants: {len(pipeline.trace)} trace events, "
        + ("OK" if not violations else f"{len(violations)} VIOLATIONS")
    )
    for violation in violations:
        print(f"  {violation}", file=sys.stderr)
    return len(violations)


def _run_detectors(args: argparse.Namespace) -> int:
    # Deferred import: pulls in the pipeline and the runner.
    from repro.verify.detectors import run_detector_checks

    report = run_detector_checks(seed=args.seed)
    failures = 0
    for name, violations in report.items():
        print(
            f"detectors[{name}]: "
            + ("OK" if not violations else f"{len(violations)} VIOLATIONS")
        )
        for violation in violations:
            failures += 1
            print(f"  {violation}", file=sys.stderr)
    return failures


def _run_statgate(args: argparse.Namespace) -> int:
    observed, violations = run_statgate(
        trials=args.trials, update_golden=args.update_golden
    )
    if args.update_golden and not violations:
        print("statgate: golden data updated")
    print(
        "statgate: "
        + ("OK" if not violations else f"{len(violations)} VIOLATIONS")
    )
    for figure, data in sorted(observed.items()):
        print(f"  {figure}: {data}")
    for violation in violations:
        print(f"  {violation}", file=sys.stderr)
    return len(violations)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    args = _parser().parse_args(argv)
    stages = (args.only,) if args.only else STAGES
    failures = 0
    if "differential" in stages:
        failures += _run_differential(args)
    if "invariants" in stages:
        failures += _run_invariants(args)
    if "detectors" in stages:
        failures += _run_detectors(args)
    if "statgate" in stages:
        failures += _run_statgate(args)
    if failures:
        print(f"repro-verify: FAILED ({failures} findings)", file=sys.stderr)
        return 1
    print("repro-verify: all conformance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

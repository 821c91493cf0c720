"""Paper-fidelity conformance harness (differential oracles + gates).

``repro.verify`` answers one question the unit suites cannot: *does the
production implementation still compute what the paper specifies?* It
holds three independent instruments:

- :mod:`repro.verify.oracles` — deliberately-naive reference
  reimplementations of the §2.1 signal check, the §2.2 filter cascade,
  the §2.2.2 RTT window extraction, and the §3.1 base-station counter
  machine, written straight from the paper text with none of the
  production code's structure;
- :mod:`repro.verify.differential` — seeded scenario generators that
  drive production and oracle side by side over thousands of randomized
  cases (boundary-heavy), plus two whole-pipeline bit-identity checks:
  the semantics-neutral axes (``observe``, all-zero ``faults``) and
  the scalar-vs-vectorized batch core
  (``use_vectorized_core``, across wormhole and fault envelopes, for
  every registered detector);
- :mod:`repro.verify.invariants` — executable paper invariants replayed
  over any :class:`repro.sim.trace.TraceRecorder` stream post-hoc;
- :mod:`repro.verify.statgate` — a statistical gate re-running the
  Figure 12-14 sweeps at reduced trial counts against committed golden
  JSON (trend directions + tolerance bands).

Run everything via ``python -m repro.verify`` (or the ``repro-verify``
console script); CI runs it as a dedicated conformance job. See
``docs/VERIFY.md``.

Paper section: §2.1, §2.2, §3.1, §4 (conformance of the reproduction)
"""

from repro.verify.differential import (
    DifferentialReport,
    Divergence,
    differential_base_station,
    differential_cascade,
    differential_pipeline_axes,
    differential_rtt_window,
    differential_signal_check,
    differential_vectorized_core,
    run_differential_suite,
)
from repro.verify.invariants import (
    InvariantViolation,
    check_alert_quota,
    check_consistent_never_indicts,
    check_honest_rtt_window,
    check_revocation_monotone,
    run_invariants,
)
from repro.verify.oracles import (
    OracleBaseStation,
    oracle_cascade,
    oracle_rtt_window,
    oracle_signal_check,
)
from repro.verify.statgate import (
    GOLDEN_PATH,
    StatGateViolation,
    evaluate_statgate,
    load_golden,
    run_statgate,
    write_golden,
)

__all__ = [
    "DifferentialReport",
    "Divergence",
    "GOLDEN_PATH",
    "InvariantViolation",
    "OracleBaseStation",
    "StatGateViolation",
    "check_alert_quota",
    "check_consistent_never_indicts",
    "check_honest_rtt_window",
    "check_revocation_monotone",
    "differential_base_station",
    "differential_cascade",
    "differential_pipeline_axes",
    "differential_rtt_window",
    "differential_signal_check",
    "differential_vectorized_core",
    "evaluate_statgate",
    "load_golden",
    "oracle_cascade",
    "oracle_rtt_window",
    "oracle_signal_check",
    "run_differential_suite",
    "run_invariants",
    "run_statgate",
    "write_golden",
]

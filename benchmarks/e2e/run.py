#!/usr/bin/env python3
"""Run the repository benchmark: each workload run in a fresh process.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 [--workload NAME ...] [--repeat N]
        [--seconds S] [--trace [0|1]] [--out DIR]

Every workload run is one ``workload.py`` subprocess, started with
``REPRO_USE_VECTORIZED_CORE`` and ``REPRO_BENCH_*`` removed from its
environment and ``src`` on its path. Untraced runs also start a few
set-up-only processes and report the median set-up time. Every time is
scaled to a reference host speed (``hostspeed.py``).

Prints every metric as ``workload metric value unit``, writes one JSON
result per run under ``--out``, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

whose metrics are the end-to-end ones (``--trace 0``) or the per-layer
ones (``--trace 1``) declared in ``BENCHMARK.json``. Exits 1 when a
correctness cross-check fails and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}\Z")
#: Extra set-up-only processes per untraced run; with the run's own
#: set-up they give three samples.
SETUP_PROBES = 2
#: Wall-clock budget of one workload run, set-up probes included.
RUN_BUDGET_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark could not produce a result."""


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key != "REPRO_USE_VECTORIZED_CORE" and not key.startswith("REPRO_BENCH_")
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(arguments: List[str], deadline: float) -> Dict[str, Any]:
    """Run ``workload.py`` and return the JSON of its last stdout line."""
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), *arguments],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise HarnessError(f"workload.py {' '.join(arguments)} timed out") from None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise HarnessError(
            f"workload.py {' '.join(arguments)} exited with {process.returncode}"
        )
    return json.loads(lines[-1])


def validate(record: Dict[str, Any], spec: Dict[str, Any]) -> List[str]:
    """Problems with the emitted metrics, against ``BENCHMARK.json``."""
    problems = []
    groups = ["end_to_end"] + (["per_layer"] if record["trace"] else [])
    for group in groups:
        emitted = record.get(group, {})
        declared = {metric["name"]: metric["unit"] for metric in spec[group]}
        for name, unit in declared.items():
            if name not in emitted:
                problems.append(f"{group} metric {name} not emitted")
            elif emitted[name][1] != unit:
                problems.append(f"{name} emitted in {emitted[name][1]}, declared {unit}")
        for name, (value, _) in emitted.items():
            if name not in declared:
                problems.append(f"{name} emitted but not declared")
            if not NAME.match(name):
                problems.append(f"bad metric name {name!r}")
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{name} is not a finite number: {value!r}")
    return problems


def run_once(workload: str, args, spec, out: pathlib.Path, work: pathlib.Path, k: int) -> Dict[str, Any]:
    """One workload run (plus set-up probes) -> its result record."""
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--work", str(work)] + (["--smoke"] if args.smoke else [])
    record = run_child(
        common
        + ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        + ["--trace", str(args.trace), "--out", str(out)],
        deadline,
    )
    if not args.trace:
        samples = [record["end_to_end"]["setup_s"][0]]
        for _ in range(SETUP_PROBES):
            samples.append(run_child(common + ["--setup-only"], deadline)["setup_s"])
        record["setup_samples_s"] = samples
        record["end_to_end"]["setup_s"][0] = statistics.median(samples)
    problems = validate(record, spec)
    if problems:
        raise HarnessError("; ".join(problems))
    suffix = "-trace" if args.trace else ""
    path = out / f"{workload}-seed{args.seed}-r{k}{suffix}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def report(record: Dict[str, Any]) -> None:
    workload = record["workload"]
    for group in ("end_to_end", "per_layer"):
        for name, (value, unit) in record.get(group, {}).items():
            print(f"{workload} {name} {value:.6g} {unit}")
    for name in record["missing"]:
        print(f"{workload} missing {name}")
    for check in record["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"{workload} check {check['name']} {status} {check['detail']}".rstrip())
    print(
        f"{workload} attempted {record['attempted']} failed {record['failed']}"
        f" core {json.dumps(record['core'], sort_keys=True)}"
    )


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--workload",
        nargs="+",
        choices=[w["name"] for w in spec["workloads"]],
        default=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", type=pathlib.Path, default=HERE / "results")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark failed: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    work = out / f".work-{os.getpid()}"
    group = "per_layer" if args.trace else "end_to_end"
    records: List[Dict[str, Any]] = []
    try:
        for workload in args.workload:
            for k in range(args.repeat):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir()
                record = run_once(workload, args, spec, out, work, k)
                report(record)
                records.append(record)
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics: Dict[str, Dict[str, Any]] = {}
    for workload in args.workload:
        runs = [r for r in records if r["workload"] == workload]
        for metric in spec[group]:
            key = metric["name"] if len(args.workload) == 1 else f"{workload}.{metric['name']}"
            metrics[key] = {
                "value": statistics.median(r[group][metric["name"]][0] for r in runs),
                "unit": metric["unit"],
            }
    correct = all(check["ok"] for r in records for check in r["checks"])
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

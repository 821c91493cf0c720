#!/usr/bin/env python3
"""Compare benchmark result sets written by ``run.py --out DIR``.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py --agree A_DIR B_DIR
    python3 benchmarks/e2e/compare.py --summary DIR

The default mode judges a change against its parent, per workload and
end-to-end metric: each side's median and quartiles, the fraction of
run pairs the change wins (ties count for neither side), and one
verdict:

- ``improved``: the change wins at least 9 in 10 pairs and the medians
  differ by more than the parent's own quartile spread;
- ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
- ``unresolved``: the parent's quartile spread is wider than the bound,
  and not every change run beats every parent run;
- ``no worse``: anything else.

It also compares the share of failed operations. It exits 1 when any
metric regressed or the failure share rose.

``--agree`` checks two sets of runs of the same code: every end-to-end
median within its bound of the other, and every deterministic count
metric identical between runs at the same seed. ``--summary`` prints
one set's medians and quartiles as JSON (the form of ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Counts that depend on scheduling, not on the inputs: queue work
#: stealing and lease expiry follow worker timing.
TIMING_DEPENDENT_COUNTS = {"queue.requeues", "queue.steals"}


def load_spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def load_runs(directory: pathlib.Path) -> List[Dict[str, Any]]:
    runs = []
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        record = json.loads(path.read_text())
        record["file"] = path.name
        runs.append(record)
    return sorted(runs, key=lambda r: (r["workload"], r["seed"], r["file"]))


def values(runs, workload: str, group: str, metric: str, trace: bool) -> List[float]:
    return [
        r[group][metric][0]
        for r in runs
        if r["workload"] == workload and r["trace"] == trace and metric in r.get(group, {})
    ]


def quartiles(sample: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(sample) == 1:
        return sample[0], sample[0], sample[0]
    q1, median, q3 = statistics.quantiles(sample, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str, bound: float) -> Dict[str, Any]:
    """The section-8 rule for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    spread = p_q3 - p_q1
    worse_by = -sign * (c_med - p_med) / p_med if p_med else 0.0
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and spread / abs(p_med) > bound and not every_run_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "regressed"
    elif pairs and wins >= 0.9 * len(pairs) and sign * (c_med - p_med) > spread:
        outcome = "improved"
    else:
        outcome = "no worse"
    return {
        "parent": [p_q1, p_med, p_q3],
        "change": [c_q1, c_med, c_q3],
        "n": [len(parent), len(change)],
        "win_fraction": wins / len(pairs) if pairs else None,
        "verdict": outcome,
    }


def failure_share(runs, workload: str) -> Tuple[int, int]:
    chosen = [r for r in runs if r["workload"] == workload and not r["trace"]]
    return sum(r["failed"] for r in chosen), sum(r["attempted"] for r in chosen)


def compare(parent_runs, change_runs, spec) -> int:
    status = 0
    workloads = [w["name"] for w in spec["workloads"]]
    print("workload metric parent[q1 med q3] change[q1 med q3] n wins verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = values(parent_runs, workload, "end_to_end", name, False)
            change = values(change_runs, workload, "end_to_end", name, False)
            if not parent or not change:
                continue
            row = verdict(parent, change, metric["better"], metric["bound"])
            if row["verdict"] == "regressed":
                status = 1
            print(
                f"{workload} {name} "
                + " ".join(f"{v:.5g}" for v in row["parent"])
                + " | "
                + " ".join(f"{v:.5g}" for v in row["change"])
                + f" n={row['n'][0]}/{row['n'][1]} wins={row['win_fraction']:.2f}"
                + f" {row['verdict']}"
            )
        p_failed, p_attempted = failure_share(parent_runs, workload)
        c_failed, c_attempted = failure_share(change_runs, workload)
        if p_attempted and c_attempted:
            worse = c_failed / c_attempted > p_failed / p_attempted
            status = 1 if worse else status
            print(
                f"{workload} failed {p_failed}/{p_attempted} | {c_failed}/{c_attempted}"
                f" {'regressed' if worse else 'no worse'}"
            )
    return status


def agree(a_runs, b_runs, spec) -> int:
    status = 0
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = values(a_runs, workload, "end_to_end", name, False)
            b = values(b_runs, workload, "end_to_end", name, False)
            if not a or not b:
                continue
            a_med, b_med = statistics.median(a), statistics.median(b)
            drift = abs(b_med - a_med) / a_med
            ok = drift <= metric["bound"]
            status = status if ok else 1
            print(
                f"{workload} {name} {a_med:.5g} | {b_med:.5g} drift={drift:.4f}"
                f" bound={metric['bound']} {'agree' if ok else 'DISAGREE'}"
            )
        counts = [
            m["name"]
            for m in spec["per_layer"]
            if m["unit"] == "count" and m["name"] not in TIMING_DEPENDENT_COUNTS
        ]
        by_seed: Dict[int, List[Dict[str, Any]]] = {}
        for run in a_runs + b_runs:
            if run["workload"] == workload and run["trace"]:
                by_seed.setdefault(run["seed"], []).append(run)
        for seed, runs in sorted(by_seed.items()):
            differing = [
                name
                for name in counts
                if len({json.dumps(r["per_layer"][name][0]) for r in runs}) > 1
            ]
            status = 1 if differing else status
            print(
                f"{workload} counts seed={seed} runs={len(runs)} "
                + ("identical" if not differing else "DIFFER: " + ", ".join(differing))
            )
    return status


def summary(runs, spec) -> Dict[str, Any]:
    out: Dict[str, Any] = {"host": runs[0]["host"] if runs else {}, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        rows: Dict[str, Any] = {}
        for group, trace in (("end_to_end", False), ("per_layer", True)):
            for metric in spec[group]:
                sample = values(runs, workload, group, metric["name"], trace)
                if sample:
                    q1, median, q3 = quartiles(sample)
                    rows[metric["name"]] = {
                        "median": median,
                        "q1": q1,
                        "q3": q3,
                        "n": len(sample),
                        "unit": metric["unit"],
                    }
        out["workloads"][workload] = rows
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--agree", action="store_true", help="two sets of the same code")
    mode.add_argument("--summary", action="store_true", help="medians of one set as JSON")
    parser.add_argument("dirs", nargs="+", type=pathlib.Path)
    args = parser.parse_args(argv)
    spec = load_spec()
    sets = [load_runs(d) for d in args.dirs]
    if args.summary:
        if len(sets) != 1:
            parser.error("--summary takes one directory")
        print(json.dumps(summary(sets[0], spec), indent=1, sort_keys=True))
        return 0
    if len(sets) != 2:
        parser.error("give two directories")
    return (agree if args.agree else compare)(sets[0], sets[1], spec)


if __name__ == "__main__":
    sys.exit(main())

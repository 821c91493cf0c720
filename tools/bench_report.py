#!/usr/bin/env python3
"""Bench-regression tracker: fold BENCH_*.json + history into a trend report.

Stdlib-only. The repo commits one ``BENCH_<name>.json`` per benchmark
suite (pipeline, scaling, faults, revocation, obs) and an append-only
``benchmarks/history.jsonl`` whose lines snapshot the *headline* metrics
of those files over time. This tool:

- **reports** (default): renders a markdown + JSON trend report — for
  every headline metric, the committed current value, the most recent
  history baseline, and the percentage change in the metric's "good"
  direction;
- **checks** (``--check``): exits 1 when any headline metric regressed
  by more than ``--threshold`` (default 15%) against its baseline —
  the CI gate;
- **records** (``--record``): appends the current headline values as a
  new history line (do this when intentionally refreshing the BENCH
  files).

Scaling entries are annotated — never failed *and never passed as
improved* — when the recorded environment's ``cpu_count`` is below the
worker count the entry used: single-core CI cannot meaningfully move an
8-worker speedup in either direction, so those rows carry a
``stale-cpu`` note and are excluded from ``--check``. The same logic
applies to the *baseline*: a history entry recorded on too few CPUs is
treated as no baseline at all, so a later healthy run is never judged
against meaningless numbers.

Usage::

    python tools/bench_report.py --check
    python tools/bench_report.py --out-md out/BENCH_REPORT.md --out-json out/bench_report.json
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, List, Optional

#: Headline metrics per committed BENCH file: dotted path into the
#: file's "benchmarks" object, the direction that counts as good, and —
#: for worker-scaling entries — the worker count the entry exercised
#: (compared against the recorded environment's cpu_count).
HEADLINES: Dict[str, List[Dict[str, Any]]] = {
    "BENCH_pipeline": [
        {"path": "full_trial.fast_s", "good": "lower"},
        {"path": "full_trial.speedup", "good": "higher"},
    ],
    "BENCH_obs": [
        {"path": "batch_core.ratio.idle_over_off.median", "good": "lower"},
        {"path": "batch_core.ratio.on_over_off.median", "good": "lower"},
    ],
    "BENCH_revocation": [
        {"path": "in_process_base_station.alerts_per_sec", "good": "higher"},
        {"path": "service.memory.alerts_per_sec", "good": "higher"},
        {"path": "service.jsonl.alerts_per_sec", "good": "higher"},
        {"path": "recovery.records_per_sec", "good": "higher"},
    ],
    "BENCH_scaling": [
        {
            "path": f"queue_scaling.workers.{w}.throughput_trials_per_s",
            "good": "higher",
            "workers": w,
        }
        for w in (1, 2, 4, 8)
    ],
    "BENCH_faults": [
        {"path": "detection_vs_loss.0.0.detection_rate", "good": "higher"},
        {
            "path": "detection_vs_rtt_jitter.0.0.detection_rate",
            "good": "higher",
        },
    ],
    # Arena headlines are fully seeded and carry no timing; the gate
    # tracks each detector's detection and false-positive rates.
    "BENCH_arena": [
        spec
        for detector in ("paper", "consistency", "mahalanobis", "noisy")
        for spec in (
            {"path": f"arena.{detector}.detection_rate", "good": "higher"},
            {"path": f"arena.{detector}.false_positive_rate", "good": "lower"},
        )
    ],
}


def dig(data: Any, dotted: str) -> Optional[float]:
    """Resolve a dotted path against nested dicts; None when absent.

    Path segments match keys literally first, so float-looking keys like
    ``"0.0"`` survive: the longest literal prefix of remaining segments
    that is a key wins (``detection_vs_loss.0.0.rate`` finds key
    ``"0.0"``).
    """
    segments = dotted.split(".")
    node = data
    i = 0
    while i < len(segments):
        if not isinstance(node, dict):
            return None
        # Longest literal join of remaining segments that is a key.
        for j in range(len(segments), i, -1):
            candidate = ".".join(segments[i:j])
            if candidate in node:
                node = node[candidate]
                i = j
                break
        else:
            return None
    return float(node) if isinstance(node, (int, float)) else None


def load_current(repo_root: pathlib.Path, problems: List[str]) -> Dict[str, Any]:
    """Read every committed BENCH file named in :data:`HEADLINES`."""
    current: Dict[str, Any] = {}
    for bench in HEADLINES:
        path = repo_root / f"{bench}.json"
        try:
            current[bench] = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{path}: unreadable or invalid JSON: {exc}")
    return current


def load_history(path: pathlib.Path, problems: List[str]) -> Dict[str, Dict[str, Any]]:
    """The most recent history line per bench (later lines win)."""
    baselines: Dict[str, Dict[str, Any]] = {}
    if not path.exists():
        return baselines
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:
            problems.append(f"{path}:{lineno}: invalid JSON: {exc}")
            continue
        if isinstance(entry, dict) and isinstance(entry.get("bench"), str):
            baselines[entry["bench"]] = entry
    return baselines


def build_rows(
    current: Dict[str, Any],
    baselines: Dict[str, Dict[str, Any]],
    threshold: float,
) -> List[Dict[str, Any]]:
    """One report row per headline metric (current, baseline, verdict)."""
    rows: List[Dict[str, Any]] = []
    for bench, specs in sorted(HEADLINES.items()):
        document = current.get(bench)
        if document is None:
            continue
        benchmarks = document.get("benchmarks", {})
        environment = document.get("environment", {})
        cpu_count = environment.get("cpu_count")
        baseline_entry = baselines.get(bench, {})
        baseline_metrics = baseline_entry.get("metrics", {})
        baseline_cpu = baseline_entry.get("environment", {}).get("cpu_count")
        for spec in specs:
            path = spec["path"]
            value = dig(benchmarks, path)
            baseline = baseline_metrics.get(path)
            row: Dict[str, Any] = {
                "bench": bench,
                "metric": path,
                "good": spec["good"],
                "current": value,
                "baseline": baseline,
                "change_pct": None,
                "status": "ok",
                "notes": [],
            }
            workers = spec.get("workers")
            stale_cpu = (
                workers is not None
                and isinstance(cpu_count, int)
                and cpu_count < workers
            )
            # A baseline recorded below the entry's worker count is as
            # meaningless as a stale current value: comparing against it
            # can neither pass nor fail anything, so it is dropped (the
            # row becomes no-baseline) instead of feeding the verdict.
            baseline_stale = (
                workers is not None
                and isinstance(baseline_cpu, int)
                and baseline_cpu < workers
            )
            if stale_cpu:
                row["notes"].append(
                    f"stale-cpu: recorded on cpu_count={cpu_count} < "
                    f"workers={workers}; informational only"
                )
            if baseline_stale and isinstance(baseline, (int, float)):
                row["baseline"] = None
                baseline = None
                row["notes"].append(
                    f"stale-cpu baseline: history entry recorded on "
                    f"cpu_count={baseline_cpu} < workers={workers}; "
                    "treated as no baseline"
                )
            if value is None:
                row["status"] = "missing"
                row["notes"].append("metric absent from committed BENCH file")
            elif isinstance(baseline, (int, float)) and baseline != 0:
                change = (value - baseline) / abs(baseline)
                row["change_pct"] = round(change * 100.0, 2)
                # A stale current value can neither regress nor improve —
                # the comparison is annotated, never trusted, in either
                # direction.
                if stale_cpu:
                    if abs(change) > threshold:
                        row["status"] = "stale"
                else:
                    worse = (
                        change > 0 if spec["good"] == "lower" else change < 0
                    )
                    if worse and abs(change) > threshold:
                        row["status"] = "regression"
                    elif not worse and abs(change) > threshold:
                        row["status"] = "improved"
            else:
                row["status"] = "no-baseline"
            rows.append(row)
    return rows


def render_markdown(rows: List[Dict[str, Any]], threshold: float) -> str:
    """The human-readable trend report."""
    lines = [
        "# Benchmark trend report",
        "",
        f"Regression threshold: {threshold:.0%} against the most recent "
        "`benchmarks/history.jsonl` baseline. Direction-aware: 'lower' "
        "metrics regress upward, 'higher' metrics regress downward.",
        "",
        "| bench | metric | good | baseline | current | change | status |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        change = (
            f"{row['change_pct']:+.1f}%" if row["change_pct"] is not None else "—"
        )
        baseline = row["baseline"]
        current = row["current"]
        lines.append(
            "| {bench} | `{metric}` | {good} | {baseline} | {current} "
            "| {change} | {status} |".format(
                bench=row["bench"],
                metric=row["metric"],
                good=row["good"],
                baseline="—" if baseline is None else f"{baseline:g}",
                current="—" if current is None else f"{current:g}",
                change=change,
                status=row["status"],
            )
        )
    notes = [note for row in rows for note in row["notes"]]
    if notes:
        lines += ["", "## Notes", ""]
        lines += [f"- {note}" for note in notes]
    regressions = [r for r in rows if r["status"] == "regression"]
    lines += [
        "",
        f"**{len(regressions)} regression(s)** across {len(rows)} headline "
        "metric(s).",
    ]
    return "\n".join(lines) + "\n"


def record_history(
    history_path: pathlib.Path,
    current: Dict[str, Any],
    recorded: str,
) -> int:
    """Append one history line per bench with its headline metrics."""
    lines = []
    for bench, specs in sorted(HEADLINES.items()):
        document = current.get(bench)
        if document is None:
            continue
        metrics = {}
        for spec in specs:
            value = dig(document.get("benchmarks", {}), spec["path"])
            if value is not None:
                metrics[spec["path"]] = value
        lines.append(
            json.dumps(
                {
                    "recorded": recorded,
                    "bench": bench,
                    "metrics": metrics,
                    "environment": document.get("environment", {}),
                },
                sort_keys=True,
            )
        )
    history_path.parent.mkdir(parents=True, exist_ok=True)
    with history_path.open("a", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; exit 1 on --check regressions (or unreadable input)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = pathlib.Path(__file__).resolve().parents[1]
    parser.add_argument(
        "--repo-root",
        type=pathlib.Path,
        default=default_root,
        help="directory holding the BENCH_*.json files",
    )
    parser.add_argument(
        "--history",
        type=pathlib.Path,
        default=None,
        help="history JSONL path (default: <repo-root>/benchmarks/history.jsonl)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="fractional regression tolerance for --check (default 0.15)",
    )
    parser.add_argument("--out-md", type=pathlib.Path, default=None)
    parser.add_argument("--out-json", type=pathlib.Path, default=None)
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any headline metric regressed past the threshold",
    )
    parser.add_argument(
        "--record",
        action="store_true",
        help="append the current headline values to the history file",
    )
    parser.add_argument(
        "--recorded",
        default="unreleased",
        help="timestamp/tag stored with --record entries",
    )
    args = parser.parse_args(argv)
    history_path = args.history or (args.repo_root / "benchmarks" / "history.jsonl")

    problems: List[str] = []
    current = load_current(args.repo_root, problems)
    baselines = load_history(history_path, problems)
    rows = build_rows(current, baselines, args.threshold)
    markdown = render_markdown(rows, args.threshold)
    payload = {
        "threshold": args.threshold,
        "rows": rows,
        "problems": problems,
    }
    if args.out_md is not None:
        args.out_md.parent.mkdir(parents=True, exist_ok=True)
        args.out_md.write_text(markdown)
    if args.out_json is not None:
        args.out_json.parent.mkdir(parents=True, exist_ok=True)
        args.out_json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    if args.out_md is None and args.out_json is None and not args.check:
        print(markdown)
    if args.record:
        written = record_history(history_path, current, args.recorded)
        print(f"recorded {written} history line(s) -> {history_path}")
    for problem in problems:
        print(problem, file=sys.stderr)
    regressions = [r for r in rows if r["status"] == "regression"]
    if args.check:
        for row in regressions:
            print(
                f"REGRESSION {row['bench']} {row['metric']}: baseline "
                f"{row['baseline']} -> current {row['current']} "
                f"({row['change_pct']:+.1f}%, good={row['good']})",
                file=sys.stderr,
            )
        stale = [r for r in rows if r["status"] == "stale"]
        for row in stale:
            print(
                f"note (not failing) {row['bench']} {row['metric']}: "
                f"{row['change_pct']:+.1f}% but {row['notes'][0]}",
                file=sys.stderr,
            )
        verdict = "FAILED" if regressions or problems else "OK"
        print(
            f"bench check {verdict}: {len(regressions)} regression(s), "
            f"{len(stale)} stale-cpu note(s), {len(rows)} metric(s)"
        )
    return 1 if (args.check and (regressions or problems)) or (
        not args.check and problems
    ) else 0


if __name__ == "__main__":
    raise SystemExit(main())

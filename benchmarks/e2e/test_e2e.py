"""Smoke tests of the repository benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The workloads run at smoke size (``--smoke``) for about a second each.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import compare
import hostspeed
import tracing
import workload

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*arguments: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), *arguments],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    done = run_benchmark(
        "--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace,
        "--smoke", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for line in done.stdout.splitlines()[:-1]:
        if line.split()[1] in result["metrics"]:
            _, metric, value, unit = line.split()
            assert unit == result["metrics"][metric]["unit"]
            float(value)


def test_names_and_units_are_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = WORKLOADS + [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for group in ("end_to_end", "per_layer"):
        for metric in SPEC[group]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def tamper(instance) -> None:
    """Make a pipeline workload's untraced results disagree with any rerun."""
    if isinstance(instance, workload.SweepWorkload):
        instance.results = [dict(r, probes_sent=r["probes_sent"] + 1) for r in instance.results]
    elif isinstance(instance, workload.ArenaQueue):
        for arena in instance.grids.values():
            for entry in arena["detectors"].values():
                for cell in entry["grid"].values():
                    cell["affected_non_beacons_per_malicious"] += 1.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_injected_divergence_fails_the_cross_check(name, tmp_path, monkeypatch):
    instance = workload.WORKLOAD_CLASSES[name](0, tmp_path, smoke=True)
    try:
        measurement = instance.measure(0.01)
        assert all(check.ok for check in instance.cross_check(measurement))
        # Closed loops stop only at the end of a rotation of their grid.
        if isinstance(instance, workload.SweepWorkload):
            assert len(instance.configs) == instance.cycle > 1
        elif isinstance(instance, workload.ArenaQueue):
            assert len(instance.grids) == len(workload.ARENA_DETECTORS)
        if isinstance(instance, workload.RevocationStream):
            original = instance.reference
            monkeypatch.setattr(instance, "reference", lambda alerts: original(alerts[:-1]))
            measurement = instance.measure(0.01)
        else:
            tamper(instance)
        checks = instance.cross_check(measurement)
    finally:
        instance.close()
    assert checks and not all(check.ok for check in checks)


def wrapped_slots():
    targets, _ = workload.layer_targets()
    slots = {}
    for target in targets:
        owner, name, raw = tracing.resolve(target)
        slots[target.qualname] = (owner, name, raw)
    return slots


@pytest.mark.parametrize("name", ["paper_sweep", "revocation_stream"])
def test_trace_pass_restores_every_wrapped_attribute(name, tmp_path):
    before = wrapped_slots()
    instance = workload.WORKLOAD_CLASSES[name](0, tmp_path, smoke=True)
    try:
        measurement = instance.measure(0.01)
        layer, missing, checks = workload.trace_pass(instance, measurement, tmp_path)
    finally:
        instance.close()
    assert missing == [] and all(check.ok for check in checks)
    assert layer["trace.ops"][0] == instance.trace_count
    for qualname, (owner, attr, raw) in before.items():
        assert vars(owner).get(attr, tracing._MISSING) is raw, qualname
    trace_file = tmp_path / f"{name}-seed0.trace.json"
    assert json.loads(trace_file.read_text())["traceEvents"]


def test_missing_wrapped_name_is_reported_not_raised(tmp_path, monkeypatch):
    absent = [
        tracing.Target("repro.core.pipeline", "no_such_function", "gone.a"),
        tracing.Target("repro.no_such_module", "f", "gone.b"),
        tracing.Target("repro.sim.engine", "Engine.no_such_method", "gone.c"),
    ]
    with tracing.traced(absent, tracing.SpanRecorder()) as patches:
        assert patches.installed == []
    assert patches.missing == [t.qualname for t in absent]

    original = workload.layer_targets
    monkeypatch.setattr(
        workload, "layer_targets", lambda: (original()[0] + absent[:1], [])
    )
    instance = workload.PaperSweep(0, tmp_path, smoke=True)
    try:
        layer, missing, _ = workload.trace_pass(instance, instance.measure(0.01), tmp_path)
    finally:
        instance.close()
    assert missing == [absent[0].qualname]
    assert layer["trace.missing_wrappers"][0] == 1


def test_scaler_divides_the_reference_by_the_probes_around_an_operation(monkeypatch):
    probes = iter([0.002, 0.006, 0.0035])
    monkeypatch.setattr(hostspeed, "probe", lambda cpus: next(probes))
    scaler = hostspeed.Scaler()
    assert scaler.factor() == pytest.approx(hostspeed.REFERENCE_S / 0.004)
    assert scaler.factor() == pytest.approx(hostspeed.REFERENCE_S / 0.00475)
    assert scaler.slowdown() == pytest.approx(1.0)


def test_recorder_self_time_excludes_children():
    recorder = tracing.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            sum(range(20_000))
    assert recorder.calls("inner") == 1
    assert recorder.self_s("outer") == pytest.approx(
        recorder.total_s("outer") - recorder.total_s("inner")
    )
    inner, outer = recorder.events
    assert inner["parent"] == outer["id"] and outer["parent"] is None


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks/e2e",
        ignore=shutil.ignore_patterns("results", "__pycache__", ".pytest_cache"),
    )
    done = run_benchmark("--workload", "paper_sweep", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "higher", 0.1)["verdict"] == "improved"
    assert compare.verdict(parent, faster, "lower", 0.1)["verdict"] == "regressed"
    assert compare.verdict(parent, parent, "higher", 0.1)["verdict"] == "no worse"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert compare.verdict(noisy, noisy, "higher", 0.1)["verdict"] == "unresolved"
    row = compare.verdict(parent, faster, "higher", 0.1)
    assert row["win_fraction"] == 1.0 and row["n"] == [10, 10]


def test_agree_requires_identical_counts(capsys):
    def run(events):
        return {
            "workload": "paper_sweep",
            "seed": 0,
            "trace": True,
            "file": "x",
            "end_to_end": {},
            "per_layer": {
                m["name"]: [events if m["name"] == "engine.events" else 0, m["unit"]]
                for m in SPEC["per_layer"]
            },
        }

    assert compare.agree([run(10)], [run(10)], SPEC) == 0
    assert compare.agree([run(10)], [run(11)], SPEC) == 1
    assert "engine.events" in capsys.readouterr().out

"""Bench-regression tracker: trend rows, the --check gate, stale-cpu.

Runs ``tools/bench_report.py`` against synthetic BENCH files in a tmp
repo root so the verdict logic (direction-aware regressions, the 15%
threshold, last-history-line-wins baselines, stale-cpu annotation) is
pinned independent of the real committed numbers.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_report", REPO_ROOT / "tools" / "bench_report.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_report = _load()

#: One complete, healthy set of BENCH files (every headline present).
BASELINE_BENCHES = {
    "BENCH_pipeline": {
        "full_trial": {"fast_s": 0.2, "naive_s": 2.0, "speedup": 10.0},
    },
    "BENCH_obs": {
        "batch_core": {
            "ratio": {
                "idle_over_off": {"median": 1.0},
                "on_over_off": {"median": 1.1},
            }
        },
    },
    "BENCH_revocation": {
        "in_process_base_station": {"alerts_per_sec": 50000.0},
        "service": {
            "memory": {"alerts_per_sec": 20000.0},
            "jsonl": {"alerts_per_sec": 15000.0},
        },
        "recovery": {"records_per_sec": 80000.0},
    },
    "BENCH_scaling": {
        "queue_scaling": {
            "workers": {
                str(w): {"throughput_trials_per_s": float(w)}
                for w in (1, 2, 4, 8)
            }
        }
    },
    "BENCH_faults": {
        "detection_vs_loss": {"0.0": {"detection_rate": 0.9}},
        "detection_vs_rtt_jitter": {"0.0": {"detection_rate": 0.85}},
    },
    "BENCH_arena": {
        "arena": {
            name: {"detection_rate": 0.5, "false_positive_rate": 0.1}
            for name in ("paper", "consistency", "mahalanobis", "noisy")
        }
    },
}


def _write_benches(root, benches, cpu_count=16):
    for name, benchmarks in benches.items():
        (root / f"{name}.json").write_text(
            json.dumps(
                {
                    "schema": 1,
                    "environment": {"cpu_count": cpu_count, "python": "3"},
                    "benchmarks": benchmarks,
                }
            )
        )


@pytest.fixture
def repo(tmp_path):
    """A tmp repo root with healthy BENCH files and a recorded history."""
    _write_benches(tmp_path, BASELINE_BENCHES)
    assert (
        bench_report.main(
            ["--repo-root", str(tmp_path), "--record", "--recorded", "t0"]
        )
        == 0
    )
    return tmp_path


class TestDig:
    def test_plain_nested_path(self):
        assert bench_report.dig({"a": {"b": 1.5}}, "a.b") == 1.5

    def test_float_looking_keys_resolve_literally(self):
        data = {"detection_vs_loss": {"0.0": {"detection_rate": 0.9}}}
        assert (
            bench_report.dig(data, "detection_vs_loss.0.0.detection_rate")
            == 0.9
        )

    def test_missing_or_non_numeric_is_none(self):
        assert bench_report.dig({"a": {"b": 1}}, "a.c") is None
        assert bench_report.dig({"a": "text"}, "a") is None
        assert bench_report.dig({"a": {"b": 1}}, "a.b.c") is None


class TestCheckGate:
    def test_unchanged_benches_pass(self, repo, capsys):
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 0
        assert "bench check OK" in capsys.readouterr().out

    def test_lower_metric_regressing_upward_fails(self, repo, capsys):
        benches = copy.deepcopy(BASELINE_BENCHES)
        benches["BENCH_pipeline"]["full_trial"]["fast_s"] = 0.3  # +50%
        _write_benches(repo, benches)
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 1
        captured = capsys.readouterr()
        assert "bench check FAILED" in captured.out
        assert "REGRESSION BENCH_pipeline full_trial.fast_s" in captured.err

    def test_higher_metric_regressing_downward_fails(self, repo):
        benches = copy.deepcopy(BASELINE_BENCHES)
        benches["BENCH_faults"]["detection_vs_loss"]["0.0"][
            "detection_rate"
        ] = 0.5
        _write_benches(repo, benches)
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 1

    def test_within_threshold_noise_passes(self, repo):
        benches = copy.deepcopy(BASELINE_BENCHES)
        benches["BENCH_pipeline"]["full_trial"]["fast_s"] = 0.22  # +10%
        _write_benches(repo, benches)
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 0

    def test_improvement_never_fails(self, repo):
        benches = copy.deepcopy(BASELINE_BENCHES)
        benches["BENCH_pipeline"]["full_trial"]["fast_s"] = 0.05  # 4x faster
        _write_benches(repo, benches)
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 0

    def test_missing_bench_file_is_a_problem(self, repo):
        (repo / "BENCH_faults.json").unlink()
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 1


class TestStaleCpu:
    def test_scaling_regression_on_small_cpu_is_annotated_not_failed(
        self, repo, capsys
    ):
        benches = copy.deepcopy(BASELINE_BENCHES)
        workers = benches["BENCH_scaling"]["queue_scaling"]["workers"]
        workers["8"]["throughput_trials_per_s"] = 2.0  # -75% vs baseline 8
        _write_benches(repo, benches, cpu_count=2)
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 0
        captured = capsys.readouterr()
        assert "stale-cpu" in captured.err
        assert "note (not failing)" in captured.err
        assert "1 stale-cpu note(s)" in captured.out

    def test_non_scaling_regressions_still_fail_on_small_cpu(self, repo):
        benches = copy.deepcopy(BASELINE_BENCHES)
        benches["BENCH_obs"]["batch_core"]["ratio"]["on_over_off"]["median"] = 9.0
        _write_benches(repo, benches, cpu_count=1)
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 1

    def test_scaling_improvement_on_small_cpu_is_never_improved(self, repo):
        # The inverse direction of the annotation: a stale current value
        # must not *pass* as an improvement either — both directions of a
        # meaningless comparison are "stale".
        benches = copy.deepcopy(BASELINE_BENCHES)
        workers = benches["BENCH_scaling"]["queue_scaling"]["workers"]
        workers["8"]["throughput_trials_per_s"] = 99.0  # "12x" on 2 CPUs
        _write_benches(repo, benches, cpu_count=2)
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 0
        rows = bench_report.build_rows(
            bench_report.load_current(repo, []),
            bench_report.load_history(repo / "benchmarks" / "history.jsonl", []),
            0.15,
        )
        by_metric = {row["metric"]: row for row in rows}
        eight = by_metric["queue_scaling.workers.8.throughput_trials_per_s"]
        assert eight["status"] == "stale"
        # The unchanged stale row stays plain "ok" (annotated, no verdict).
        four = by_metric["queue_scaling.workers.4.throughput_trials_per_s"]
        assert four["status"] == "ok"
        assert any("stale-cpu" in note for note in four["notes"])

    def test_stale_baseline_is_treated_as_no_baseline(self, repo, capsys):
        # Record a baseline from a 2-CPU machine: its 4- and 8-worker
        # numbers are meaningless, so later healthy runs must compare
        # against *nothing* — neither failing (regressed direction) nor
        # passing-as-improved (improved direction) against them.
        stale = copy.deepcopy(BASELINE_BENCHES)
        workers = stale["BENCH_scaling"]["queue_scaling"]["workers"]
        workers["4"]["throughput_trials_per_s"] = 0.1
        workers["8"]["throughput_trials_per_s"] = 99.0
        _write_benches(repo, stale, cpu_count=2)
        assert (
            bench_report.main(
                ["--repo-root", str(repo), "--record", "--recorded", "t1"]
            )
            == 0
        )
        # Healthy 16-CPU current run: +3900% vs workers.4, -92% vs
        # workers.8 — both comparisons would trip the gate if trusted.
        _write_benches(repo, BASELINE_BENCHES, cpu_count=16)
        capsys.readouterr()
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 0
        assert "bench check OK" in capsys.readouterr().out
        rows = bench_report.build_rows(
            bench_report.load_current(repo, []),
            bench_report.load_history(repo / "benchmarks" / "history.jsonl", []),
            0.15,
        )
        by_metric = {row["metric"]: row for row in rows}
        for w in (4, 8):
            row = by_metric[
                f"queue_scaling.workers.{w}.throughput_trials_per_s"
            ]
            assert row["status"] == "no-baseline"
            assert row["baseline"] is None
            assert any("stale-cpu baseline" in note for note in row["notes"])
        # The 1- and 2-worker entries are valid on 2 CPUs: still compared.
        assert (
            by_metric[
                "queue_scaling.workers.1.throughput_trials_per_s"
            ]["status"]
            == "ok"
        )


class TestHistory:
    def test_last_history_line_wins(self, repo):
        benches = copy.deepcopy(BASELINE_BENCHES)
        benches["BENCH_pipeline"]["full_trial"]["fast_s"] = 0.4
        _write_benches(repo, benches)
        # Record the slower state as the newest baseline: the once-slow
        # current values are now exactly on baseline again.
        assert (
            bench_report.main(
                ["--repo-root", str(repo), "--record", "--recorded", "t1"]
            )
            == 0
        )
        assert bench_report.main(["--repo-root", str(repo), "--check"]) == 0
        history = (repo / "benchmarks" / "history.jsonl").read_text()
        assert len(history.splitlines()) == 2 * len(BASELINE_BENCHES)

    def test_no_history_means_no_baseline_not_failure(self, tmp_path):
        _write_benches(tmp_path, BASELINE_BENCHES)
        assert (
            bench_report.main(["--repo-root", str(tmp_path), "--check"]) == 0
        )
        rows = bench_report.build_rows(
            bench_report.load_current(tmp_path, []), {}, 0.15
        )
        assert {row["status"] for row in rows} == {"no-baseline"}


class TestReportOutputs:
    def test_markdown_and_json_artifacts(self, repo, tmp_path):
        out_md = tmp_path / "report.md"
        out_json = tmp_path / "report.json"
        assert (
            bench_report.main(
                [
                    "--repo-root",
                    str(repo),
                    "--out-md",
                    str(out_md),
                    "--out-json",
                    str(out_json),
                ]
            )
            == 0
        )
        markdown = out_md.read_text()
        assert "# Benchmark trend report" in markdown
        assert "| BENCH_pipeline | `full_trial.fast_s` |" in markdown
        payload = json.loads(out_json.read_text())
        assert payload["problems"] == []
        assert len(payload["rows"]) == 22  # every headline metric present

    def test_committed_repo_headlines_all_resolve(self):
        # The real BENCH files must keep every headline metric live, or
        # the CI gate silently shrinks its coverage.
        problems = []
        current = bench_report.load_current(REPO_ROOT, problems)
        assert problems == []
        rows = bench_report.build_rows(current, {}, 0.15)
        assert all(row["current"] is not None for row in rows)

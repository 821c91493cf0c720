"""Tests for the reproduction-report generator."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.cli import main
from repro.experiments.report import build_report, collect_outputs, write_report


@pytest.fixture
def output_dir(tmp_path):
    d = tmp_path / "output"
    d.mkdir()
    (d / "figure05.txt").write_text("== figure05 ==\ndata-a\n")
    (d / "figure04.txt").write_text("== figure04 ==\ndata-b\n")
    (d / "ablation_tdoa.txt").write_text("== ablation_tdoa ==\ndata-c\n")
    return d


class TestCollect:
    def test_ordering_figures_then_ablations(self, output_dir):
        names = [p.stem for p in collect_outputs(output_dir)]
        assert names == ["figure04", "figure05", "ablation_tdoa"]

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            collect_outputs(tmp_path / "nope")


class TestBuild:
    def test_contains_sections_and_data(self, output_dir):
        report = build_report(output_dir)
        assert report.startswith("# Reproduction report")
        assert "## figure04" in report
        assert "data-a" in report and "data-c" in report
        # Figures appear before ablations.
        assert report.index("## figure04") < report.index("## ablation_tdoa")

    def test_deterministic_given_timestamp(self, output_dir):
        import datetime

        t = datetime.datetime(2026, 7, 6, 12, 0, 0)
        assert build_report(output_dir, now=t) == build_report(output_dir, now=t)


class TestWrite:
    def test_writes_file(self, output_dir, tmp_path):
        dest = write_report(output_dir, tmp_path / "r" / "REPORT.md")
        assert dest.exists()
        assert "figure05" in dest.read_text()


class TestCliReport:
    def test_report_to_stdout(self, output_dir, capsys):
        assert main(["report", "--bench-output", str(output_dir)]) == 0
        out = capsys.readouterr().out
        assert "## figure05" in out

    def test_report_to_file(self, output_dir, tmp_path, capsys):
        code = main(
            [
                "report",
                "--bench-output",
                str(output_dir),
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "REPORT.md").exists()

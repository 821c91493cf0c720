"""Tests for the Monte-Carlo runner, the CLI, and SVG rendering."""

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.experiments import figures
from repro.experiments.cli import main
from repro.experiments.montecarlo import run_trials, summarize
from repro.experiments.series import FigureData
from repro.experiments.svgplot import render_svg, save_svg


class TestSummarize:
    def test_mean_and_interval(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.mean == 2.5
        assert s.low < 2.5 < s.high
        assert s.n == 4

    def test_single_trial_infinite_interval(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.half_width == float("inf")

    def test_constant_sample_zero_width(self):
        s = summarize([3.0] * 10)
        assert s.half_width == 0.0
        assert s.contains(3.0)
        assert not s.contains(3.1)

    def test_wider_at_higher_confidence(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert summarize(values, level=0.99).half_width > summarize(
            values, level=0.90
        ).half_width

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([])

    def test_unsupported_level_rejected(self):
        with pytest.raises(ConfigurationError):
            summarize([1.0, 2.0], level=0.5)


class TestRunTrials:
    def test_aggregates_metrics(self):
        def experiment(seed):
            return {"a": seed % 7, "b": 1.0}

        summaries = run_trials(experiment, trials=20, base_seed=3)
        assert set(summaries) == {"a", "b"}
        assert summaries["b"].mean == 1.0
        assert summaries["b"].half_width == 0.0

    def test_deterministic_in_base_seed(self):
        def experiment(seed):
            return {"x": (seed * 2654435761) % 1000}

        a = run_trials(experiment, trials=5, base_seed=1)["x"].mean
        b = run_trials(experiment, trials=5, base_seed=1)["x"].mean
        c = run_trials(experiment, trials=5, base_seed=2)["x"].mean
        assert a == b
        assert a != c

    def test_seeds_distinct_across_trials(self):
        seen = []

        def experiment(seed):
            seen.append(seed)
            return {"x": 0.0}

        run_trials(experiment, trials=10, base_seed=0)
        assert len(set(seen)) == 10

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            run_trials(lambda s: {}, trials=0)

    def test_undefined_metrics_excluded_from_mean(self):
        # An experiment omits a metric on some trials (the pipeline does
        # this for undefined rates, e.g. detection_rate with zero
        # malicious beacons). The mean must be over defined trials only —
        # not dragged toward zero by the undefined ones.
        def experiment(seed):
            metrics = {"always": 0.5}
            if seed % 2 == 0:
                metrics["sometimes"] = 1.0
            return metrics

        summaries = run_trials(experiment, trials=20, base_seed=3)
        assert summaries["always"].n == 20
        assert 0 < summaries["sometimes"].n < 20
        assert summaries["sometimes"].mean == 1.0

    def test_ci_covers_true_mean_of_coin(self):
        import random

        def experiment(seed):
            rng = random.Random(seed)
            return {"heads": sum(rng.random() < 0.5 for _ in range(200)) / 200}

        summary = run_trials(experiment, trials=30, base_seed=7)["heads"]
        assert summary.contains(0.5)


class TestSvg:
    def make_fig(self):
        fig = FigureData(
            figure_id="figX", title="T", x_label="x", y_label="y"
        )
        s = fig.new_series("curve-a")
        for i in range(5):
            s.append(i, i * i)
        t = fig.new_series("curve-b")
        for i in range(5):
            t.append(i, 2 * i)
        return fig

    def test_render_is_valid_ish_svg(self):
        svg = render_svg(self.make_fig())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        assert "curve-a" in svg and "curve-b" in svg

    def test_scatter_mode_uses_circles(self):
        svg = render_svg(self.make_fig(), scatter=True)
        assert "circle" in svg
        assert "polyline" not in svg

    def test_escapes_labels(self):
        fig = FigureData(
            figure_id="f", title="a<b&c", x_label="x", y_label="y"
        )
        fig.new_series("s").append(0, 0)
        svg = render_svg(fig)
        assert "a&lt;b&amp;c" in svg

    def test_empty_figure_rejected(self):
        fig = FigureData(figure_id="f", title="t", x_label="x", y_label="y")
        with pytest.raises(ConfigurationError):
            render_svg(fig)

    def test_save_svg_writes_file(self, tmp_path):
        path = save_svg(self.make_fig(), str(tmp_path / "fig.svg"))
        assert pathlib.Path(path).read_text().startswith("<svg")

    def test_render_real_figure(self):
        svg = render_svg(figures.figure05_detection_vs_pprime())
        assert svg.count("polyline") == 4


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure05" in out
        assert "figure14" in out

    def test_single_figure_table(self, capsys):
        assert main(["figure05"]) == 0
        out = capsys.readouterr().out
        assert "figure05" in out
        assert "m=8" in out

    def test_unknown_target(self, capsys):
        assert main(["figure99"]) == 2

    def test_out_directory_and_svg(self, tmp_path, capsys):
        code = main(
            ["figure05", "--out", str(tmp_path), "--svg", "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "figure05.txt").exists()
        assert (tmp_path / "figure05.svg").exists()
        assert capsys.readouterr().out == ""

    def test_profile_flag_emits_json(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.core.pipeline import PipelineConfig
        from repro.experiments import figures as figures_module
        from repro.experiments.series import FigureData

        def generator(runner):
            """Tiny simulation-backed fake figure."""
            config = PipelineConfig(
                n_total=60,
                n_beacons=10,
                n_malicious=1,
                field_width_ft=300.0,
                field_height_ft=300.0,
                m_detecting_ids=1,
                rtt_calibration_samples=100,
                wormhole_endpoints=None,
                seed=3,
            )
            metrics = runner.run_pipeline_configs([config], keys=["pt"])[0]
            fig = FigureData(
                figure_id="figure97", title="t", x_label="x", y_label="y"
            )
            fig.new_series("s").append(0, metrics["detection_rate"])
            return fig

        monkeypatch.setattr(
            figures_module, "ALL_FIGURES", {"figure97": generator}
        )
        code = main(
            ["figure97", "--profile", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "profile.json").read_text())
        assert payload["trials"] == 1
        assert "detection" in payload["phases"]
        assert payload["counters"]["spatial_queries"] > 0
        # --quiet suppressed the stdout copy.
        assert capsys.readouterr().out == ""

    def test_trial_target_honours_profile(self, tmp_path, capsys):
        import json

        out = tmp_path / "new-dir"
        code = main(["trial", "--profile", "--out", str(out), "--quiet"])
        assert code == 0
        payload = json.loads((out / "profile.json").read_text())
        assert payload["trials"] == 1
        assert set(payload["phases"]) == {
            "build", "collusion", "detection", "notices", "localization", "metrics"
        }
        assert payload["counters"]["deliveries"] > 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("target", ["list", "report", "arena", "revocation"])
    def test_profile_rejected_where_no_trial_profiles(self, target, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([target, "--profile"])
        assert exit_info.value.code == 2
        assert "--profile" in capsys.readouterr().err

    def test_all_target_runs_every_generator(self, tmp_path, monkeypatch):
        from repro.experiments import figures as figures_module
        from repro.experiments.series import FigureData

        calls = []

        def fake(name):
            def generator():
                calls.append(name)
                fig = FigureData(
                    figure_id=name, title=name, x_label="x", y_label="y"
                )
                fig.new_series("s").append(0, 0)
                return fig

            return generator

        monkeypatch.setattr(
            figures_module,
            "ALL_FIGURES",
            {"figure98": fake("figure98"), "figure99": fake("figure99")},
        )
        code = main(["all", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert calls == ["figure98", "figure99"]
        assert (tmp_path / "figure98.txt").exists()
        assert (tmp_path / "figure99.txt").exists()

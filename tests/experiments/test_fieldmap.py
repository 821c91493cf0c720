"""Tests for the field-map SVG renderer."""

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.errors import ConfigurationError
from repro.experiments.fieldmap import (
    FieldMap,
    MarkerGroup,
    pipeline_field_map,
    render_field_map,
)
from repro.utils.geometry import Point


class TestRenderFieldMap:
    def make_scene(self):
        scene = FieldMap(width_ft=100.0, height_ft=100.0, title="t")
        scene.add_group(
            MarkerGroup(label="a", points=[Point(10, 10)], color="#123456")
        )
        scene.add_group(
            MarkerGroup(
                label="b", points=[Point(50, 50)], shape="cross", color="#aa0000"
            )
        )
        scene.add_chord(Point(0, 0), Point(100, 100), "tunnel")
        return scene

    def test_renders_svg(self):
        svg = render_field_map(self.make_scene())
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "#123456" in svg
        assert "tunnel" in svg

    def test_shapes(self):
        svg = render_field_map(self.make_scene())
        assert "<circle" in svg  # circles for group a + legend
        assert "stroke-dasharray" in svg  # the chord

    def test_unknown_shape_rejected(self):
        scene = FieldMap(width_ft=10, height_ft=10)
        scene.add_group(
            MarkerGroup(label="x", points=[Point(1, 1)], shape="star")
        )
        with pytest.raises(ConfigurationError):
            render_field_map(scene)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            render_field_map(FieldMap(width_ft=0.0, height_ft=10.0))

    def test_y_axis_points_up(self):
        scene = FieldMap(width_ft=100.0, height_ft=100.0)
        scene.add_group(
            MarkerGroup(label="low", points=[Point(50, 0)], color="#111111")
        )
        scene.add_group(
            MarkerGroup(label="high", points=[Point(50, 100)], color="#222222")
        )
        svg = render_field_map(scene)
        low_line = next(
            ln for ln in svg.splitlines() if "#111111" in ln and "circle" in ln
        )
        high_line = next(
            ln for ln in svg.splitlines() if "#222222" in ln and "circle" in ln
        )

        def cy(line):
            return float(line.split('cy="')[1].split('"')[0])

        assert cy(low_line) > cy(high_line)  # SVG y grows downward


class TestPipelineFieldMap:
    def test_outcome_scene(self):
        pipeline = SecureLocalizationPipeline(
            PipelineConfig(
                n_total=150,
                n_beacons=30,
                n_malicious=3,
                field_width_ft=400.0,
                field_height_ft=400.0,
                p_prime=0.6,
                rtt_calibration_samples=300,
                wormhole_endpoints=((50.0, 50.0), (350.0, 300.0)),
                seed=7,
            )
        )
        pipeline.run()
        scene = pipeline_field_map(pipeline)
        labels = [g.label for g in scene.groups]
        assert labels == [
            "sensor",
            "misled sensor",
            "benign beacon",
            "malicious beacon",
            "revoked",
        ]
        total_points = sum(len(g.points) for g in scene.groups)
        assert total_points == 150  # every node appears exactly once
        assert scene.chords  # the wormhole is drawn
        svg = render_field_map(scene)
        assert "revoked" in svg

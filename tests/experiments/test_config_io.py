"""Tests for experiment-config manifests."""

import json

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.errors import ConfigurationError
from repro.experiments.config_io import (
    SCHEMA_VERSION,
    config_from_dict,
    config_to_dict,
    load_manifest,
    save_manifest,
)


class TestRoundTrip:
    def test_default_config(self):
        cfg = PipelineConfig()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_customized_config(self):
        cfg = PipelineConfig(
            p_prime=0.37,
            n_total=512,
            n_beacons=64,
            n_malicious=7,
            wormhole_endpoints=((1.0, 2.0), (3.0, 4.0)),
            revocation_dissemination="flood",
            seed=999,
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_no_wormhole(self):
        cfg = PipelineConfig(wormhole_endpoints=None)
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_key_rejected(self):
        data = config_to_dict(PipelineConfig())
        data["banana"] = 1
        with pytest.raises(ConfigurationError, match="banana"):
            config_from_dict(data)

    def test_invalid_value_rejected_on_load(self):
        data = config_to_dict(PipelineConfig())
        data["p_prime"] = 2.0
        with pytest.raises(ConfigurationError):
            config_from_dict(data)


class TestManifestFiles:
    def test_save_and_load(self, tmp_path):
        cfg = PipelineConfig(p_prime=0.11, seed=42)
        path = save_manifest(cfg, tmp_path / "exp" / "run.json", note="hello")
        assert load_manifest(path) == cfg
        raw = json.loads(path.read_text())
        assert raw["schema"] == SCHEMA_VERSION
        assert raw["note"] == "hello"
        assert raw["library_version"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_manifest(tmp_path / "nope.json")

    def test_bad_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_manifest(bad)

    @pytest.mark.parametrize("schema", [1, 999])
    def test_wrong_schema(self, tmp_path, schema):
        cfg = PipelineConfig()
        path = save_manifest(cfg, tmp_path / "run.json")
        raw = json.loads(path.read_text())
        raw["schema"] = schema
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigurationError):
            load_manifest(path)

    def test_missing_config_section(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION}))
        with pytest.raises(ConfigurationError):
            load_manifest(path)


class TestManifestReproducibility:
    def test_loaded_config_reproduces_run(self, tmp_path):
        cfg = PipelineConfig(
            n_total=150,
            n_beacons=24,
            n_malicious=3,
            field_width_ft=400.0,
            field_height_ft=400.0,
            p_prime=0.5,
            rtt_calibration_samples=300,
            wormhole_endpoints=None,
            seed=31,
        )
        path = save_manifest(cfg, tmp_path / "run.json")
        first = SecureLocalizationPipeline(cfg).run()
        second = SecureLocalizationPipeline(load_manifest(path)).run()
        assert first.detection_rate == second.detection_rate
        assert first.revoked_benign == second.revoked_benign
        assert first.affected_non_beacons_per_malicious == (
            second.affected_non_beacons_per_malicious
        )

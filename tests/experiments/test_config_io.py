"""Tests for the config serialization behind the result-cache keys."""

import json

from repro.core.pipeline import PipelineConfig
from repro.experiments.runner import config_to_dict


def json_round_trip(data):
    return json.loads(json.dumps(data))


class TestRoundTrip:
    """``config_to_dict`` is exactly what JSON stores, so keys are stable."""

    def test_default_config(self):
        data = config_to_dict(PipelineConfig())
        assert json_round_trip(data) == data

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
        data = config_to_dict(cfg)
        assert data["wormhole_endpoints"] == [[1.0, 2.0], [3.0, 4.0]]
        assert json_round_trip(data) == data

    def test_no_wormhole(self):
        data = config_to_dict(PipelineConfig(wormhole_endpoints=None))
        assert data["wormhole_endpoints"] is None
        assert json_round_trip(data) == data

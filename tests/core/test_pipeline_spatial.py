"""Differential tests: spatial-index fast paths vs the naive oracle.

The pipeline's reachability and metrics scans have two implementations —
the grid-index fast path (``use_spatial_index=True``, the default) and
the original naive scans kept as a reference oracle. Because both return
query results in the same ``node_id`` order, RNG consumption is
identical and whole-trial results must be **bit-identical**, which is
asserted here for 3 seeds x 2 configurations (with and without a
wormhole), plus per-node agreement of the reachability sets themselves.
"""

import dataclasses

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline

#: Small enough for sub-second trials; dense enough that grid queries
#: span multiple cells and the wormhole actually tunnels signals.
SMALL = dict(
    n_total=130,
    n_beacons=20,
    n_malicious=3,
    field_width_ft=420.0,
    field_height_ft=420.0,
    m_detecting_ids=2,
    rtt_calibration_samples=200,
)
WORMHOLE = ((60.0, 60.0), (330.0, 300.0))


def _config(seed, wormhole, fast):
    # The index routes the scalar core's scans (the batch core builds its
    # own arrays), so both sides run on the scalar oracle.
    cfg = PipelineConfig(
        seed=seed, wormhole_endpoints=wormhole, use_vectorized_core=False, **SMALL
    )
    return cfg if fast else dataclasses.replace(cfg, use_spatial_index=False)


class TestBitIdenticalResults:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize(
        "wormhole", [WORMHOLE, None], ids=["wormhole", "no-wormhole"]
    )
    def test_fast_path_matches_oracle(self, seed, wormhole):
        fast = SecureLocalizationPipeline(_config(seed, wormhole, True)).run()
        naive = SecureLocalizationPipeline(_config(seed, wormhole, False)).run()
        # Dataclass equality covers every field: rates, counts, the full
        # per-agent localization error list, and the affected-id set.
        assert fast == naive
        assert fast.localization_errors_ft == naive.localization_errors_ft
        assert fast.affected_node_ids == naive.affected_node_ids
        assert fast.probes_sent == naive.probes_sent


class TestReachabilityAgreement:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return SecureLocalizationPipeline(_config(5, WORMHOLE, True)).build()

    def test_same_beacons_same_order_for_every_node(self, pipeline):
        queriers = pipeline.agents + pipeline.benign_beacons
        for node in queriers:
            fast = [b.node_id for b in pipeline._reachable_beacons(node)]
            naive = [
                b.node_id for b in pipeline._reachable_beacons_naive(node)
            ]
            assert fast == naive
            assert fast == sorted(fast)

    def test_wormhole_extends_reachability(self, pipeline):
        # At least one querier must reach a beacon only through the
        # tunnel, otherwise this deployment isn't exercising the merge.
        net = pipeline.network
        r = pipeline.config.comm_range_ft
        tunnel_only = 0
        for node in pipeline.agents:
            direct = {b.node_id for b in net.beacons_within(node.position, r)}
            full = {b.node_id for b in pipeline._reachable_beacons(node)}
            tunnel_only += len(full - direct)
        assert tunnel_only > 0

    def test_requester_counts_agree(self, pipeline):
        malicious_ids = {b.node_id for b in pipeline.malicious_beacons}
        fast = pipeline._requester_counts(malicious_ids)
        original = pipeline.config
        pipeline.config = dataclasses.replace(original, use_spatial_index=False)
        try:
            naive = pipeline._requester_counts(malicious_ids)
        finally:
            pipeline.config = original
        assert fast == naive

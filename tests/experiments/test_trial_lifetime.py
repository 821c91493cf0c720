"""A finished trial is freed by reference counting, not by the collector.

Each task function that owns a trial's whole life closes its pipeline,
which cuts the trial's reference cycles (every node's ``network``
back-reference and the base station's revocation callback). With the
cyclic collector disabled around one call, ``gc.collect()`` must then
find nothing to free: any cycle left behind would hold the whole
deployment (tens of thousands of objects) until a full collection.
"""

import gc

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.experiments.arena import run_arena_trial
from repro.experiments.runner import _InstrumentedTask, execute_pipeline
from repro.faults import FaultConfig
from repro.obs import ObserveConfig

SMALL = dict(
    n_total=120,
    n_beacons=20,
    n_malicious=2,
    field_width_ft=400.0,
    field_height_ft=400.0,
    m_detecting_ids=2,
    rtt_calibration_samples=200,
    p_prime=0.5,
    seed=7,
)

#: The batch core, the scalar oracle, a rival detector, faults, and
#: flooded revocation: each builds a different object graph.
VARIANTS = {
    "batch-core": {},
    "scalar-oracle": {"use_vectorized_core": False},
    "rival-detector": {"detector": "mahalanobis"},
    "faults": {
        "faults": FaultConfig(packet_loss_rate=0.1, rtt_jitter_cycles=250.0)
    },
    "flood": {"revocation_dissemination": "flood"},
}

TASKS = {
    "execute_pipeline": execute_pipeline,
    "instrumented": _InstrumentedTask(profile=True, observe=ObserveConfig()),
    "run_arena_trial": run_arena_trial,
}


def _cyclic_garbage(task, config) -> int:
    """Objects only the cyclic collector could free after one task call."""
    gc.collect()
    gc.disable()
    try:
        task(config)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("task", sorted(TASKS))
def test_finished_trial_leaves_no_cyclic_garbage(task, variant):
    config = PipelineConfig(**SMALL, **VARIANTS[variant])
    assert _cyclic_garbage(TASKS[task], config) == 0


def test_close_is_a_no_op_unbuilt_and_when_repeated():
    pipeline = SecureLocalizationPipeline(PipelineConfig(**SMALL))
    pipeline.close()
    assert pipeline.network is None and pipeline.base_station is None
    metrics = pipeline.run()
    pipeline.close()
    pipeline.close()
    assert pipeline.base_station.on_revoke is None
    assert all(node.network is None for node in pipeline.network.nodes())
    assert metrics == SecureLocalizationPipeline(PipelineConfig(**SMALL)).run()

"""The batch core's per-reply records: built on first read, as the oracle's.

The batch core keeps each wave's judged probe replies and accepted
location references as columns, and leaves every node a pending slice
of them. ``DetectingBeacon.probe_outcomes`` and
``NonBeaconAgent.references`` build a node's records on its first read.
These tests pin both halves: an unobserved batch-core trial builds no
record at all, and whatever order the nodes are read in, and whenever,
each list equals the scalar oracle's in content and order. The metrics
phase reads the columns, so phase orders the pipeline does not run by
default are compared too.
"""

import gc
from dataclasses import replace

import pytest

from repro.core.detecting import ProbeOutcome
from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.localization.references import LocationReference

CONFIG = PipelineConfig(
    n_total=120,
    n_beacons=18,
    n_malicious=3,
    field_width_ft=500.0,
    field_height_ft=500.0,
    rtt_calibration_samples=200,
    wormhole_endpoints=((100.0, 100.0), (380.0, 350.0)),
    p_prime=0.5,
    seed=13,
)


def _pipeline(vectorized):
    return SecureLocalizationPipeline(
        replace(CONFIG, use_vectorized_core=vectorized)
    )


def _records_alive():
    return sum(
        isinstance(o, (ProbeOutcome, LocationReference)) for o in gc.get_objects()
    )


def _read(pipeline, order):
    """Read the record lists of the nodes ``order`` picks, in its order."""
    for beacon in order(list(pipeline.benign_beacons)):
        beacon.probe_outcomes
    for agent in order(list(pipeline.agents)):
        agent.references


def _records(pipeline, order=None):
    """Every node's record list, in node order, after a read in ``order``."""
    if order is not None:
        _read(pipeline, order)
    return (
        [list(b.probe_outcomes) for b in pipeline.benign_beacons],
        [list(a.references) for a in pipeline.agents],
    )


def test_unobserved_batch_trial_builds_no_record_until_read():
    gc.collect()
    before = _records_alive()
    pipeline = _pipeline(True)
    pipeline.run()
    assert pipeline._vec_active
    assert _records_alive() == before
    # One node's read builds that node's records, and no other's.
    beacon = next(b for b in pipeline.benign_beacons if b._pending_probe_outcomes)
    assert _records_alive() == before
    assert beacon.probe_outcomes
    assert _records_alive() == before + len(beacon.probe_outcomes)
    agent = next(a for a in pipeline.agents if a._pending_references)
    assert agent.references
    assert _records_alive() == (
        before + len(beacon.probe_outcomes) + len(agent.references)
    )


#: The nodes read first; ``_records`` then reads all in node order.
READS = {
    "node-order": lambda nodes: nodes,
    "reverse": lambda nodes: nodes[::-1],
    "one-node-first": lambda nodes: nodes[len(nodes) // 2:][:1],
}


@pytest.mark.parametrize("read", sorted(READS))
@pytest.mark.parametrize("close", [False, True], ids=["open", "closed"])
def test_records_equal_the_scalar_oracle_whatever_the_read(read, close):
    scalar = _pipeline(False)
    scalar_result = scalar.run()
    expected = _records(scalar)
    batch = _pipeline(True)
    assert batch.run() == scalar_result
    if close:
        batch.close()
    got = _records(batch, READS[read])
    assert got == expected
    assert any(got[0]) and any(got[1])
    # A second read returns the same lists, unchanged.
    assert _records(batch, READS[read]) == expected
    assert batch.benign_beacons[0].probe_outcomes is (
        batch.benign_beacons[0].probe_outcomes
    )


def _phases(pipeline, *names, read_between=False):
    pipeline.build()
    for name in names:
        getattr(pipeline, f"run_{name}")()
        if read_between:
            # Half the nodes build their slice before the next phase.
            _read(pipeline, lambda nodes: nodes[::2])
    return pipeline.collect_metrics()


@pytest.mark.parametrize("read_between", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize(
    "names",
    [
        # A second call of a phase appends after the slice still pending.
        ("collusion", "detection", "detection", "localization", "localization"),
        # Revocations after localization purge the agents' references.
        ("localization", "collusion", "detection"),
    ],
    ids=["twice", "revoke-after-localization"],
)
def test_phase_orders_match_the_scalar_oracle(names, read_between):
    scalar = _pipeline(False)
    batch = _pipeline(True)
    scalar_result = _phases(scalar, *names, read_between=read_between)
    assert _phases(batch, *names, read_between=read_between) == scalar_result
    assert _records(batch) == _records(scalar)
    assert [a.estimated_position for a in batch.agents] == [
        a.estimated_position for a in scalar.agents
    ]

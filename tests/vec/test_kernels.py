"""Property tests: the ``repro.vec`` kernels vs their scalar references.

Every kernel claims *bit-identity* with the scalar code it replaces, so
these tests compare with ``==`` — never ``approx``. Hypothesis drives
randomized shapes (including empty and single-element batches), values
snapped onto the awkward range boundary, and NaN/inf coordinates, and
each RNG-consuming kernel is additionally checked to advance its stream
exactly as far as the scalar loop would.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.manager import KeyManager
from repro.errors import ConfigurationError, InsufficientReferencesError, SolverError
from repro.localization.beacon import NonBeaconAgent
from repro.localization.multilateration import _linearized_seed, mmse_multilaterate
from repro.localization.references import LocationReference
from repro.sim.engine import Engine
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.timing import RttModel
from repro.utils.geometry import Point
from repro.vec.geometry import within_range_matrix
import repro.vec.localization as vec_localization
from repro.vec.localization import _batched_seed, batched_estimate_errors
from repro.vec.measurement import (
    batched_calibration_rtts,
    batched_rtt,
    batched_uniform,
    discrepancy_mask,
    raw_uniforms,
)
from repro.vec.turbo import ReferenceColumns, _Field

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
coordinate = st.one_of(
    finite, st.sampled_from([0.0, -0.0, float("nan"), float("inf")])
)

#: Values whose square by libm ``pow`` (``**`` on a NumPy scalar) is one
#: ulp off the correctly rounded ``x * x`` — the first is the anchor
#: coordinate behind the regression case below. Mixing them into the
#: solver strategies makes a ``**`` squaring on either side show up.
POW_MISMATCH = (
    912.2172985764824,
    310.1475693193326,
    715.7291514387905,
    659.6924967151385,
    857.4137724295325,
)
field_ft = st.one_of(
    st.floats(min_value=0.0, max_value=1000.0), st.sampled_from(POW_MISMATCH)
)
range_ft = st.one_of(
    st.floats(min_value=0.0, max_value=1500.0), st.sampled_from(POW_MISMATCH)
)


# ----------------------------------------------------------------------
# RNG-stream kernels
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 2**31), n=st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_raw_uniforms_matches_scalar_draw_sequence(seed, n):
    vec_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    raws = raw_uniforms(vec_rng, n)
    assert raws.tolist() == [ref_rng.random() for _ in range(n)]
    # Both streams ended in the same state: the next draw agrees.
    assert vec_rng.random() == ref_rng.random()


def test_raw_uniforms_rejects_negative_and_handles_empty():
    rng = random.Random(7)
    assert raw_uniforms(rng, 0).shape == (0,)
    assert rng.random() == random.Random(7).random()  # no draws consumed
    with pytest.raises(ConfigurationError):
        raw_uniforms(rng, -1)


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(0, 100),
    low=finite,
    high=finite,
)
@settings(max_examples=60, deadline=None)
def test_batched_uniform_bit_identical_to_scalar_uniform(seed, n, low, high):
    vec_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    batch = batched_uniform(vec_rng, n, low, high)
    assert batch.tolist() == [ref_rng.uniform(low, high) for _ in range(n)]


@given(
    seed=st.integers(0, 2**31),
    specs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5e4, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        ),
        min_size=0,
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_batched_rtt_bit_identical_to_scalar_sample(seed, specs):
    model = RttModel()
    vec_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    dists = np.array([s[0] for s in specs], dtype=np.float64)
    extras = np.array([s[1] for s in specs], dtype=np.float64)
    starts = np.array([s[2] for s in specs], dtype=np.float64)
    batch = batched_rtt(vec_rng, model, dists, extras, starts)
    reference = [
        model.sample(
            ref_rng,
            distance_ft=d,
            extra_delay_cycles=e,
            start_time=t,
        ).rtt
        for d, e, t in specs
    ]
    assert batch.tolist() == reference
    assert vec_rng.random() == ref_rng.random()


def test_batched_rtt_validates_like_the_scalar_sampler():
    model = RttModel()
    rng = random.Random(0)
    ok = np.zeros(2)
    with pytest.raises(ConfigurationError):
        batched_rtt(rng, model, np.array([-1.0, 0.0]), ok, ok)
    with pytest.raises(ConfigurationError):
        batched_rtt(rng, model, ok, np.array([0.0, -5.0]), ok)
    with pytest.raises(ConfigurationError):
        batched_rtt(rng, model, np.zeros(3), ok, ok)
    # Validation and the empty batch consume no draws.
    assert rng.random() == random.Random(0).random()
    empty = np.empty(0)
    assert batched_rtt(rng, model, empty, empty, empty).shape == (0,)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    samples=st.integers(min_value=1, max_value=64),
    distance=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_batched_calibration_rtts_bit_identical_to_scalar_loop(
    seed, samples, distance
):
    model = RttModel()
    vec_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    batch = batched_calibration_rtts(model, vec_rng, samples, distance)
    reference = model.sample_rtts(ref_rng, samples, distance_ft=distance)
    assert batch == reference
    # Both paths consumed exactly the same draws: streams stay in step.
    assert vec_rng.random() == ref_rng.random()


def test_batched_calibration_rtts_rejects_nonpositive_counts():
    model = RttModel()
    rng = random.Random(0)
    with pytest.raises(ConfigurationError):
        batched_calibration_rtts(model, rng, 0, 10.0)
    with pytest.raises(ConfigurationError):
        batched_calibration_rtts(model, rng, -3, 10.0)
    assert rng.random() == random.Random(0).random()  # no draws consumed


# ----------------------------------------------------------------------
# Geometry kernels
# ----------------------------------------------------------------------
@given(
    points=st.lists(st.tuples(coordinate, coordinate), max_size=30),
    center=st.tuples(finite, finite),
    radius=st.one_of(
        st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
        st.just(float("nan")),
    ),
    snap=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_within_range_mask_matches_scalar_hypot(points, center, radius, snap):
    # The single-center case: one row of the matrix is the range mask of
    # one querier, non-finite points and a NaN radius included.
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    cx, cy = center
    if snap and points and not math.isnan(radius):
        # The adversarial case: the radius exactly equals one point's
        # distance, putting it on the <= boundary.
        candidate = math.hypot(xs[0] - cx, ys[0] - cy)
        if math.isfinite(candidate):
            radius = candidate
    mask = within_range_matrix(
        xs, ys, np.array([cx]), np.array([cy]), radius
    )
    expected = [
        math.hypot(float(x) - cx, float(y) - cy) <= radius
        for x, y in zip(xs, ys)
    ]
    assert mask.shape == (1, len(points))
    assert mask[0].tolist() == expected
    assert int(np.count_nonzero(mask)) == sum(expected)


@given(
    points=st.lists(st.tuples(finite, finite), max_size=12),
    centers=st.lists(st.tuples(finite, finite), max_size=12),
    radius=st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
    snap=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_within_range_matrix_matches_scalar_all_pairs(
    points, centers, radius, snap
):
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    cxs = np.array([c[0] for c in centers], dtype=np.float64)
    cys = np.array([c[1] for c in centers], dtype=np.float64)
    if snap and points and centers:
        radius = math.hypot(xs[0] - cxs[0], ys[0] - cys[0])
    matrix = within_range_matrix(xs, ys, cxs, cys, radius)
    assert matrix.shape == (len(centers), len(points))
    expected = [
        [
            math.hypot(float(x) - cx, float(y) - cy) <= radius
            for x, y in zip(xs, ys)
        ]
        for cx, cy in zip(cxs, cys)
    ]
    assert matrix.tolist() == expected


def test_requester_counts_vectorized_matches_naive_scan():
    network = Network(Engine())
    malicious = [
        network.add_node(Node(1, Point(0.0, 0.0), is_beacon=True)),
        # In range of beacon 1, and excluded from its count.
        network.add_node(Node(2, Point(100.0, 0.0), is_beacon=True)),
    ]
    network.add_node(Node(3, Point(90.0, 120.0)))  # exactly 150 ft from 1
    network.add_node(Node(4, Point(240.0, 0.0)))  # in range of 2 only
    network.add_node(Node(5, Point(0.0, 151.0)))  # in range of neither
    malicious_ids = {1, 2}
    naive = [
        sum(
            1
            for node in network.nodes()
            if node.node_id not in malicious_ids
            and beacon.position.distance_to(node.position) <= 150.0
        )
        for beacon in malicious
    ]
    counts = _Field(network).requester_counts(malicious, malicious_ids)
    assert counts == naive == [1, 2]


# ----------------------------------------------------------------------
# Comparison-mask kernels
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(
    rows=st.lists(
        st.tuples(coordinate, coordinate, st.floats(allow_nan=True)),
        max_size=30,
    ),
    scalar_threshold=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_discrepancy_mask_matches_scalar_comparison(rows, scalar_threshold):
    calc = np.array([r[0] for r in rows], dtype=np.float64)
    meas = np.array([r[1] for r in rows], dtype=np.float64)
    if scalar_threshold:
        thresholds = 42.5
        per_row = [42.5] * len(rows)
    else:
        thresholds = np.array([r[2] for r in rows], dtype=np.float64)
        per_row = [r[2] for r in rows]
    mask = discrepancy_mask(calc, meas, thresholds)
    expected = [
        abs(float(c) - float(m)) > t for c, m, t in zip(calc, meas, per_row)
    ]
    assert mask.tolist() == expected


# ----------------------------------------------------------------------
# MMSE multilateration: batched seed and solver vs the scalar solver
# ----------------------------------------------------------------------
@st.composite
def same_size_reference_rows(draw):
    """1-6 rows of ``n`` (x, y, range) references, one shared ``n``."""
    n = draw(st.integers(3, 9))
    row = st.lists(st.tuples(field_ft, field_ft, range_ft), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=1, max_size=6))


@given(rows=same_size_reference_rows())
@settings(max_examples=150, deadline=None)
def test_batched_seed_rows_bit_identical_to_linearized_seed(rows):
    data = np.array(rows, dtype=np.float64)  # (rows, n, 3)
    axs = np.ascontiguousarray(data[:, :, 0])
    ays = np.ascontiguousarray(data[:, :, 1])
    ranges = np.ascontiguousarray(data[:, :, 2])
    xs, ys, seeded = _batched_seed(axs, ays, ranges)
    for row in range(len(rows)):
        anchors = np.stack([axs[row], ays[row]], axis=1)
        try:
            seed = _linearized_seed(anchors, ranges[row])
        except InsufficientReferencesError:
            assert not seeded[row]
            continue
        assert seeded[row]
        assert (float(xs[row]), float(ys[row])) == (float(seed[0]), float(seed[1]))


def _agent(node_id, truth, references):
    agent = NonBeaconAgent(node_id, Point(*truth), KeyManager())
    agent.references = [
        LocationReference(beacon_id, Point(x, y), distance)
        for beacon_id, x, y, distance in references
    ]
    return agent


def _columns(agents):
    """The agents' references as the batch core's columns, in list order."""
    entries = [
        (index, ref) for index, agent in enumerate(agents) for ref in agent.references
    ]
    return ReferenceColumns(
        np.array([index for index, _ in entries], dtype=np.int64),
        np.array([ref.beacon_id for _, ref in entries], dtype=np.int64),
        np.array([ref.beacon_location.x for _, ref in entries], dtype=np.float64),
        np.array([ref.beacon_location.y for _, ref in entries], dtype=np.float64),
        np.array([ref.measured_distance_ft for _, ref in entries], dtype=np.float64),
        np.array([ref.received_at for _, ref in entries], dtype=np.float64),
    )


def _batched_errors(agents):
    """``batched_estimate_errors`` over the agents' own references."""
    return batched_estimate_errors(agents, _columns(agents))


def _scalar_errors(agents):
    """The scalar metrics-phase loop: ``mmse_multilaterate`` per agent."""
    errors = []
    for agent in agents:
        try:
            agent.estimate_position()
        except InsufficientReferencesError:
            continue
        errors.append(agent.location_error_ft())
    return errors


@st.composite
def populations(draw):
    """1-16 agents of 0-16 references each, on beacon ids 0-15.

    Both sizes are drawn as integers rather than left to ``st.lists``,
    whose small average size would seldom reach 8 distinct references:
    one population then typically mixes counts below 8 with counts at
    or above 8 (where NumPy's pairwise summation changes its
    association) and puts several rows in one count block.
    """
    reference = st.tuples(st.integers(0, 15), field_ft, field_ft, range_ft)
    population = []
    for _ in range(draw(st.integers(1, 16))):
        size = draw(st.integers(0, 16))
        population.append(
            (
                draw(st.tuples(field_ft, field_ft)),
                draw(st.lists(reference, min_size=size, max_size=size)),
            )
        )
    return population


@given(population=populations())
@settings(max_examples=100, deadline=None)
def test_batched_estimate_errors_bit_identical_to_mmse_multilaterate(population):
    # Beacon ids repeat (0-15) so dedup-latest-per-id is exercised, and
    # agents with < 3 distinct references are skipped on both sides.
    # A sum that strays from each row's own n elements (padding, or a
    # sequential segment sum) shows up as a mismatch here.
    def agents():
        return [_agent(i, truth, refs) for i, (truth, refs) in enumerate(population)]

    scalar_agents = agents()
    try:
        expected = _scalar_errors(scalar_agents)
    except SolverError:
        with pytest.raises(SolverError):
            _batched_errors(agents())
        return
    batched_agents = agents()
    assert _batched_errors(batched_agents) == expected
    assert [a.estimated_position for a in batched_agents] == [
        a.estimated_position for a in scalar_agents
    ]


def test_divergent_row_reruns_the_scalar_solver_on_its_references(monkeypatch):
    # No known population of finite references diverges, so the batched
    # iterate is made to report every row non-finite. Each row must then
    # reach the scalar solver with the references ``estimate_position``
    # hands it (latest copy per beacon, in beacon-id order), and the
    # scalar SolverError must surface.
    import repro.localization.beacon as scalar_beacon

    solve = vec_localization._solve
    received = []

    def diverging(*args):
        xs, ys, solved, broken = solve(*args)
        return xs, ys, solved, np.ones_like(broken)

    def scalar_solver(references):
        received.append(references)
        raise SolverError("diverged")

    monkeypatch.setattr(vec_localization, "_solve", diverging)
    monkeypatch.setattr(vec_localization, "mmse_multilaterate", scalar_solver)
    monkeypatch.setattr(scalar_beacon, "mmse_multilaterate", scalar_solver)
    refs = [
        (2, 0.0, 0.0, 5.0),
        (0, 10.0, 0.0, 7.0),
        (1, 0.0, 10.0, 6.0),
        (2, 3.0, 4.0, 8.0),
    ]
    agents = [_agent(0, (0.0, 0.0), refs[:2]), _agent(1, (1.0, 1.0), refs)]
    with pytest.raises(SolverError):
        _batched_errors(agents)
    with pytest.raises(SolverError):
        agents[1].estimate_position()
    assert received[0] == received[1] == [
        LocationReference(0, Point(10.0, 0.0), 7.0),
        LocationReference(1, Point(0.0, 10.0), 6.0),
        LocationReference(2, Point(3.0, 4.0), 8.0),
    ]


#: One agent from the default deployment (``PipelineConfig(p_prime=0.05,
#: seed=1348037906)``) whose last anchor x, squared with ``**``, rounded
#: one ulp away from ``x * x``: the scalar and batched solvers then
#: returned 529.5505102120433 and 529.5505102120442 ft. Two of the
#: references are wormhole-replayed from far beacons.
REGRESSION_TRUTH = (739.3716040226375, 705.1916255019851)
REGRESSION_REFERENCES = (
    (39.17153843497579, 229.3428329176269, 68.9281608832946),
    (123.07598518845609, 108.43608793635329, 53.113439088651596),
    (688.9577033081041, 665.8924108461486, 55.37568012160166),
    (836.2298219757607, 674.4878457126148, 96.7659504141701),
    (671.6887723297069, 597.0403205608894, 135.47103000149468),
    (856.7704990394103, 620.9458124530975, 144.0332268845057),
    (825.7551340156068, 820.7560188118804, 154.00636697985578),
    (912.2172985764824, 706.0481023452177, 81.5320746838196),
)


def test_pow_rounding_regression_agent_solves_identically():
    refs = [(i, *ref) for i, ref in enumerate(REGRESSION_REFERENCES)]
    scalar = mmse_multilaterate(
        [LocationReference(i, Point(x, y), d) for i, x, y, d in refs]
    )
    agent = _agent(0, REGRESSION_TRUTH, refs)
    assert _batched_errors([agent]) == [529.5505102120442]
    assert agent.estimated_position == scalar.position
    assert scalar.position.distance_to(Point(*REGRESSION_TRUTH)) == 529.5505102120442

"""Service/BaseStation bit-identity tests (§3.1)."""

import asyncio
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.revocation import BaseStation, RevocationConfig
from repro.crypto.manager import KeyManager
from repro.errors import ConfigurationError, RevocationError
from repro.obs import MetricsRegistry, ObserveConfig
from repro.revocation import MemoryBackend, RevocationService


def random_alerts(seed, n, n_nodes=12):
    """A deterministic random (detector, target, time) stream."""
    rng = random.Random(seed)
    return [
        (rng.randrange(n_nodes), rng.randrange(n_nodes), float(i))
        for i in range(n)
    ]


def station_for(key_manager, alerts, config):
    """An in-process BaseStation fed the same stream (ground truth)."""
    ids = {a[0] for a in alerts} | {a[1] for a in alerts}
    for i in ids:
        key_manager.enroll(i, is_beacon=True)
    station = BaseStation(key_manager, config)
    for detector, target, time in alerts:
        station.submit_alert(detector, target, verify=False, time=time)
    return station


def run_service(alerts, config, **kwargs):
    """Ingest the stream through a fresh service; (service, records)."""

    async def _run():
        service = RevocationService(config, **kwargs)
        await service.start()
        records = await service.ingest(alerts)
        await service.stop()
        return service, records

    return asyncio.run(_run())


class TestServiceEquivalence:
    @pytest.mark.parametrize("n_producers", [1, 3, 8])
    @pytest.mark.parametrize("batch_size", [1, 64, 1000])
    def test_bit_identical_to_base_station(
        self, key_manager, n_producers, batch_size
    ):
        # Concurrent producer tasks interleave their submissions; the one
        # writer applies them in arrival order, so the station fed that
        # same order is the ground truth.
        config = RevocationConfig(tau_report=2, tau_alert=2)
        alerts = random_alerts(11, 400)

        async def _run():
            service = RevocationService(config, batch_size=batch_size)
            await service.start()
            arrived = []

            async def produce(share):
                for detector, target, time in share:
                    arrived.append((detector, target, time))
                    await service.submit(detector, target, time=time)
                    await asyncio.sleep(0)

            size = -(-len(alerts) // n_producers)
            await asyncio.gather(
                *(
                    produce(alerts[k * size : (k + 1) * size])
                    for k in range(n_producers)
                )
            )
            await service.stop()
            return service, arrived

        service, arrived = asyncio.run(_run())
        assert sorted(arrived) == sorted(alerts)
        station = station_for(key_manager, arrived, config)
        assert service.decisions == station.log
        assert service.counter_state().to_dict() == station.state.to_dict()
        assert service.revoked == station.revoked
        for beacon in service.revoked:
            assert service.is_revoked(beacon)

    def test_zero_thresholds(self, key_manager):
        config = RevocationConfig(tau_report=0, tau_alert=0)
        alerts = random_alerts(2, 150, n_nodes=6)
        station = station_for(key_manager, alerts, config)
        service, records = run_service(alerts, config)
        assert [(r.accepted, r.reason) for r in records] == [
            (r.accepted, r.reason) for r in station.log
        ]
        assert service.counter_state().to_dict() == station.state.to_dict()

    def test_registry_snapshot_matches_record_metrics(self, key_manager):
        config = RevocationConfig()
        alerts = random_alerts(13, 300)
        station = station_for(key_manager, alerts, config)
        registry = MetricsRegistry()
        station.record_metrics(registry)
        service, _ = run_service(alerts, config)
        assert service.registry_snapshot() == registry.snapshot()


#: A small id space, so detectors and targets collide often.
BEACONS = range(1, 7)

signed_streams = st.lists(
    st.tuples(
        st.sampled_from(BEACONS),
        st.sampled_from(BEACONS),
        st.sampled_from(("valid", "forged", "missing")),
    ),
    max_size=120,
)


class TestSingleWriterProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        stream=signed_streams,
        batch_size=st.integers(1, 300),
        tau_report=st.integers(0, 3),
        tau_alert=st.integers(0, 3),
        crash_after=st.one_of(st.none(), st.integers(0, 120)),
    )
    def test_matches_base_station(
        self, stream, batch_size, tau_report, tau_alert, crash_after
    ):
        key_manager = KeyManager()
        for beacon in BEACONS:
            key_manager.enroll(beacon, is_beacon=True)
        tags = {
            "valid": lambda d, t: key_manager.sign_alert_payload(
                d, BaseStation.alert_payload(d, t)
            ),
            "forged": lambda d, t: b"forged",
            "missing": lambda d, t: None,
        }
        alerts = [
            (detector, target, tags[kind](detector, target), float(i))
            for i, (detector, target, kind) in enumerate(stream)
        ]
        config = RevocationConfig(tau_report=tau_report, tau_alert=tau_alert)
        station_events = []
        station = BaseStation(
            key_manager, config, on_revoke=station_events.append
        )
        for detector, target, tag, time in alerts:
            station.submit_alert(detector, target, tag=tag, time=time)
        expected_registry = MetricsRegistry()
        station.record_metrics(expected_registry)

        backend = MemoryBackend()

        def new_service():
            return RevocationService(
                config,
                backend=backend,
                batch_size=batch_size,
                key_manager=key_manager,
            )

        async def submit_all(service, part):
            for detector, target, tag, time in part:
                await service.submit(
                    detector, target, tag=tag, verify=True, time=time
                )

        async def _run():
            service = new_service()
            await service.start()
            if crash_after is not None:
                await submit_all(service, alerts[:crash_after])
                service.crash()
                service = new_service()
                await service.start()
            await submit_all(service, alerts[service.last_seq :])
            await service.stop()
            return service

        service = asyncio.run(_run())
        assert service.decisions == station.log
        assert service.counter_state() == station.state
        assert service.registry_snapshot() == expected_registry.snapshot()
        # The ledger revokes in the station's order.
        ledger_revocations = [
            record["target"]
            for record in backend.read_records(0)
            if record["revokes"]
        ]
        assert ledger_revocations == station_events


class TestServiceAuth:
    def test_bad_auth_rejected_without_counting(self, key_manager):
        key_manager.enroll(1, is_beacon=True)
        key_manager.enroll(2, is_beacon=True)
        payload = BaseStation.alert_payload(1, 2)
        good_tag = key_manager.sign_alert_payload(1, payload)

        async def _run():
            service = RevocationService(
                RevocationConfig(),
                key_manager=key_manager,
                observe=ObserveConfig(),
            )
            await service.start()
            bad = await service.submit(1, 2, tag=b"forged", verify=True)
            good = await service.submit(1, 2, tag=good_tag, verify=True)
            missing = await service.submit(1, 2, verify=True)
            await service.stop()
            return service, bad.result(), good.result(), missing.result()

        service, bad, good, missing = asyncio.run(_run())
        assert (bad.accepted, bad.reason) == (False, "bad-auth")
        assert (good.accepted, good.reason) == (True, "accepted")
        assert (missing.accepted, missing.reason) == (False, "bad-auth")
        state = service.counter_state()
        assert state.alert_counters == {2: 1}
        assert state.report_counters == {1: 1}
        counters = service.telemetry()["registry"]["counters"]
        assert counters["svc_auth_failures_total"] == 2

    def test_verify_without_key_manager_is_bad_auth(self):
        async def _run():
            service = RevocationService(RevocationConfig())
            await service.start()
            record = await service.submit(1, 2, tag=b"x", verify=True)
            await service.stop()
            return record.result()

        record = asyncio.run(_run())
        assert (record.accepted, record.reason) == (False, "bad-auth")


class TestServiceLifecycle:
    def test_submit_before_start_raises(self):
        async def _run():
            service = RevocationService(RevocationConfig())
            with pytest.raises(RevocationError):
                await service.submit(1, 2)

        asyncio.run(_run())

    def test_crashed_service_rejects_use(self):
        async def _run():
            service = RevocationService(RevocationConfig())
            await service.start()
            await service.ingest([(1, 2, 0.0)])
            service.crash()
            with pytest.raises(RevocationError):
                await service.submit(3, 4)
            with pytest.raises(RevocationError):
                await service.flush()

        asyncio.run(_run())

    def test_crash_cancels_pending_futures(self):
        async def _run():
            service = RevocationService(
                RevocationConfig(), batch_size=1000
            )
            await service.start()
            future = await service.submit(1, 2)
            service.crash()
            return future

        future = asyncio.run(_run())
        assert future.cancelled()

    def test_start_is_idempotent(self):
        async def _run():
            service = RevocationService(RevocationConfig())
            await service.start()
            await service.start()
            records = await service.ingest([(1, 2, 0.0)])
            await service.stop()
            return records

        records = asyncio.run(_run())
        assert records[0].accepted

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            RevocationService(RevocationConfig(), batch_size=0)
        with pytest.raises(ConfigurationError):
            RevocationService(RevocationConfig(), snapshot_every=0)


class TestServiceObservability:
    def test_operational_counters(self):
        alerts = random_alerts(3, 100, n_nodes=6)

        async def _run():
            service = RevocationService(
                RevocationConfig(),
                batch_size=32,
                observe=ObserveConfig(),
            )
            await service.start()
            await service.ingest(alerts)
            await service.snapshot()
            await service.stop()
            return service.telemetry()

        telemetry = asyncio.run(_run())
        counters = telemetry["registry"]["counters"]
        assert counters["svc_alerts_ingested_total"] == len(alerts)
        assert counters["svc_batches_total"] == 4  # ceil(100 / 32)
        assert counters["svc_snapshots_total"] == 1
        assert any(span["name"] == "svc:flush" for span in telemetry["spans"])

    def test_observe_none_has_no_telemetry(self):
        service, _ = run_service(
            random_alerts(4, 50), RevocationConfig()
        )
        assert service.telemetry() == {}

    def test_observability_never_changes_decisions(self):
        config = RevocationConfig()
        alerts = random_alerts(21, 200)
        plain, plain_records = run_service(alerts, config)
        observed, observed_records = run_service(
            alerts, config, observe=ObserveConfig()
        )
        assert [(r.accepted, r.reason) for r in plain_records] == [
            (r.accepted, r.reason) for r in observed_records
        ]
        assert (
            plain.counter_state().to_dict()
            == observed.counter_state().to_dict()
        )

"""Crash-recovery tests: ledger + snapshot replay reconverges exactly."""

import asyncio
import random

import pytest

from repro.core.revocation import BaseStation, RevocationConfig
from repro.errors import ConfigurationError, RevocationError
from repro.revocation import BACKEND_KINDS, MemoryBackend, RevocationService, make_backend


def random_alerts(seed, n, n_nodes=10):
    """A deterministic random (detector, target, time) stream."""
    rng = random.Random(seed)
    return [
        (rng.randrange(n_nodes), rng.randrange(n_nodes), float(i))
        for i in range(n)
    ]


def ground_truth(key_manager, alerts, config):
    """The uninterrupted in-process run the recovered service must match."""
    ids = {a[0] for a in alerts} | {a[1] for a in alerts}
    for i in ids:
        key_manager.enroll(i, is_beacon=True)
    station = BaseStation(key_manager, config)
    for detector, target, time in alerts:
        station.submit_alert(detector, target, verify=False, time=time)
    return station


def run_with_crash(
    alerts,
    config,
    backend,
    *,
    crash_after,
    batch_size=16,
    snapshot_every=None,
):
    """Ingest with a hard crash after ``crash_after`` submissions.

    Returns the recovered service after it has reingested the lost
    suffix and the rest of the stream.
    """

    async def _run():
        service = RevocationService(
            config,
            backend=backend,
            batch_size=batch_size,
            snapshot_every=snapshot_every,
        )
        await service.start()
        for detector, target, time in alerts[:crash_after]:
            await service.submit(detector, target, time=time)
        service.crash()
        # Only auto-flushed batches survived; a buffered partial batch
        # died with the process.
        service = RevocationService(
            config,
            backend=backend,
            batch_size=batch_size,
            snapshot_every=snapshot_every,
        )
        await service.start()
        for detector, target, time in alerts[service.last_seq :]:
            await service.submit(detector, target, time=time)
        await service.stop()
        return service

    return asyncio.run(_run())


class TestCrashRecovery:
    @pytest.mark.parametrize("kind", BACKEND_KINDS)
    @pytest.mark.parametrize("snapshot_every", [None, 20])
    def test_bit_identical_after_crash(
        self, key_manager, tmp_path, kind, snapshot_every
    ):
        config = RevocationConfig(tau_report=2, tau_alert=2)
        alerts = random_alerts(31, 200)
        station = ground_truth(key_manager, alerts, config)
        backend = make_backend(kind, tmp_path / kind)
        try:
            service = run_with_crash(
                alerts,
                config,
                backend,
                crash_after=len(alerts) // 2,
                snapshot_every=snapshot_every,
            )
            assert [(r.accepted, r.reason) for r in service.decisions] == [
                (r.accepted, r.reason) for r in station.log
            ]
            assert (
                service.counter_state().to_dict() == station.state.to_dict()
            )
            assert service.revoked == station.revoked
        finally:
            backend.close()

    @pytest.mark.parametrize("crash_after", [0, 1, 37, 199, 200])
    def test_any_crash_point(self, key_manager, crash_after):
        config = RevocationConfig()
        alerts = random_alerts(41, 200)
        station = ground_truth(key_manager, alerts, config)
        service = run_with_crash(
            alerts,
            config,
            MemoryBackend(),
            crash_after=crash_after,
        )
        assert service.counter_state().to_dict() == station.state.to_dict()

    def test_double_crash(self, key_manager):
        config = RevocationConfig()
        alerts = random_alerts(47, 180)
        station = ground_truth(key_manager, alerts, config)
        backend = MemoryBackend()

        async def _run():
            service = RevocationService(
                config, backend=backend, batch_size=8
            )
            await service.start()
            for detector, target, time in alerts[:60]:
                await service.submit(detector, target, time=time)
            service.crash()
            service = RevocationService(
                config, backend=backend, batch_size=8
            )
            await service.start()
            for detector, target, time in alerts[service.last_seq : 130]:
                await service.submit(detector, target, time=time)
            await service.snapshot()
            service.crash()
            service = RevocationService(
                config, backend=backend, batch_size=8
            )
            await service.start()
            for detector, target, time in alerts[service.last_seq :]:
                await service.submit(detector, target, time=time)
            await service.stop()
            return service

        service = asyncio.run(_run())
        assert service.counter_state().to_dict() == station.state.to_dict()
        assert [(r.accepted, r.reason) for r in service.decisions] == [
            (r.accepted, r.reason) for r in station.log
        ]


class FlakyBackend(MemoryBackend):
    """A memory ledger whose ``fail_on``-th append raises."""

    def __init__(self, fail_on):
        super().__init__()
        self.fail_on = fail_on
        self.appends = 0

    def append_records(self, records):
        self.appends += 1
        if self.appends == self.fail_on:
            raise OSError("ledger device full")
        super().append_records(records)


class TestFailedAppend:
    def test_failed_append_fails_the_batch_and_crashes(self, key_manager):
        # One target accused three times with tau_alert=0: the first alert
        # revokes it, so an unlogged revocation would leak into the next
        # batch as target-already-revoked.
        config = RevocationConfig(tau_report=5, tau_alert=0)
        committed = [(1, 2, 0.0), (3, 4, 1.0), (5, 6, 2.0)]
        lost = [(7, 9, 3.0), (8, 9, 4.0), (1, 9, 5.0)]
        backend = FlakyBackend(fail_on=2)

        async def _run():
            service = RevocationService(config, backend=backend, batch_size=3)
            await service.start()
            await service.ingest(committed)
            futures = [
                await service.submit(detector, target, time=time)
                for detector, target, time in lost[:-1]
            ]
            detector, target, time = lost[-1]
            # The third submission fills the batch; its flush fails.
            with pytest.raises(OSError, match="ledger device full"):
                await service.submit(detector, target, time=time)
            with pytest.raises(RevocationError):
                await service.submit(1, 2)
            return futures

        futures = asyncio.run(_run())
        for future in futures:
            assert isinstance(future.exception(), OSError)
        assert [r["seq"] for r in backend.records] == [1, 2, 3]

        async def _recover_and_resume():
            service = RevocationService(config, backend=backend, batch_size=3)
            await service.start()
            recovered = (list(service.decisions), service.counter_state())
            await service.ingest(lost)
            await service.stop()
            return recovered, service

        (decisions, state), service = asyncio.run(_recover_and_resume())
        prefix = ground_truth(key_manager, committed, config)
        assert decisions == prefix.log
        assert state == prefix.state
        station = ground_truth(key_manager, committed + lost, config)
        assert service.decisions == station.log
        assert service.counter_state() == station.state
        assert [r["seq"] for r in backend.records] == list(range(1, 7))


class TestRecoveryValidation:
    def _committed_backend(self, alerts):
        backend = MemoryBackend()

        async def _run():
            service = RevocationService(
                RevocationConfig(), backend=backend, batch_size=16
            )
            await service.start()
            await service.ingest(alerts)
            await service.stop()

        asyncio.run(_run())
        return backend

    def test_tampered_ledger_fails_self_check(self):
        backend = self._committed_backend(random_alerts(53, 80))
        victim = next(r for r in backend.records if r["accepted"])
        victim["accepted"] = False
        victim["reason"] = "quota-exceeded"

        async def _recover():
            service = RevocationService(RevocationConfig(), backend=backend)
            await service.start()

        with pytest.raises(RevocationError, match="disagrees"):
            asyncio.run(_recover())

    def test_ledger_gap_detected(self):
        backend = self._committed_backend(random_alerts(59, 80))
        del backend.records[10]

        async def _recover():
            service = RevocationService(RevocationConfig(), backend=backend)
            await service.start()

        with pytest.raises(RevocationError, match="gap"):
            asyncio.run(_recover())

    def test_threshold_mismatch_rejected(self):
        backend = MemoryBackend()

        async def _seed():
            service = RevocationService(
                RevocationConfig(tau_report=2, tau_alert=2), backend=backend
            )
            await service.start()
            await service.ingest(random_alerts(61, 40))
            await service.snapshot()
            await service.stop()

        asyncio.run(_seed())

        async def _recover():
            service = RevocationService(
                RevocationConfig(tau_report=1, tau_alert=2), backend=backend
            )
            await service.start()

        with pytest.raises(ConfigurationError, match="thresholds"):
            asyncio.run(_recover())

    def test_recovery_preserves_decision_log(self, key_manager):
        config = RevocationConfig()
        alerts = random_alerts(67, 90)
        station = ground_truth(key_manager, alerts, config)
        backend = self._committed_backend(alerts)

        async def _recover():
            service = RevocationService(config, backend=backend)
            await service.start()
            await service.stop()
            return service

        service = asyncio.run(_recover())
        assert [(r.detector_id, r.target_id, r.accepted, r.reason, r.time) for r in service.decisions] == [
            (r.detector_id, r.target_id, r.accepted, r.reason, r.time)
            for r in station.log
        ]
        assert service.last_seq == len(alerts)

    def test_stop_then_start_rebuilds_rather_than_appends(self, key_manager):
        config = RevocationConfig()
        alerts = random_alerts(71, 120)
        head, tail = alerts[:60], alerts[60:]

        async def _run():
            service = RevocationService(config, batch_size=16)
            await service.start()
            await service.ingest(head)
            await service.stop()
            before = (
                list(service.decisions),
                service.counter_state(),
                service.last_seq,
            )
            await service.start()
            after = (
                list(service.decisions),
                service.counter_state(),
                service.last_seq,
            )
            await service.ingest(tail)
            await service.stop()
            return service, before, after

        service, before, after = asyncio.run(_run())
        assert after == before
        assert before[2] == len(head)
        station = ground_truth(key_manager, alerts, config)
        assert service.decisions == station.log
        assert service.counter_state() == station.state

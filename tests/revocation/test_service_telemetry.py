"""Scraping a live RevocationService: /metrics, /healthz, /spans.

The §3 base station runs as an always-on service; an operator must be
able to scrape it *while it runs* and see liveness (pending alerts,
ledger lag, flush latency) without the scrape touching
the deterministic decision state. These tests drive real HTTP requests
against a service mid-run.
"""

import asyncio
import json
import random
import urllib.error
import urllib.request

import pytest

from repro.obs import ObserveConfig
from repro.revocation import RevocationService


def random_alerts(seed, n, n_nodes=12):
    """A deterministic random (detector, target, time) stream."""
    rng = random.Random(seed)
    return [
        (rng.randrange(n_nodes), rng.randrange(n_nodes), float(i))
        for i in range(n)
    ]


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


class TestLiveScrape:
    def test_metrics_exposes_liveness_gauges_mid_run(self):
        async def _run():
            service = RevocationService(
                observe=ObserveConfig(), telemetry_port=0
            )
            await service.start()
            await service.ingest(random_alerts(1, 40))
            url = service.telemetry_server.url
            status, metrics = _get(url + "/metrics")
            _, health = _get(url + "/healthz")
            _, spans = _get(url + "/spans")
            await service.stop()
            return status, metrics, health, spans

        status, metrics, health, spans = asyncio.run(_run())
        assert status == 200
        lines = metrics.splitlines()
        assert "svc_pending_alerts 0" in lines  # ingest flushed everything
        assert "svc_ledger_seq_lag" in metrics
        # Wall-clock flush latency lives only in the live plane.
        assert "svc_flush_latency_seconds_count" in metrics
        assert "# TYPE svc_flush_latency_seconds histogram" in metrics
        # Deterministic §3.1 + svc_* series ride along in the same scrape.
        assert "revocations_total" in metrics
        assert "svc_alerts_ingested_total" in metrics
        payload = json.loads(health)
        assert payload["status"] == "ok" and payload["last_seq"] == 40
        assert any(s["name"] == "svc:flush" for s in json.loads(spans))

    def test_healthz_503_before_start_and_after_crash(self):
        async def _run():
            service = RevocationService(telemetry_port=0)
            # Start the server by hand pre-start to probe the down state.
            from repro.obs import TelemetryServer

            server = TelemetryServer(
                service.live_snapshot, health_fn=service._health
            ).start()
            try:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    _get(server.url + "/healthz")
                # Close the HTTPError: it wraps the response socket.
                with excinfo.value as error:
                    before = error.code
            finally:
                server.stop()

            await service.start()
            url = service.telemetry_server.url
            ok_status, _ = _get(url + "/healthz")
            service.crash()
            return before, ok_status, service.telemetry_server

        before, ok_status, server_after_crash = asyncio.run(_run())
        assert before == 503
        assert ok_status == 200
        assert server_after_crash is None  # crash tears the server down

    def test_stop_tears_the_server_down(self):
        async def _run():
            service = RevocationService(telemetry_port=0)
            await service.start()
            url = service.telemetry_server.url
            await service.stop()
            return url, service.telemetry_server

        url, server = asyncio.run(_run())
        assert server is None
        with pytest.raises((urllib.error.URLError, ConnectionError)):
            _get(url + "/healthz")

    def test_no_telemetry_port_means_no_live_plane(self):
        async def _run():
            service = RevocationService()
            await service.start()
            await service.ingest(random_alerts(2, 10))
            snapshot = service.live_snapshot()
            await service.stop()
            return service, snapshot

        service, snapshot = asyncio.run(_run())
        assert service.telemetry_server is None
        # live_snapshot still works for ad-hoc inspection; liveness
        # gauges are present, wall-clock histograms are not.
        assert "svc_pending_alerts" in snapshot["gauges"]
        assert "svc_flush_latency_seconds" not in snapshot["histograms"]

    def test_scrapes_leave_decisions_bit_identical(self):
        alerts = random_alerts(3, 30)

        async def _run(telemetry_port):
            service = RevocationService(telemetry_port=telemetry_port)
            await service.start()
            records = await service.ingest(alerts)
            if service.telemetry_server is not None:
                _get(service.telemetry_server.url + "/metrics")
            await service.stop()
            return [r.to_dict() for r in records]

        assert asyncio.run(_run(0)) == asyncio.run(_run(None))

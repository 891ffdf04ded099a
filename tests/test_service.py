"""The live scheduler service: wire protocol, backpressure, replay.

Covers the :mod:`repro.service` stack end to end on real sockets:
protocol marshalling, the endpoint surface, refusal semantics (outage /
overload / draining, each with Retry-After), bounded-queue overload
behaviour, graceful drain mid-campaign, and the deterministic-replay
contract — a wire-driven campaign must reconcile exactly with the
in-process run (same validated counts, same ``ValidationStats``).
"""

from __future__ import annotations

import asyncio
import threading
import time
from contextlib import closing

import pytest

from repro import CampaignConfig, FaultPlan
from repro.boinc.simulator import scaled_phase1
from repro.boinc.validator import ValidationStats
from repro.obs import RingSink, Tracer
from repro.service import (
    ENDPOINTS,
    RemoteGridServer,
    SchedulerClient,
    ServiceConfig,
    ServiceRefused,
    replay_campaign,
    serve_in_thread,
    storm,
)
from repro.service.app import ROUTES, _WRITER_OPS
from repro.service.protocol import (
    refusal_payload,
    stats_as_dict,
    stats_from_dict,
)


def tiny_campaign(seed: int = 11, faults: str | None = None, horizon: float = 30.0):
    """A seconds-fast campaign (~26 workunits, 4 hosts)."""
    config = CampaignConfig(
        faults=FaultPlan.from_spec(faults) if faults else FaultPlan.none()
    )
    return scaled_phase1(
        scale=900.0, n_proteins=5, seed=seed,
        horizon_weeks=horizon, config=config,
    )


@pytest.fixture
def service():
    handle = serve_in_thread(tiny_campaign())
    try:
        yield handle
    finally:
        handle.stop()


# -- protocol ----------------------------------------------------------------


class TestProtocol:
    def test_routes_cover_endpoints_exactly(self):
        assert set(ROUTES) == {(m, p) for m, p, _ in ENDPOINTS}

    def test_stats_round_trip_is_lossless(self):
        result = tiny_campaign().run()
        stats = result.server.stats
        assert stats.effective > 0  # a meaningful round-trip, not zeros
        restored = stats_from_dict(stats_as_dict(stats))
        assert restored == stats
        assert restored.validated_by_regime == stats.validated_by_regime

    def test_stats_round_trip_preserves_types(self):
        restored = stats_from_dict(stats_as_dict(ValidationStats()))
        assert isinstance(restored.disclosed, int)
        assert isinstance(restored.consumed_cpu_s, float)

    def test_refusal_payload_rejects_unknown_reason(self):
        with pytest.raises(ValueError, match="unknown refusal reason"):
            refusal_payload("busy", 1.0)

    def test_writer_ops_are_the_mutating_routes(self):
        # Read-only ops must never enter the single-writer queue, and
        # every mutating op must.
        assert _WRITER_OPS == {"request_work", "report_result", "finalize"}


# -- the wire surface --------------------------------------------------------


class TestWireSurface:
    def test_discovery_lists_protocol_and_campaign(self, service):
        client = SchedulerClient(*service.address)
        info = client.discover()
        assert info["service"] == "repro-scheduler"
        assert [(e["method"], e["path"]) for e in info["endpoints"]] == [
            (m, p) for m, p, _ in ENDPOINTS
        ]
        assert info["campaign"]["n_workunits"] == service.service.server.n_workunits
        client.close()

    def test_heartbeat_reports_progress_without_advancing_clock(self, service):
        client = SchedulerClient(*service.address)
        before = service.service.sim.now
        beat = client.heartbeat(host=7, t=1e9)
        assert beat["ok"] and not beat["all_done"]
        assert beat["n_validated"] == 0
        assert service.service.sim.now == before
        client.close()

    def test_request_report_cycle(self, service):
        client = SchedulerClient(*service.address)
        response = client.request_work(host=0, t=10.0)
        assignment = response["assignment"]
        assert assignment is not None
        assert assignment["copy"] == 0
        assert assignment["cost_reference_s"] > 0
        client.report_result(
            assignment["token"], valid=True,
            accounted_cpu_s=assignment["cost_reference_s"], t=5000.0,
        )
        status = client.status()
        assert status["stats"]["disclosed"] == 1
        assert status["now_s"] == 5000.0
        client.close()

    def test_error_statuses(self, service):
        import http.client
        import json

        client = SchedulerClient(*service.address)
        # unknown endpoint -> 404
        status, _ = client._call("GET", "/nope")
        assert status == 404
        # missing required field -> 400
        status, payload = client._call("POST", "/v1/request-work", {})
        assert status == 400 and payload["error"] == "bad-request"
        # unknown token -> 410
        status, payload = client._call(
            "POST", "/v1/report-result",
            {"token": 999, "valid": True, "accounted_cpu_s": 1.0},
        )
        assert status == 410 and payload["error"] == "unknown-token"
        # malformed JSON -> 400
        conn = http.client.HTTPConnection(*service.address)
        conn.request("POST", "/v1/heartbeat", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        assert json.loads(response.read())["error"] == "bad-request"
        conn.close()
        client.close()

    def test_stale_timestamps_clamp_not_crash(self, service):
        client = SchedulerClient(*service.address)
        client.request_work(host=0, t=5000.0)
        # an out-of-order (earlier) mutation still answers; the clock
        # never goes backwards
        response = client.request_work(host=1, t=10.0)
        assert response["assignment"] is not None
        assert service.service.sim.now == 5000.0
        assert service.service.clock_clamps == 1
        client.close()

    def test_campaign_mismatch_is_rejected(self, service):
        client = SchedulerClient(*service.address)
        other = tiny_campaign(seed=99)
        with pytest.raises(ValueError, match="does not match the served"):
            RemoteGridServer(
                client,
                sim=None,
                workunits=other.runtime_spec().workunits[:-2],
                config=other.server_config,
            )
        client.close()


# -- deterministic replay ----------------------------------------------------


class TestReplayReconciliation:
    def test_fault_free_replay_matches_in_process_exactly(self):
        reference = tiny_campaign().run()
        handle = serve_in_thread(tiny_campaign())
        try:
            wire = replay_campaign(tiny_campaign(), handle.url)
        finally:
            handle.stop()
        assert wire.server.stats == reference.server.stats
        assert wire.completion_time == reference.completion_time
        assert wire.server.batch_completion == reference.server.batch_completion
        assert wire.server.stats.effective == reference.server.stats.effective
        assert wire.server.all_done
        # the CampaignResult surface works off the wire proxy too
        assert wire.metrics().redundancy == reference.metrics().redundancy

    def test_faulted_replay_matches_and_surfaces_refusals(self):
        spec = "crash=5,corrupt=0.05,sabotage=0.1,loss=0.05,outage=8x24,maxreissue=8"
        make = lambda: tiny_campaign(seed=5, faults=spec, horizon=9.0)
        reference = make().run()
        handle = serve_in_thread(make())
        try:
            wire = replay_campaign(make(), handle.url)
            status_refused = dict(handle.service.refused)
        finally:
            handle.stop()
        assert wire.server.stats == reference.server.stats
        assert wire.completion_time == reference.completion_time
        # outage windows actually refused RPCs over the wire...
        assert reference.server.stats.refused_rpcs > 0
        assert status_refused["outage"] == reference.server.stats.refused_rpcs
        # ...and the error budget reports them on both sides (the
        # FaultReport refusal counter sources from ValidationStats).
        assert (
            wire.fault_report().injected["refused_rpcs"]
            == reference.fault_report().injected["refused_rpcs"]
            == reference.server.stats.refused_rpcs
        )

    @pytest.mark.parametrize(
        "faults", [None, "outage=10x72,loss=0.2,crash=5,sabotage=0.05"]
    )
    def test_replay_keeps_validation_and_shipment_telemetry(self, faults):
        """The served runtime's per-day validations and shipments reach
        the replaying run through the proxy's server callbacks."""
        reference = tiny_campaign(faults=faults).run()
        handle = serve_in_thread(tiny_campaign(faults=faults))
        try:
            wire = replay_campaign(tiny_campaign(faults=faults), handle.url)
        finally:
            handle.stop()
        assert len(reference.telemetry.shipments) == 5
        assert wire.telemetry.shipments == reference.telemetry.shipments
        assert (
            wire.telemetry.registry.as_dict()
            == reference.telemetry.registry.as_dict()
        )

    def test_replay_via_url_string_and_loadgen_cli(self, capsys):
        from repro.cli import main

        handle = serve_in_thread(tiny_campaign())
        try:
            code = main([
                "--seed", "11", "loadgen", handle.url,
                "--scale", "900", "--proteins", "5", "--horizon-weeks", "30",
                "--reconcile",
            ])
        finally:
            handle.stop()
        out = capsys.readouterr().out
        assert code == 0
        assert "reconcile vs in-process run: MATCH" in out


# -- backpressure and overload ----------------------------------------------


class TestOverload:
    @pytest.mark.parametrize("max_pending", [0, -1])
    def test_an_unbounded_queue_is_refused(self, max_pending):
        """``asyncio.Queue(maxsize=0)`` is unbounded: a service built on it
        could never refuse with ``overload`` (``serve --max-pending 0`` is
        a case of the CLI's user-error test)."""
        with pytest.raises(ValueError, match=r"max_pending \(--max-pending\)"):
            ServiceConfig(max_pending=max_pending)

    def test_burst_overload_refuses_but_answers_everything(self):
        tracer = Tracer(sink=RingSink(capacity=100_000), channels=("service",))
        handle = serve_in_thread(
            tiny_campaign(),
            config=ServiceConfig(max_pending=2, writer_delay_s=0.01),
            tracer=tracer,
        )
        try:
            report = storm(
                handle.url, n_hosts=40, connections=8,
                report_results=False, t_step_s=0.0,
            )
            service = handle.service
            with closing(SchedulerClient(*handle.address)) as client:
                status = client.status()
        finally:
            handle.stop()
        # every request got an answer: 200 or an explicit 503, never a drop
        assert report.dropped == 0
        assert report.answered == report.sent
        assert report.refused["overload"] > 0
        assert report.ok + report.refused_total + report.errors == report.answered
        assert report.errors == 0
        # the queue stayed bounded and the refusals are visible over HTTP
        assert service.max_queue_depth <= 2
        assert status["refused"]["overload"] == report.refused["overload"]
        assert status["max_queue_depth"] <= 2
        # ...and as service.refuse events
        assert tracer.counts["service.refuse"] == report.refused["overload"]
        assert tracer.counts["service.listen"] == 1
        # the storm carries home the service's own per-op latency sketches
        sketches = report.service_rpc_wall_s
        assert sketches["request_work"]["count"] > 0
        assert "estimates" in sketches["request_work"]
        assert report.as_dict()["service_rpc_wall_s"] == sketches

    def test_slow_writer_queue_depth_stays_bounded(self):
        handle = serve_in_thread(
            tiny_campaign(),
            config=ServiceConfig(max_pending=4, writer_delay_s=0.02),
        )
        clients = [SchedulerClient(*handle.address) for _ in range(12)]
        refused = 0
        answered = 0
        lock = threading.Lock()

        def hammer(client: SchedulerClient, host: int) -> None:
            nonlocal refused, answered
            for i in range(4):
                try:
                    client.request_work(host=host, t=float(i))
                    with lock:
                        answered += 1
                except ServiceRefused as exc:
                    assert exc.reason == "overload"
                    assert exc.retry_after_s > 0
                    with lock:
                        refused += 1

        threads = [
            threading.Thread(target=hammer, args=(c, i))
            for i, c in enumerate(clients)
        ]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            depth = handle.service.max_queue_depth
        finally:
            for c in clients:
                c.close()
            handle.stop()
        assert answered + refused == 12 * 4  # nothing lost
        assert depth <= 4

    def test_graceful_drain_mid_campaign(self):
        tracer = Tracer(sink=RingSink(capacity=1000), channels=("service",))
        handle = serve_in_thread(
            tiny_campaign(),
            config=ServiceConfig(max_pending=8, writer_delay_s=0.1),
            tracer=tracer,
        )
        clients = [SchedulerClient(*handle.address) for _ in range(3)]
        results: list[dict] = []

        def request(client: SchedulerClient, host: int) -> None:
            results.append(client.request_work(host=host, t=100.0))

        threads = [
            threading.Thread(target=request, args=(c, i))
            for i, c in enumerate(clients)
        ]
        try:
            for t in threads:
                t.start()
            time.sleep(0.05)  # the requests are in flight / queued
            asyncio.run_coroutine_threadsafe(
                handle.service.drain(), handle.loop
            ).result(timeout=30)
            for t in threads:
                t.join()
            # every in-flight mutation completed (graceful, not dropped)...
            assert len(results) == 3
            assert sum(r["assignment"] is not None for r in results) == 3
            # ...new mutations are refused with reason=draining...
            with pytest.raises(ServiceRefused) as exc_info:
                clients[0].request_work(host=9, t=200.0)
            assert exc_info.value.reason == "draining"
            # ...but read-only endpoints still answer
            status = clients[0].status()
            assert status["draining"] is True
            assert status["stats"]["disclosed"] == 0  # mid-campaign: no report yet
            assert not status["all_done"]
            assert status["refused"]["draining"] == 1
            assert tracer.counts["service.drain"] == 2  # begin + end
        finally:
            for c in clients:
                c.close()
            handle.stop()

    def test_rpc_latency_sketches_populate(self, service):
        client = SchedulerClient(*service.address)
        for _ in range(8):
            client.heartbeat(host=1)
        client.request_work(host=0, t=1.0)
        status = client.status()
        sketches = status["rpc_wall_s"]
        assert sketches["heartbeat"]["count"] == 8
        assert sketches["request_work"]["count"] == 1
        assert 0.0 <= sketches["heartbeat"]["estimates"]["p50"] < 1.0
        # the sketch rides the standard registry export too
        assert "service.rpc_wall_s.heartbeat" in service.service.metrics
        client.close()

"""wire_replay: a seeded campaign replayed over HTTP against `repro-hcmd serve`."""

from __future__ import annotations

import json
import os
import resource
import statistics
import time

from repro.boinc.simulator import scaled_phase1
from repro.service.client import SchedulerClient
from repro.service.loadgen import replay_campaign

from served import Served
from wl_base import Workload, compare, median_wall
from wl_sim import SpanProfiler, des_layers, stats_outcome, stats_problems

_OP_OF_PATH = {
    "/v1/request-work": "request_work",
    "/v1/report-result": "report_result",
}


class TimingClient(SchedulerClient):
    """``SchedulerClient`` with two clock reads around every exchange."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.rtt: dict[str, list[float]] = {}
        self.sent = 0
        self.not_ok = 0
        self.last: dict[str, tuple[dict, bytes]] = {}

    def _call_raw(self, method, path, body=None):
        self.sent += 1
        start = time.perf_counter()
        try:
            status, raw = super()._call_raw(method, path, body)
        except Exception:
            self.not_ok += 1  # dropped: no answer at all
            raise
        self.rtt.setdefault(path, []).append(time.perf_counter() - start)
        if status != 200:
            self.not_ok += 1
        elif body is not None:
            self.last[path] = (body, raw)
        return status, raw


def _quantile_us(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


class WireReplay(Workload):
    """Closed loop, one connection: every simulated agent waits for its
    reply, as a volunteer host does.  A served campaign can be replayed
    once, so every pass gets its own served process; the first is started
    during set-up, the later ones between passes, outside the timed
    region.

    For the length of a pass, client and server share one CPU.  With one
    connection they never run at the same moment anyway, and a pinned
    pair keeps that CPU busy, so a round trip costs two context switches
    instead of two wake-ups of a halted vCPU - a latency that belongs to
    the host, and that on the reference box doubles in its busy phases.
    """

    def __init__(self, params, scratch, rec, served: Served) -> None:
        super().__init__(params, scratch, rec)
        self._served = [served]
        self._seed = params["campaign_seed"]

    def build(self, profiler=None):
        p = self.params
        return scaled_phase1(
            scale=p["scale"], n_proteins=p["n_proteins"], seed=self._seed,
            horizon_weeks=p["horizon_weeks"], profiler=profiler,
        )

    def setup(self) -> None:
        with self.rec.span("sim.build"):
            self._model = self.build()
        with self.rec.span("service.await_serving"):
            self._url = self._served[0].url()
        self._status: dict = {}
        self._client: TimingClient | None = None
        self._wire = None

    def run_pass(self, traced: bool) -> dict:
        profiler = SpanProfiler(self.rec) if traced else None
        if self._url is None:
            self._served.append(Served(self.params, self._seed))
            self._url = self._served[-1].url()
        model = self.build(profiler) if traced or self._model is None else self._model
        self._model = None
        client = TimingClient.from_url(self._url)
        allowed = os.sched_getaffinity(0)
        shared = {min(allowed)}
        os.sched_setaffinity(self._served[-1].proc.pid, shared)
        os.sched_setaffinity(0, shared)
        try:
            result, out = self.timed(
                traced, lambda: replay_campaign(model, client)
            )
        finally:
            os.sched_setaffinity(0, allowed)
        probe = SchedulerClient.from_url(self._url)
        try:
            self._status = probe.status()
        finally:
            probe.close()
        self._served[-1].stop()
        self._url = None
        self._client, self._wire = client, result
        out.update(units=client.sent, attempted=client.sent, failed=client.not_ok)
        if traced:
            out["layers"] = des_layers(
                self.rec, profiler, result.server.stats, result.server.n_workunits,
                sum(sum(v) for v in client.rtt.values()), client.sent,
                "service.rpc",
            )
        return out

    def _inproc(self):
        return self.build().run()

    def outcome(self) -> dict:
        return stats_outcome(self._wire.server.stats, self._wire.completion_time)

    def verify(self, golden: dict | None) -> list[str]:
        wire = self.outcome()
        local = self._inproc()
        problems = stats_problems(self._wire.server.stats, "wire")
        problems += compare(
            wire, stats_outcome(local.server.stats, local.completion_time),
            "wire-vs-inprocess",
        )
        if golden is not None:
            problems += compare(wire, golden, "golden")
        refused = sum(self._status.get("refused", {}).values())
        if refused or self._client.not_ok:
            problems.append(
                f"{refused} refusals, {self._client.not_ok} RPCs not answered 200"
            )
        return problems

    def peak_rss_kb(self) -> int:
        """Largest reaped child (the served process)."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def layers(self, untraced_wall_s: float) -> dict:
        client, status = self._client, self._status
        _, inproc_s = median_wall(self._inproc)
        all_rtt = [x for v in client.rtt.values() for x in v]
        layers = {
            "rpc_p50_us": statistics.median(all_rtt) * 1e6,
            "service.requests_total": status["requests_total"],
            "service.max_queue_depth": status["max_queue_depth"],
            "service.refused_total": sum(status["refused"].values()),
            "service.inproc_wall_s": inproc_s,
            "service.wire_tax_x": untraced_wall_s / inproc_s,
        }
        overheads = []
        for path, op in _OP_OF_PATH.items():
            samples = client.rtt[path]
            handled = status["rpc_wall_s"][op]["estimates"]
            for q, label in ((0.5, "p50"), (0.99, "p99")):
                layers[f"service.client_rtt_us_{label}.{op}"] = _quantile_us(samples, q)
                layers[f"service.handle_us_{label}.{op}"] = handled[label] * 1e6
            overheads.append(
                layers[f"service.client_rtt_us_p50.{op}"]
                - layers[f"service.handle_us_p50.{op}"]
            )
        layers["service.wire_overhead_us"] = statistics.mean(overheads)
        layers["service.codec_us"] = self._codec_us()
        return layers

    def _codec_us(self, repeats: int = 2000) -> float:
        """JSON encode + decode of the last request-work exchange, both
        directions (what client and service each do once per RPC)."""
        body, raw = self._client.last["/v1/request-work"]
        start = time.perf_counter()
        for _ in range(repeats):
            json.loads(json.dumps(body).encode())
            json.dumps(json.loads(raw)).encode()
        return (time.perf_counter() - start) / repeats * 1e6

    def close(self) -> None:
        for served in self._served:
            served.stop()


WORKLOADS = {"wire_replay": WireReplay}

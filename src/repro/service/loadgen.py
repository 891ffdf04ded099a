"""Load-generator modes of the simulator, driving the wire.

Two modes, both against a live :class:`~repro.service.SchedulerService`:

* :func:`replay_campaign` — **deterministic replay**: the simulator runs
  its seeded host population locally (same arrival traces, same RNG
  substreams), but every scheduler interaction goes over real sockets
  through a :class:`~repro.service.client.RemoteGridServer` proxy.  One
  RPC is in flight at a time and each carries the local DES clock, so the
  wire-driven campaign reconciles exactly with the in-process run — same
  validated-result counts, same :class:`ValidationStats`.
* :func:`storm` — **open-loop throughput storm**: N concurrent
  keep-alive connections sweeping a host-id range through
  heartbeat / request-work / report-result cycles as fast as the service
  answers, measuring sustained requests/s, latency quantiles and refusal
  behaviour under overload.  Every request is accounted for: answered,
  refused (503) or errored — nothing is silently dropped.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any

from .client import RemoteGridServer, SchedulerClient
from .http import Framer, FramingError, build_request, status_line
from .protocol import encode_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..boinc.simulator import CampaignResult, VolunteerGridSimulation

__all__ = ["replay_campaign", "storm", "StormReport"]


def replay_campaign(
    sim_model: "VolunteerGridSimulation",
    url: str | SchedulerClient,
    timeout: float = 60.0,
) -> "CampaignResult":
    """Replay ``sim_model``'s seeded campaign as a real RPC client.

    The service must be serving the *same* campaign (same library, seed
    and config) — the proxy verifies workunit count and deadline against
    ``GET /`` before driving it, and raises :class:`ValueError` on
    mismatch.  Returns the usual :class:`CampaignResult`; its ``server``
    is the wire proxy, whose stats/completion come from the service's
    final summary — as do the telemetry's per-day validations and its
    shipments, fed through the proxy's server callbacks.
    """
    client = (
        SchedulerClient.from_url(url, timeout=timeout)
        if isinstance(url, str)
        else url
    )
    try:
        return sim_model.run(server_factory=partial(RemoteGridServer, client))
    finally:
        client.close()


# -- open-loop storm ---------------------------------------------------------


@dataclass
class StormReport:
    """What the storm sent and what came back (nothing unaccounted)."""

    n_hosts: int
    connections: int
    sent: int = 0
    answered: int = 0
    ok: int = 0
    errors: int = 0
    refused: dict[str, int] = field(
        default_factory=lambda: {"overload": 0, "draining": 0, "outage": 0}
    )
    assignments: int = 0
    reports: int = 0
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list, repr=False)
    #: the service's own per-op ``service.rpc_wall_s.<op>`` P² sketches
    #: (from ``GET /v1/status`` after the storm), keyed by sketch name
    service_rpc_wall_s: dict[str, Any] = field(default_factory=dict)

    @property
    def dropped(self) -> int:
        """Requests that got *no* response at all (target: zero — a
        refusal is an answer, a drop is a failure)."""
        return self.sent - self.answered

    @property
    def refused_total(self) -> int:
        return sum(self.refused.values())

    @property
    def requests_per_s(self) -> float:
        return self.answered / self.wall_s if self.wall_s > 0 else 0.0

    def latency_quantiles(self) -> dict[str, float]:
        if not self.latencies_s:
            return {}
        ordered = sorted(self.latencies_s)
        last = len(ordered) - 1
        return {
            f"p{q * 100:g}": ordered[min(last, int(q * len(ordered)))]
            for q in (0.5, 0.9, 0.99)
        }

    def rows(self, requests_per_host: int) -> list[list[Any]]:
        """The ``loadgen --mode storm`` table: the client's counts and
        latencies, then the service's own per-op P² sketches
        (``service.rpc_wall_s.<op>``)."""

        def p50_p99_ms(quantiles: dict[str, float]) -> str:
            return (f"{quantiles.get('p50', 0) * 1e3:.2f} / "
                    f"{quantiles.get('p99', 0) * 1e3:.2f}")

        rows = [
            ["hosts x sweeps", f"{self.n_hosts} x {requests_per_host}"],
            ["connections", self.connections],
            ["requests sent", self.sent],
            ["requests answered", self.answered],
            ["dropped (no response)", self.dropped],
            ["refused (503)", self.refused_total],
            ["assignments / reports", f"{self.assignments} / {self.reports}"],
            ["sustained requests/s", f"{self.requests_per_s:,.0f}"],
            ["latency p50 / p99 (ms)", p50_p99_ms(self.latency_quantiles())],
        ]
        for name in sorted(self.service_rpc_wall_s):
            estimates = self.service_rpc_wall_s[name].get("estimates")
            if estimates:
                op = name.rsplit(".", 1)[-1]
                rows.append([f"service {op} p50 / p99 (ms)", p50_p99_ms(estimates)])
        return rows

    def as_dict(self) -> dict[str, Any]:
        return {
            "n_hosts": self.n_hosts,
            "connections": self.connections,
            "sent": self.sent,
            "answered": self.answered,
            "dropped": self.dropped,
            "ok": self.ok,
            "errors": self.errors,
            "refused": dict(self.refused),
            "assignments": self.assignments,
            "reports": self.reports,
            "wall_s": self.wall_s,
            "requests_per_s": self.requests_per_s,
            "latency_s": self.latency_quantiles(),
            "service_rpc_wall_s": dict(self.service_rpc_wall_s),
        }


class _StormConnection(asyncio.Protocol):
    """One keep-alive storm connection: each request leaves in one write
    and its response is awaited before the next (closed loop per connection)."""

    def __init__(self) -> None:
        self._framer = Framer(status_line)
        self._transport: asyncio.Transport | None = None
        self._waiter: asyncio.Future | None = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        self._framer.feed(data)
        waiter = self._waiter
        if waiter is None or waiter.done():
            return
        try:
            message = self._framer.next_message()
        except FramingError as exc:
            waiter.set_exception(exc)
            return
        if message is not None:
            waiter.set_result(message)

    def connection_lost(self, exc: Exception | None) -> None:
        if self._waiter is not None and not self._waiter.done():
            self._waiter.set_exception(
                ConnectionResetError("service closed the connection")
            )

    async def exchange(
        self, path: str, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        if self._transport.is_closing():
            raise ConnectionResetError("service closed the connection")
        self._waiter = asyncio.get_running_loop().create_future()
        self._transport.write(
            build_request("POST", path, encode_json(body).encode(), "storm")
        )
        message = await self._waiter
        _version, status, _reason = message.start
        return status, json.loads(message.body) if message.body else {}

    def close(self) -> None:
        self._transport.close()


async def _storm_worker(
    host: str,
    port: int,
    host_ids: list[int],
    t_step_s: float,
    report_results: bool,
    out: StormReport,
) -> None:
    _, conn = await asyncio.get_running_loop().create_connection(
        _StormConnection, host, port
    )

    async def call(path: str, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        """One accounted exchange: sent, then answered as ok/refused/error."""
        out.sent += 1
        t0 = time.perf_counter()
        status, payload = await conn.exchange(path, body)
        out.latencies_s.append(time.perf_counter() - t0)
        out.answered += 1
        if status == 200:
            out.ok += 1
        elif status == 503:
            reason = payload.get("reason", "overload")
            out.refused[reason] = out.refused.get(reason, 0) + 1
        else:
            out.errors += 1
        return status, payload

    try:
        for i, host_id in enumerate(host_ids):
            t = i * t_step_s
            await call("/v1/heartbeat", {"host": host_id})
            status, payload = await call("/v1/request-work", {"host": host_id, "t": t})
            assignment = payload.get("assignment") if status == 200 else None
            if assignment is None:
                continue
            out.assignments += 1
            if report_results:
                status, _ = await call(
                    "/v1/report-result",
                    {
                        "token": assignment["token"],
                        "valid": True,
                        "accounted_cpu_s": assignment["cost_reference_s"],
                        "t": t,
                    },
                )
                if status == 200:
                    out.reports += 1
    except (ConnectionError, FramingError):
        pass  # the request in flight on this connection counts as dropped
    finally:
        conn.close()


async def _storm(
    host: str,
    port: int,
    n_hosts: int,
    connections: int,
    requests_per_host: int,
    t_step_s: float,
    report_results: bool,
) -> StormReport:
    report = StormReport(n_hosts=n_hosts, connections=connections)
    # Round-robin the host-id space over the connections; every host id in
    # [0, n_hosts) is exercised at least requests_per_host times in total.
    ids = [h for _ in range(requests_per_host) for h in range(n_hosts)]
    chunks = [ids[c::connections] for c in range(connections)]
    t0 = time.perf_counter()
    await asyncio.gather(
        *(
            _storm_worker(host, port, chunk, t_step_s, report_results, report)
            for chunk in chunks
            if chunk
        )
    )
    report.wall_s = time.perf_counter() - t0
    return report


def storm(
    url: str,
    n_hosts: int = 10_000,
    connections: int = 32,
    requests_per_host: int = 1,
    t_step_s: float = 1.0,
    report_results: bool = True,
) -> StormReport:
    """Open-loop request storm against a running service (blocking).

    Sweeps ``n_hosts`` distinct host ids over ``connections`` keep-alive
    connections; each visit is a heartbeat + request-work pair (plus a
    report-result when work was assigned).  The mutating requests carry a
    slowly-advancing campaign time so issued work stays within the
    horizon.  Returns a :class:`StormReport`; ``report.dropped == 0``
    means the service answered every single request — refusals included.
    """
    client = SchedulerClient.from_url(url)
    report = asyncio.run(
        _storm(
            client.host, client.port, n_hosts, connections,
            requests_per_host, t_step_s, report_results,
        )
    )
    try:
        # The service's own view of the storm: per-op wall-time sketches.
        report.service_rpc_wall_s = client.status().get("rpc_wall_s", {})
    except OSError:  # pragma: no cover - service died mid-teardown
        pass
    finally:
        client.close()
    return report

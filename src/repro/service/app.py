"""The live scheduler service: an asyncio HTTP/JSON facade on GridServer.

The paper's campaign ran on a real BOINC server fielding scheduler RPCs
from ~100k volunteer hosts; here the same :class:`~repro.boinc.server.
GridServer` that the DES drives in-process answers ``request-work`` /
``report-result`` / ``heartbeat`` over real sockets.

The served campaign is one :class:`~repro.boinc.simulator.CampaignRuntime`
— the same telemetry / server / callback wiring an in-process run gets —
started on the service's own DES kernel behind the ledger tee.

Design (see docs/service.md for the wire reference):

* **Single-writer loop.**  All server mutations go through one bounded
  :class:`asyncio.Queue` drained by one writer task, so RPCs apply in a
  total order and the determinism contract survives the network: a
  deterministic replay driven over the wire reconciles exactly with the
  in-process run.  The writer answers each mutation itself, through the
  ``respond`` callback queued with it.
* **Clock carried on the wire.**  A mutating RPC may carry a campaign
  timestamp ``t``; the writer advances the service's discrete-event clock
  with ``sim.run(until=t)`` first, firing any due deadline timers and
  outage boundaries *before* the mutation — exactly the interleaving the
  shared-heap in-process run produces.  Without ``t`` (live mode) the
  clock advances with scaled wall time.
* **Backpressure to the socket.**  A full write queue refuses the RPC
  with ``503`` + ``Retry-After`` (reason ``overload``) instead of
  buffering unboundedly; outage windows from :mod:`repro.faults` surface
  the in-process :class:`~repro.faults.ServerUnavailable` as ``503``
  (reason ``outage``); graceful shutdown refuses new mutations (reason
  ``draining``) while the queue drains.  Every refusal is counted and,
  with a tracer, emitted as a ``service.refuse`` event.

The HTTP layer is a deliberately small HTTP/1.1 (keep-alive, JSON
bodies, no third-party server dependency): an :class:`asyncio.Protocol`
per connection parses requests straight out of its receive buffer with
the shared :mod:`repro.service.http` codec and writes each response with
one ``transport.write``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from ..boinc.fleet import kernel_tracer, tee_observers
from ..boinc.simulator import CampaignRuntime
from ..faults import ResultQuality, ServerUnavailable
from ..grid.des import Simulator
from ..obs import HostLedger, MetricsRegistry, Tracer
from ..obs.metrics import render_prometheus
from .http import JSON_TYPE, Framer, FramingError, build_response, request_line
from .protocol import (
    ENDPOINTS,
    WIRE_PROTOCOL_VERSION,
    encode_json,
    error_payload,
    refusal_payload,
    stats_as_dict,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..boinc.simulator import VolunteerGridSimulation

__all__ = ["ServiceConfig", "SchedulerService", "ServiceHandle", "serve_in_thread"]

#: RPC op keys, used for route dispatch and latency sketch names.
_OPS = (
    "discover", "status", "hosts", "metrics",
    "heartbeat", "request_work", "report_result", "finalize",
)

#: (method, path) -> op key.  Kept in lockstep with
#: :data:`repro.service.protocol.ENDPOINTS` (tested).
ROUTES: dict[tuple[str, str], str] = {
    ("GET", "/"): "discover",
    ("GET", "/v1/status"): "status",
    ("GET", "/v1/hosts"): "hosts",
    ("GET", "/v1/metrics"): "metrics",
    ("POST", "/v1/heartbeat"): "heartbeat",
    ("POST", "/v1/request-work"): "request_work",
    ("POST", "/v1/report-result"): "report_result",
    ("POST", "/v1/finalize"): "finalize",
}

#: Ops that mutate GridServer state and therefore go through the
#: single-writer queue; the rest are answered inline (read-only).
_WRITER_OPS = frozenset({"request_work", "report_result", "finalize"})

_METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Pipelined bytes a connection buffers behind an unanswered request
#: before it stops reading the socket.
_READ_AHEAD_BYTES = 64 * 1024

#: ``(status, payload, extra headers)`` — what an op answers with; a
#: ``str`` payload is sent as text (the metrics page), a dict as JSON.
Reply = tuple[int, "dict[str, Any] | str", dict[str, str]]
#: ``respond(status, payload, headers)`` — how a request is answered.
Respond = Callable[[int, "dict[str, Any] | str", dict[str, str]], None]


@dataclass(frozen=True)
class ServiceConfig:
    """Socket and backpressure knobs for :class:`SchedulerService`."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick a free port (read it back from ``address``)
    port: int = 0
    #: bound on queued-but-unapplied mutations; a full queue refuses with
    #: 503 ``overload`` instead of buffering unboundedly
    max_pending: int = 1024
    #: live mode: simulated seconds per wall-clock second (ignored by
    #: RPCs that carry an explicit ``t``)
    time_scale: float = 1.0
    #: Retry-After for overload refusals (seconds)
    overload_retry_s: float = 1.0
    #: Retry-After for refusals during graceful drain (seconds)
    drain_retry_s: float = 5.0
    #: artificial per-mutation writer delay — a test/bench knob that makes
    #: overload deterministic to provoke (0 = off)
    writer_delay_s: float = 0.0
    #: largest accepted request body
    max_body_bytes: int = 1 << 20


class SchedulerService:
    """HTTP/JSON RPC front-end over one campaign's :class:`GridServer`.

    Built from a :class:`~repro.boinc.simulator.VolunteerGridSimulation`
    (which supplies the materialized workunits, server policy and
    horizon); owns a private DES kernel whose clock the RPCs advance.
    Start with :meth:`start` inside a running event loop, or use
    :func:`serve_in_thread` from synchronous code.
    """

    def __init__(
        self,
        sim_model: "VolunteerGridSimulation",
        config: ServiceConfig | None = None,
        tracer: Tracer | None = None,
        campaign: str = "hcmd",
    ) -> None:
        shards = sim_model.config.shards
        if shards is not None and shards.n_shards > 1:
            raise ValueError(
                "the scheduler service fronts a single GridServer; "
                "serve a campaign without a multi-shard plan"
            )
        self.cfg = config if config is not None else ServiceConfig()
        self.tracer = tracer
        self.sim = Simulator(tracer=kernel_tracer(tracer))
        self.horizon_s = sim_model.horizon_s
        # Per-host behavioral ledger behind GET /v1/hosts, fed by the same
        # tee on the server's event stream an in-process run uses.  With a
        # caller-supplied tracer the tee rides its sink (a channel filter
        # excluding "server"/"host" starves the ledger — documented in
        # docs/observability.md) until shutdown() puts the caller's sink
        # back; without one, a private tracer feeds the ledger and nothing
        # else.
        self.ledger = HostLedger()
        server_tracer, self._ledger_restore_sink = tee_observers(
            tracer, ledger=self.ledger
        )
        try:
            runtime = CampaignRuntime(
                self.sim, sim_model.runtime_spec(), self.horizon_s, server_tracer
            )
        except BaseException:
            # No shutdown() will ever run for a service that failed to
            # build: give the caller's tracer its sink back now.
            self._restore_tracer_sink()
            raise
        self.telemetry, self.server = runtime.telemetry, runtime.server
        #: the served campaign's name; scopes every assignment on the
        #: wire (multi-campaign grids run one service per campaign)
        self.campaign_name = campaign
        #: campaign identity echoed by ``GET /`` so a load generator can
        #: verify it rebuilt the same campaign before driving it
        self.identity = {
            "campaign": campaign,
            "n_workunits": self.server.n_workunits,
            "seed": sim_model.seed,
            "deadline_s": sim_model.server_config.deadline_s,
            "horizon_s": sim_model.horizon_s,
            "scale": sim_model.scale,
        }
        # -- wire-layer state ------------------------------------------------
        self._next_token = 1
        self._instances: dict[int, Any] = {}
        self.metrics = MetricsRegistry()
        self._latency = {
            op: self.metrics.quantiles(
                f"service.rpc_wall_s.{op}",
                help=f"wall-clock seconds to answer one {op} RPC",
            )
            for op in _OPS
        }
        self.refused: dict[str, int] = {"overload": 0, "draining": 0, "outage": 0}
        self.requests_total = 0
        self.max_queue_depth = 0
        #: mutations whose ``t`` was behind the clock and got clamped
        self.clock_clamps = 0
        self.draining = False
        self.address: tuple[str, int] | None = None
        self._queue: asyncio.Queue | None = None
        self._writer_task: asyncio.Task | None = None
        self._http: asyncio.AbstractServer | None = None
        self._t0_wall: float | None = None
        self._conns: set[_Connection] = set()

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind the socket and start the writer loop; returns (host, port)."""
        self._queue = asyncio.Queue(maxsize=self.cfg.max_pending)
        self._writer_task = asyncio.create_task(self._writer_loop())
        self._http = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.cfg.host, self.cfg.port
        )
        self.address = self._http.sockets[0].getsockname()[:2]
        self._t0_wall = time.monotonic()
        if self.tracer is not None:
            self.tracer.emit(
                "service.listen", t_sim=self.sim.now,
                host=self.address[0], port=self.address[1],
                n_workunits=self.server.n_workunits,
            )
        return self.address

    async def drain(self) -> None:
        """Refuse new mutations, then wait for the queued ones to apply."""
        if self._queue is None:
            return
        self.draining = True
        pending = self._queue.qsize()
        if self.tracer is not None:
            self.tracer.emit(
                "service.drain", t_sim=self.sim.now, phase="begin", pending=pending,
            )
        await self._queue.join()
        if self.tracer is not None:
            self.tracer.emit(
                "service.drain", t_sim=self.sim.now, phase="end", pending=0,
            )

    def summary_rows(self) -> list[list[Any]]:
        """What the service answered and refused (``repro-hcmd serve``
        prints it after draining)."""
        return [
            ["requests answered", self.requests_total],
            ["results validated", self.server.stats.effective],
            ["refused (outage)", self.refused["outage"]],
            ["refused (overload)", self.refused["overload"]],
            ["refused (draining)", self.refused["draining"]],
            ["peak queue depth", self.max_queue_depth],
        ]

    async def shutdown(self) -> None:
        """Graceful stop: drain the write queue, then close the socket."""
        await self.drain()
        if self._http is not None:
            self._http.close()
            await self._http.wait_closed()
        # Close the keep-alive connections (each flushes what it still has
        # to write) and wait for them to go, so no transport is left open
        # when the event loop goes away.
        conns = list(self._conns)
        for conn in conns:
            conn.transport.close()
        if conns:
            await asyncio.wait([conn.closed for conn in conns], timeout=5.0)
        for conn in self._conns:  # a peer that never read its responses
            conn.transport.abort()
        if self._writer_task is not None:
            self._writer_task.cancel()
            try:
                await self._writer_task
            except asyncio.CancelledError:
                pass
        self._restore_tracer_sink()

    def _restore_tracer_sink(self) -> None:
        """Unwrap the ledger tee: the caller's tracer outlives us."""
        if self._ledger_restore_sink is not None:
            self.tracer.sink = self._ledger_restore_sink
            self._ledger_restore_sink = None

    # -- clock --------------------------------------------------------------

    def _resolve_t(self, body: dict[str, Any]) -> float:
        """The campaign time a mutation applies at.

        Replay mode sends ``t`` explicitly; live mode maps wall-clock
        seconds since start through ``time_scale``.
        """
        t = body.get("t")
        if t is None:
            elapsed = time.monotonic() - (self._t0_wall or time.monotonic())
            t = elapsed * self.cfg.time_scale
        return float(t)

    def _advance(self, t: float) -> None:
        """Run the DES clock up to ``t`` (clamped into [now, horizon]).

        Fires every due server-side event — deadline timeouts, outage
        window boundaries — in (time, seq) order before the caller's
        mutation, the same interleaving an in-process run produces.
        """
        t = min(t, self.horizon_s)
        if t < self.sim.now:
            self.clock_clamps += 1
            return
        self.sim.run(until=t)

    # -- writer (the only place GridServer state changes) --------------------

    async def _writer_loop(self) -> None:
        assert self._queue is not None
        while True:
            op, body, respond, t0 = await self._queue.get()
            try:
                if self.cfg.writer_delay_s > 0.0:
                    await asyncio.sleep(self.cfg.writer_delay_s)
                # Answered *before* task_done(): drain() must never return
                # with a mutation applied but its response unwritten.
                self._answer(respond, op, t0, *self._execute(op, body))
            except Exception as exc:  # defensive: a bug must not kill the loop
                # (respond() itself never raises, so it has not run yet)
                detail = f"{type(exc).__name__}: {exc}"
                respond(500, error_payload("internal", detail), {})
            finally:
                self._queue.task_done()

    def _outage(self, exc: ServerUnavailable):
        self.refused["outage"] += 1
        retry_after = max(0.0, exc.until - self.sim.now)
        return (
            503,
            refusal_payload("outage", retry_after, until_s=exc.until),
            {"Retry-After": f"{retry_after:.0f}"},
        )

    def _apply_request_work(self, body: dict[str, Any]):
        host = int(body["host"])
        self._advance(self._resolve_t(body))
        try:
            instance = self.server.request_work(host)
        except ServerUnavailable as exc:
            return self._outage(exc)
        if instance is None:
            return 200, {"assignment": None, "all_done": self.server.all_done}, {}
        token = self._next_token
        self._next_token += 1
        self._instances[token] = instance
        wu = instance.wu
        assignment = {
            "token": token,
            "campaign": self.campaign_name,
            "wu": wu.wu_id,
            "copy": instance.copy,
            "receptor": wu.receptor,
            "ligand": wu.ligand,
            "nsep": wu.nsep,
            "cost_reference_s": wu.cost_reference_s,
            "deadline_s": self.server.config.deadline_s,
        }
        return 200, {"assignment": assignment, "all_done": False}, {}

    def _apply_report_result(self, body: dict[str, Any]):
        token = int(body["token"])
        instance = self._instances.get(token)
        if instance is None:
            return 410, error_payload("unknown-token", f"token {token}"), {}
        self._advance(self._resolve_t(body))
        quality_name = body.get("quality")
        quality = ResultQuality(quality_name) if quality_name is not None else None
        try:
            self.server.on_result(
                instance,
                bool(body["valid"]),
                float(body["accounted_cpu_s"]),
                quality=quality,
            )
        except ServerUnavailable as exc:
            # Token survives: the agent backs off and re-reports the same
            # instance, exactly like the in-process retry path.
            return self._outage(exc)
        del self._instances[token]
        return 200, {"accepted": True, "all_done": self.server.all_done}, {}

    def _apply_finalize(self, body: dict[str, Any]):
        self._advance(float(body["t"]))
        return 200, {"summary": self._summary()}, {}

    # -- read-only payloads --------------------------------------------------

    def _summary(self) -> dict[str, Any]:
        server = self.server
        return {
            "now_s": self.sim.now,
            "all_done": server.all_done,
            "completion_time": server.completion_time,
            "n_workunits": server.n_workunits,
            "stats": stats_as_dict(server.stats),
            "batch_completion": {
                str(batch): t for batch, t in sorted(server.batch_completion.items())
            },
        }

    def _status_payload(self) -> dict[str, Any]:
        queue_depth = self._queue.qsize() if self._queue is not None else 0
        latency = {
            op: sketch.as_dict()
            for op, sketch in self._latency.items()
            if sketch.count
        }
        payload = self._summary()
        payload.update(
            n_validated=self.server.stats.effective,
            draining=self.draining,
            queue_depth=queue_depth,
            max_queue_depth=self.max_queue_depth,
            requests_total=self.requests_total,
            refused=dict(self.refused),
            clock_clamps=self.clock_clamps,
            outstanding_tokens=len(self._instances),
            rpc_wall_s=latency,
        )
        return payload

    def _hosts_payload(self) -> dict[str, Any]:
        """The fleet snapshot behind ``GET /v1/hosts`` (ledger as JSON)."""
        fleet = self.ledger.finalize(self.sim.now)
        payload = fleet.as_dict()
        payload["campaign"] = self.campaign_name
        payload["now_s"] = self.sim.now
        return payload

    def _metrics_text(self) -> str:
        """``GET /v1/metrics``: the registry in Prometheus text format."""
        return render_prometheus(self.metrics)

    def _discover_payload(self) -> dict[str, Any]:
        return {
            "service": "repro-scheduler",
            "wire_protocol": WIRE_PROTOCOL_VERSION,
            "endpoints": [
                {"method": m, "path": p, "summary": s} for m, p, s in ENDPOINTS
            ],
            "campaign": self.identity,
        }

    def _heartbeat_payload(self, body: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "host": int(body.get("host", -1)),
            "now_s": self.sim.now,
            "all_done": self.server.all_done,
            "n_validated": self.server.stats.effective,
            "n_workunits": self.server.n_workunits,
            "queue_depth": self._queue.qsize() if self._queue is not None else 0,
            "draining": self.draining,
        }

    # -- requests -----------------------------------------------------------

    def _handle(
        self, method: str, path: str, raw_body: bytes, respond: Respond
    ) -> None:
        """Serve one parsed request; ``respond`` is called exactly once.

        Read-only ops and refusals are answered before this returns;
        a mutation is queued and answered by the writer loop.
        """
        t0 = time.perf_counter()
        op = ROUTES.get((method, path))
        if op is None:
            respond(404, error_payload("unknown-endpoint", f"{method} {path}"), {})
            return
        self.requests_total += 1
        try:
            body = json.loads(raw_body) if raw_body else {}
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, RecursionError) as exc:  # (absurdly nested JSON)
            bad = error_payload("bad-request", str(exc))
            self._answer(respond, op, t0, 400, bad, {})
            return
        if op not in _WRITER_OPS:
            self._answer(respond, op, t0, *self._execute(op, body))
        elif self.draining:
            refusal = self._refuse(op, "draining", self.cfg.drain_retry_s)
            self._answer(respond, op, t0, *refusal)
        else:
            assert self._queue is not None
            try:
                self._queue.put_nowait((op, body, respond, t0))
            except asyncio.QueueFull:
                refusal = self._refuse(op, "overload", self.cfg.overload_retry_s)
                self._answer(respond, op, t0, *refusal)
                return
            self.max_queue_depth = max(self.max_queue_depth, self._queue.qsize())

    def _execute(self, op: str, body: dict[str, Any]) -> Reply:
        """Run one op against the campaign; a bad body is a 400, not a crash."""
        try:
            if op == "request_work":
                return self._apply_request_work(body)
            if op == "report_result":
                return self._apply_report_result(body)
            if op == "finalize":
                return self._apply_finalize(body)
            if op == "heartbeat":
                return 200, self._heartbeat_payload(body), {}
            if op == "status":
                return 200, self._status_payload(), {}
            if op == "hosts":
                return 200, self._hosts_payload(), {}
            if op == "metrics":
                return 200, self._metrics_text(), {}
            return 200, self._discover_payload(), {}
        except KeyError as exc:
            return 400, error_payload("bad-request", f"missing field {exc}"), {}
        except (TypeError, ValueError) as exc:
            return 400, error_payload("bad-request", str(exc)), {}
        except Exception as exc:  # defensive: a bug must not kill the loop
            return 500, error_payload("internal", f"{type(exc).__name__}: {exc}"), {}

    def _answer(
        self, respond: Respond, op: str, t0: float,
        status: int, payload: "dict[str, Any] | str", headers: dict[str, str],
    ) -> None:
        """Close the RPC's wall-time span (parsed -> payload ready), then reply."""
        wall = time.perf_counter() - t0
        self._latency[op].observe(wall)
        if self.tracer is not None:
            self.tracer.emit(
                "service.request", t_sim=self.sim.now,
                op=op, status=status, wall_ms=wall * 1e3,
            )
        respond(status, payload, headers)

    def _refuse(self, op: str, reason: str, retry_s: float) -> Reply:
        self.refused[reason] += 1
        if self.tracer is not None:
            self.tracer.emit(
                "service.refuse", t_sim=self.sim.now, op=op, reason=reason,
            )
        return 503, refusal_payload(reason, retry_s), {"Retry-After": f"{retry_s:.0f}"}


class _Connection(asyncio.Protocol):
    """One client connection: requests parsed out of the receive buffer,
    answered one at a time and in order (so pipelining is safe).

    ``respond`` is the callback :meth:`SchedulerService._handle` answers
    through — inline for read-only ops, from the writer loop for queued
    mutations.  Until it is called the connection is *busy*: later bytes
    wait in the framer, and past ``_READ_AHEAD_BYTES`` of them (or while
    the peer is not reading its responses) the socket stops being read.
    """

    __slots__ = (
        "service", "transport", "closed", "_framer",
        "_busy", "_keep_alive", "_eof", "_pumping", "_write_paused",
    )

    def __init__(self, service: SchedulerService) -> None:
        self.service = service
        self.transport: asyncio.Transport | None = None
        #: resolved by ``connection_lost``; shutdown waits on it
        self.closed: asyncio.Future | None = None
        self._framer = Framer(request_line, service.cfg.max_body_bytes)
        self._busy = False
        self._keep_alive = True
        self._eof = False
        self._pumping = False
        self._write_paused = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.closed = asyncio.get_running_loop().create_future()
        self.service._conns.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.service._conns.discard(self)
        assert self.closed is not None
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._framer.feed(data)
        self._pump()

    def eof_received(self) -> bool:
        # A half-closed peer still gets the answers it is waiting for:
        # keep the transport open until _pump() has nothing left to serve.
        self._eof = True
        return self._busy or self._write_paused

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        self._pump()

    def _pump(self) -> None:
        """Serve buffered requests until one is waiting for its answer."""
        if self._pumping:
            return  # respond() was called inline: the loop below carries on
        self._pumping = True
        try:
            while not (self._busy or self._write_paused):
                try:
                    message = self._framer.next_message()
                except FramingError as exc:
                    # The stream cannot be trusted any further: say why, close.
                    message = None
                    self._busy, self._keep_alive = True, False
                    self.respond(400, error_payload("bad-request", str(exc)), {})
                if message is None:
                    break
                self._busy = True
                self._keep_alive = message.keep_alive
                method, path, _version = message.start
                self.service._handle(method, path, message.body, self.respond)
        except Exception as exc:
            self._fail(exc)
            return
        finally:
            self._pumping = False
        blocked = self._busy or self._write_paused
        if self._eof and not blocked:
            self.transport.close()
            return
        # (both calls are no-ops when the transport is already in that state)
        if blocked and self._framer.buffered > _READ_AHEAD_BYTES:
            self.transport.pause_reading()
        else:
            self.transport.resume_reading()

    def respond(
        self, status: int, payload: "dict[str, Any] | str", headers: dict[str, str]
    ) -> None:
        """Write one whole response; the connection then serves the next
        request, or closes if either side asked for ``Connection: close``.

        Never raises: the writer loop answers through this, and whatever
        goes wrong serving one connection must cost that connection only.
        """
        transport = self.transport
        if transport is None or transport.is_closing():
            return  # the client went away; nothing to answer
        try:
            if isinstance(payload, str):
                # Text exposition (GET /v1/metrics); everything else is JSON.
                body, content_type = payload.encode(), _METRICS_TYPE
            else:
                body, content_type = encode_json(payload).encode(), JSON_TYPE
            transport.write(
                build_response(status, body, content_type, self._keep_alive, headers)
            )
        except Exception as exc:
            self._fail(exc)
            return
        if not self._keep_alive:
            transport.close()
            return
        self._busy = False
        self._pump()

    def _fail(self, exc: Exception) -> None:
        """A bug surfaced while serving this connection: report it the way
        asyncio reports a failed protocol callback, and drop the connection."""
        asyncio.get_running_loop().call_exception_handler({
            "message": "scheduler connection failed",
            "exception": exc,
            "transport": self.transport,
            "protocol": self,
        })
        self.transport.abort()


class ServiceHandle:
    """A running service on a background thread (synchronous control)."""

    def __init__(
        self,
        service: SchedulerService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self.loop = loop
        self.thread = thread

    @property
    def address(self) -> tuple[str, int]:
        assert self.service.address is not None
        return self.service.address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, close the socket, join the thread."""
        fut = asyncio.run_coroutine_threadsafe(self.service.shutdown(), self.loop)
        fut.result(timeout=timeout)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=timeout)


def serve_in_thread(
    sim_model: "VolunteerGridSimulation",
    config: ServiceConfig | None = None,
    tracer: Tracer | None = None,
    campaign: str = "hcmd",
) -> ServiceHandle:
    """Start a :class:`SchedulerService` on a daemon thread.

    The campaign materialization happens on the calling thread (so errors
    surface immediately); the returned handle exposes the bound address
    and a blocking :meth:`~ServiceHandle.stop`.
    """
    service = SchedulerService(
        sim_model, config=config, tracer=tracer, campaign=campaign
    )
    started = threading.Event()
    failure: list[BaseException] = []
    loop = asyncio.new_event_loop()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(service.start())
        except BaseException as exc:  # surface bind errors to the caller
            failure.append(exc)
            started.set()
            loop.close()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-scheduler", daemon=True)
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return ServiceHandle(service, loop, thread)

"""Blocking wire client and the agent-facing GridServer proxy.

:class:`SchedulerClient` speaks the docs/service.md protocol over one
keep-alive TCP socket, framed by the shared :mod:`repro.service.http`
codec: each request leaves in a single ``sendall`` and one request is in
flight at a time — which is exactly what deterministic replay needs.

:class:`RemoteGridServer` adapts that client to the surface
:class:`~repro.boinc.agent.VolunteerAgent` expects from a server
(``request_work`` / ``on_result`` / ``all_done`` / ``config``), stamping
every mutation with the local DES clock so the service replays the
campaign timeline.  An outage 503 is re-raised as the in-process
:class:`~repro.faults.ServerUnavailable`, so the agents' backoff-retry
machinery works unchanged over the wire.
"""

from __future__ import annotations

import json
import socket
from typing import TYPE_CHECKING, Any
from urllib.parse import urlsplit

from ..boinc.validator import ValidationStats
from ..faults import ResultQuality, ServerUnavailable
from .http import Framer, FramingError, build_request, status_line
from .protocol import WIRE_PROTOCOL_VERSION, encode_json, stats_from_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..boinc.server import ServerConfig
    from ..core.workunit import WorkUnit
    from ..grid.des import Simulator

__all__ = [
    "ServiceError",
    "ServiceRefused",
    "SchedulerClient",
    "RemoteInstance",
    "RemoteGridServer",
]


class ServiceError(RuntimeError):
    """A non-2xx wire response that is not a backpressure refusal."""

    def __init__(self, status: int, payload: dict[str, Any]) -> None:
        super().__init__(f"HTTP {status}: {payload}")
        self.status = status
        self.payload = payload


class ServiceRefused(ServiceError):
    """A 503 refusal (reason ``overload`` or ``draining``).

    Outage refusals are *not* raised as this class — they become
    :class:`~repro.faults.ServerUnavailable` so the agent retry path is
    identical in-process and over the wire.
    """

    def __init__(self, status: int, payload: dict[str, Any]) -> None:
        super().__init__(status, payload)
        self.reason = payload.get("reason", "unknown")
        self.retry_after_s = float(payload.get("retry_after_s", 1.0))


class SchedulerClient:
    """Thin blocking JSON-RPC client for one scheduler service."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._framer = Framer(status_line)

    @classmethod
    def from_url(cls, url: str, timeout: float = 30.0) -> "SchedulerClient":
        """``http://host:port`` (or bare ``host:port``) -> client."""
        parts = urlsplit(url if "//" in url else f"//{url}")
        if parts.hostname is None or parts.port is None:
            raise ValueError(f"need host:port in service URL, got {url!r}")
        return cls(parts.hostname, parts.port, timeout=timeout)

    # -- transport ----------------------------------------------------------

    def _call_raw(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, bytes]:
        payload = encode_json(body).encode() if body is not None else b""
        request = build_request(method, path, payload, f"{self.host}:{self.port}")
        try:
            return self._exchange(request)
        except ConnectionError:
            # Stale keep-alive connection: reconnect once.
            return self._exchange(request)

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        """One ``sendall``, then ``recv`` until the framer has the response."""
        try:
            if self._sock is None:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._framer = Framer(status_line)
            self._sock.sendall(request)
            while (message := self._framer.next_message()) is None:
                chunk = self._sock.recv(65536)
                if not chunk:
                    raise ConnectionResetError("service closed the connection")
                self._framer.feed(chunk)
        except FramingError as exc:
            self.close()
            raise ConnectionError(f"not a scheduler service: {exc}") from exc
        except OSError:
            self.close()  # a broken or timed-out exchange leaves it out of step
            raise
        if not message.keep_alive:
            self.close()
        _version, status, _reason = message.start
        return status, message.body

    def _call(
        self, method: str, path: str, body: dict[str, Any] | None = None
    ) -> tuple[int, dict[str, Any]]:
        status, raw = self._call_raw(method, path, body)
        return status, json.loads(raw) if raw else {}

    def _checked(self, method: str, path: str, body: dict[str, Any] | None = None):
        status, payload = self._call(method, path, body)
        if status == 503:
            if payload.get("reason") == "outage":
                raise ServerUnavailable(float(payload.get("until_s", 0.0)))
            raise ServiceRefused(status, payload)
        if status >= 400:
            raise ServiceError(status, payload)
        return payload

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # -- RPCs ---------------------------------------------------------------

    def discover(self) -> dict[str, Any]:
        return self._checked("GET", "/")

    def status(self) -> dict[str, Any]:
        return self._checked("GET", "/v1/status")

    def hosts(self) -> dict[str, Any]:
        """``GET /v1/hosts`` — the fleet snapshot (ledger as JSON)."""
        return self._checked("GET", "/v1/hosts")

    def metrics_text(self) -> str:
        """``GET /v1/metrics`` — the Prometheus text page, verbatim."""
        status, raw = self._call_raw("GET", "/v1/metrics")
        if status >= 400:
            raise ServiceError(status, {"detail": raw.decode(errors="replace")})
        return raw.decode()

    def heartbeat(self, host: int, t: float | None = None) -> dict[str, Any]:
        body: dict[str, Any] = {"host": host}
        if t is not None:
            body["t"] = t
        return self._checked("POST", "/v1/heartbeat", body)

    def request_work(self, host: int, t: float | None = None) -> dict[str, Any]:
        body: dict[str, Any] = {"host": host}
        if t is not None:
            body["t"] = t
        return self._checked("POST", "/v1/request-work", body)

    def report_result(
        self,
        token: int,
        valid: bool,
        accounted_cpu_s: float,
        quality: str | None = None,
        t: float | None = None,
    ) -> dict[str, Any]:
        body: dict[str, Any] = {
            "token": token, "valid": valid, "accounted_cpu_s": accounted_cpu_s,
        }
        if quality is not None:
            body["quality"] = quality
        if t is not None:
            body["t"] = t
        return self._checked("POST", "/v1/report-result", body)

    def finalize(self, t: float) -> dict[str, Any]:
        return self._checked("POST", "/v1/finalize", {"t": t})["summary"]


class RemoteInstance:
    """Client-side view of an issued workunit instance.

    Quacks like :class:`~repro.boinc.server.Instance` for everything the
    agent touches (``wu``, ``copy``, ``host_id``) and carries the wire
    token the report must echo.
    """

    __slots__ = ("token", "wu", "host_id", "copy")

    def __init__(self, token: int, wu: "WorkUnit", host_id: int, copy: int) -> None:
        self.token = token
        self.wu = wu
        self.host_id = host_id
        self.copy = copy


class RemoteGridServer:
    """Agent-facing proxy: the GridServer surface, backed by RPCs.

    Drop-in for the ``server`` argument of
    :class:`~repro.boinc.agent.VolunteerAgent` (injected through
    ``VolunteerGridSimulation.run(server_factory=...)``).  Workunit
    payloads come from the *locally* materialized campaign — the wire
    carries only ids — and the campaign identity is verified against the
    service's ``GET /`` discovery before any work flows.
    """

    def __init__(
        self,
        client: SchedulerClient,
        sim: "Simulator",
        workunits: list[tuple["WorkUnit", int]],
        config: "ServerConfig",
        id_base: int = 0,
        **_ignored: Any,
    ) -> None:
        self.client = client
        self.sim = sim
        self.config = config
        self._wu_by_id = {wu.wu_id: wu for wu, _batch in workunits}
        self._all_done = False
        self._summary: dict[str, Any] | None = None
        remote = client.discover()
        if remote.get("wire_protocol") != WIRE_PROTOCOL_VERSION:
            raise ValueError(
                f"wire protocol mismatch: client {WIRE_PROTOCOL_VERSION}, "
                f"service {remote.get('wire_protocol')}"
            )
        campaign = remote.get("campaign", {})
        if campaign.get("n_workunits") != len(self._wu_by_id) or (
            campaign.get("deadline_s") != config.deadline_s
        ):
            raise ValueError(
                "load-generator campaign does not match the served one: "
                f"local {len(self._wu_by_id)} workunits / deadline "
                f"{config.deadline_s}s, service {campaign.get('n_workunits')} "
                f"workunits / deadline {campaign.get('deadline_s')}s"
            )

    # -- the agent-facing surface -------------------------------------------

    @property
    def all_done(self) -> bool:
        return self._all_done

    def request_work(self, host_id: int) -> RemoteInstance | None:
        response = self.client.request_work(host_id, t=self.sim.now)
        self._all_done = bool(response.get("all_done", False))
        assignment = response.get("assignment")
        if assignment is None:
            return None
        return RemoteInstance(
            token=int(assignment["token"]),
            wu=self._wu_by_id[int(assignment["wu"])],
            host_id=host_id,
            copy=int(assignment["copy"]),
        )

    def on_result(
        self,
        instance: RemoteInstance,
        valid: bool,
        accounted_cpu_s: float,
        quality: "ResultQuality | None" = None,
    ) -> None:
        response = self.client.report_result(
            instance.token,
            valid,
            accounted_cpu_s,
            quality=quality.value if quality is not None else None,
            t=self.sim.now,
        )
        self._all_done = bool(response.get("all_done", False))

    # -- campaign wrap-up (CampaignResult surface) ---------------------------

    def finalize_campaign(self, t: float) -> None:
        """Advance the remote clock to the horizon and snapshot the summary.

        Called by ``VolunteerGridSimulation.run`` after the local DES
        drains: trailing server-side deadline timers (which can still fail
        or reissue workunits) fire remotely before the summary is taken.
        """
        self._summary = self.client.finalize(t)
        self._all_done = bool(self._summary["all_done"])

    def _final(self) -> dict[str, Any]:
        if self._summary is None:
            raise RuntimeError(
                "campaign summary not fetched yet — finalize_campaign() runs "
                "at the end of VolunteerGridSimulation.run"
            )
        return self._summary

    @property
    def stats(self) -> ValidationStats:
        return stats_from_dict(self._final()["stats"])

    @property
    def completion_time(self) -> float | None:
        return self._final()["completion_time"]

    @property
    def n_workunits(self) -> int:
        return int(self._final()["n_workunits"])

    @property
    def batch_completion(self) -> dict[int, float]:
        return {
            int(batch): float(t)
            for batch, t in self._final()["batch_completion"].items()
        }

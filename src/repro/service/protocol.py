"""The scheduler service wire protocol (versioned).

Single source of truth for the HTTP/JSON RPC surface of
:class:`repro.service.SchedulerService`: the endpoint table (checked
against the registered routes and the ``docs/service.md`` reference by
``tests/test_docs_consistency.py``), the JSON marshalling of
:class:`~repro.boinc.validator.ValidationStats`, and the refusal payload
shapes.

Every request and response body is a single JSON object.  Mutating RPCs
may carry a campaign timestamp ``t`` (simulated seconds); the service
advances its discrete-event clock to ``t`` before applying the mutation,
which is what makes a wire-driven replay reconcile exactly with an
in-process run (see docs/service.md).
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..boinc.validator import ValidationStats

__all__ = [
    "WIRE_PROTOCOL_VERSION",
    "ENDPOINTS",
    "REFUSAL_REASONS",
    "encode_json",
    "stats_as_dict",
    "stats_from_dict",
    "refusal_payload",
    "error_payload",
]

#: Stamped into ``GET /`` discovery responses; bump on any
#: backwards-incompatible change to a request or response shape.
WIRE_PROTOCOL_VERSION = 1

#: ``(method, path, summary)`` — every route the service registers, in
#: documentation order.  ``tests/test_docs_consistency.py`` asserts this
#: table, the dispatcher's routes and the docs/service.md endpoint table
#: stay mutually consistent.
ENDPOINTS: tuple[tuple[str, str, str], ...] = (
    ("GET", "/", "protocol discovery: version, endpoint table, campaign identity"),
    ("GET", "/v1/status", "campaign snapshot: validation stats, queue depth, "
                          "refusal counters, RPC latency quantiles"),
    ("GET", "/v1/hosts", "fleet snapshot: the per-host behavioral ledger "
                         "(counts, classes, trust trajectory) as JSON"),
    ("GET", "/v1/metrics", "Prometheus text exposition of the service "
                           "metrics registry (RPC latency sketches included)"),
    ("POST", "/v1/request-work", "hand one workunit instance to a host "
                                 "(may 503-refuse with Retry-After)"),
    ("POST", "/v1/report-result", "report a finished instance by token "
                                  "(may 503-refuse with Retry-After)"),
    ("POST", "/v1/heartbeat", "host liveness ping; returns campaign progress "
                              "without advancing the clock"),
    ("POST", "/v1/finalize", "advance the campaign clock to a final time and "
                             "return the campaign summary"),
)

#: Compact JSON text of one wire body.  One encoder for the process:
#: ``json.dumps(..., separators=...)`` would build a new one per call.
encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: Why a 503 happened.  ``outage`` mirrors the in-process
#: :class:`~repro.faults.ServerUnavailable` (a scheduled fault window,
#: counted in ``ValidationStats.refused_rpcs``); ``overload`` means the
#: bounded write queue was full (socket-level backpressure); ``draining``
#: means a graceful shutdown is in progress.
REFUSAL_REASONS = ("outage", "overload", "draining")

#: ValidationStats fields carried over the wire, in dataclass order.
_STATS_FIELDS = (
    "disclosed", "effective", "invalid", "late", "quorum_extra",
    "consumed_cpu_s", "useful_reference_s", "failed", "bad_validated",
    "sabotage_caught", "refused_rpcs",
)


def stats_as_dict(stats: ValidationStats) -> dict[str, Any]:
    """JSON shape of :class:`ValidationStats` (status/finalize payloads)."""
    payload: dict[str, Any] = {f: getattr(stats, f) for f in _STATS_FIELDS}
    payload["by_regime"] = dict(stats.validated_by_regime)
    return payload


def stats_from_dict(payload: Mapping[str, Any]) -> ValidationStats:
    """Rebuild :class:`ValidationStats` from its wire shape.

    Round-trips exactly: ``stats_from_dict(stats_as_dict(s)) == s`` for
    every reachable stats value (int fields stay int, CPU-second fields
    stay float) — the wire-driven replay's reconciliation check depends
    on this being lossless.
    """
    kwargs: dict[str, Any] = {}
    for f in _STATS_FIELDS:
        value = payload[f]
        if f in ("consumed_cpu_s", "useful_reference_s"):
            kwargs[f] = float(value)
        else:
            kwargs[f] = int(value)
    stats = ValidationStats(**kwargs)
    by_regime = payload.get("by_regime", {})
    for regime, count in by_regime.items():
        stats._by_regime[regime] = int(count)
    return stats


def refusal_payload(reason: str, retry_after_s: float, **extra: Any) -> dict[str, Any]:
    """Body of every 503 response (paired with a ``Retry-After`` header)."""
    if reason not in REFUSAL_REASONS:
        raise ValueError(f"unknown refusal reason: {reason!r}")
    payload = {
        "error": "unavailable",
        "reason": reason,
        "retry_after_s": retry_after_s,
    }
    payload.update(extra)
    return payload


def error_payload(error: str, detail: str = "") -> dict[str, Any]:
    """Body of non-refusal error responses (400/404/410/500)."""
    payload: dict[str, Any] = {"error": error}
    if detail:
        payload["detail"] = detail
    return payload

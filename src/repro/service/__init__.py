"""Live scheduler service: the wire front-end on :class:`GridServer`.

The paper's campaign ran on a real BOINC server fielding scheduler RPCs
from the volunteer fleet; this package puts the same request-work /
report-result / heartbeat surface on real sockets:

* :class:`SchedulerService` / :func:`serve_in_thread` — the asyncio
  HTTP/JSON service (single-writer mutation loop, bounded queue,
  socket-level backpressure with 503 + Retry-After);
* :class:`SchedulerClient` / :class:`RemoteGridServer` — the blocking
  client and the agent-facing proxy;
* :func:`replay_campaign` / :func:`storm` — the simulator's
  load-generator modes (deterministic replay over the wire, and an
  open-loop throughput storm).

Wire protocol reference: docs/service.md.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".app": [
        "SchedulerService", "ServiceConfig", "ServiceHandle",
        "serve_in_thread",
    ],
    ".client": [
        "RemoteGridServer", "SchedulerClient", "ServiceError",
        "ServiceRefused",
    ],
    ".loadgen": ["StormReport", "replay_campaign", "storm"],
    ".protocol": ["ENDPOINTS", "WIRE_PROTOCOL_VERSION"],
})

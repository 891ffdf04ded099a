"""Deterministic fault injection for the volunteer grid.

The paper's premise is that a volunteer grid is *unreliable by design*:
10-day deadlines reclaim silently abandoned copies, redundant computing
(the 1.37 factor) absorbs erroneous results, value-range validation
catches corrupted uploads, and checkpoint-restart bounds the damage of
mid-compute kills.  The happy-path simulator only exercised a fraction of
that machinery; this module injects the operational pain on purpose, so
the reactive mechanisms can be tested — and ablated — under load.

Fault classes (Section 5 of the paper plus the volunteer-computing
failure taxonomy of the related trust/sabotage literature):

* **host crashes** (:class:`CrashFaults`) — the device dies mid-compute;
  in-memory progress since the last starting-position checkpoint is lost
  and the host reboots after a short delay;
* **corrupted results** (:class:`CorruptionFaults`) — wrong energies or
  truncated result files; the server's value-range/quorum checks detect
  them and the workunit is reissued;
* **sabotage hosts** (:class:`SabotageFaults`) — a fixed fraction of the
  fleet persistently returns *plausible-but-wrong* values that pass the
  range check; only quorum comparison (or an adaptive-replication spot
  check forcing a quorum partner) can catch them;
* **server outages** (:class:`OutageFaults`) — windows during which every
  RPC (`request_work`, `on_result`) is refused; agents back off
  exponentially with jitter and retry;
* **report loss** (:class:`ReportLossFaults`) — the result upload is lost
  in transit; the agent retries with backoff.

A :class:`FaultPlan` composes any subset of these.  Determinism contract:
every random draw a fault makes comes from a *dedicated* named substream
of the campaign seed (``fault-host``/``fault-outage``), never from the
agents' or hosts' own streams — so an **empty plan is exactly the
fault-free campaign**, bit for bit (same :class:`~repro.boinc.simulator.
CampaignResult`, same event trace), and two campaigns with the same plan
and seed are identical.  ``tests/test_faults.py`` pins both properties.

Observability: injectors emit ``fault.*`` events, the server emits
``server.refuse`` / ``server.workunit_failed`` and agents emit
``agent.retry`` (see docs/observability.md); error-rate counters land in
the campaign's metrics registry and are summarized by
:class:`FaultReport` (the campaign-level error budget).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from .rng import substream
from .units import SECONDS_PER_DAY, SECONDS_PER_HOUR

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .boinc.validator import ValidationStats
    from .obs import MetricsRegistry

__all__ = [
    "ResultQuality",
    "ServerUnavailable",
    "CrashFaults",
    "CorruptionFaults",
    "SabotageFaults",
    "OutageFaults",
    "ReportLossFaults",
    "FaultPlan",
    "HostFaultState",
    "FaultReport",
]


class ResultQuality(enum.Enum):
    """What a returned result actually contains (ground truth).

    The server never sees this directly — it sees what its checks can
    detect: ``ERRONEOUS`` results fail the value-range check (garbage
    magnitudes, truncated files) and are always rejected; ``SABOTAGED``
    results are plausible-but-wrong and pass the range check, so only a
    disagreeing quorum partner exposes them.
    """

    OK = "ok"
    ERRONEOUS = "erroneous"
    SABOTAGED = "sabotaged"


class ServerUnavailable(RuntimeError):
    """An RPC was refused because the server is inside an outage window."""

    def __init__(self, until: float) -> None:
        super().__init__(f"server unavailable until t={until:.0f}s")
        #: campaign time at which the current outage window ends
        self.until = until


# -- fault specs (frozen, composable) --------------------------------------


@dataclass(frozen=True)
class CrashFaults:
    """Host crashes mid-compute, losing un-checkpointed progress."""

    #: mean active compute time between crashes, in days (the hazard only
    #: accrues while the host is actually crunching)
    mtbf_active_days: float = 5.0
    #: mean reboot downtime before computing resumes (seconds)
    reboot_delay_s: float = 1800.0

    def __post_init__(self) -> None:
        if self.mtbf_active_days <= 0 or self.reboot_delay_s < 0:
            raise ValueError("crash MTBF must be > 0 and reboot delay >= 0")


@dataclass(frozen=True)
class CorruptionFaults:
    """A completed result is corrupted in a *detectable* way."""

    #: probability that an otherwise-valid result is corrupted
    prob: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError("corruption probability must be in [0, 1]")


@dataclass(frozen=True)
class SabotageFaults:
    """A fraction of hosts persistently return plausible-but-wrong values."""

    #: fraction of the fleet that sabotages every result it returns
    host_fraction: float = 0.02

    def __post_init__(self) -> None:
        if not 0.0 <= self.host_fraction <= 1.0:
            raise ValueError("saboteur fraction must be in [0, 1]")


@dataclass(frozen=True)
class OutageFaults:
    """Server outage windows during which every RPC is refused."""

    #: number of outage windows over the campaign horizon
    n_windows: int = 2
    #: mean window duration, hours (exponentially distributed)
    mean_duration_h: float = 12.0

    def __post_init__(self) -> None:
        if self.n_windows < 1 or self.mean_duration_h <= 0:
            raise ValueError("need >= 1 window with positive mean duration")


@dataclass(frozen=True)
class ReportLossFaults:
    """The result upload RPC is lost in transit (agent retries)."""

    #: probability that any one report attempt is lost
    prob: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob < 1.0:
            raise ValueError("report-loss probability must be in [0, 1)")


class HostFaultState:
    """Per-host fault state, derived deterministically from the plan.

    Holds the host's dedicated fault RNG (``substream(seed, "fault-host",
    host_id)``) plus the resolved per-host knobs.  Backoff jitter for
    retries also draws from this stream, so retry timing never perturbs
    the host's behavioural stream.
    """

    __slots__ = (
        "rng",
        "crash_mtbf_s",
        "reboot_delay_s",
        "corrupt_prob",
        "saboteur",
        "report_loss_prob",
    )

    def __init__(
        self,
        rng: np.random.Generator,
        crash_mtbf_s: float | None = None,
        reboot_delay_s: float = 1800.0,
        corrupt_prob: float = 0.0,
        saboteur: bool = False,
        report_loss_prob: float = 0.0,
    ) -> None:
        self.rng = rng
        self.crash_mtbf_s = crash_mtbf_s
        self.reboot_delay_s = reboot_delay_s
        self.corrupt_prob = corrupt_prob
        self.saboteur = saboteur
        self.report_loss_prob = report_loss_prob


@dataclass(frozen=True)
class FaultPlan:
    """A composable, seeded description of what goes wrong, and how often.

    ``FaultPlan.none()`` is the canonical empty plan: no injector runs, no
    extra RNG stream is consumed, and the campaign is bit-identical to one
    with no plan at all.  Specs compose freely::

        plan = FaultPlan(
            corruption=CorruptionFaults(prob=0.1),
            outages=OutageFaults(n_windows=3, mean_duration_h=8.0),
            max_reissues=12,
        )
        scaled_phase1(config=CampaignConfig(faults=plan)).run()
    """

    crashes: CrashFaults | None = None
    corruption: CorruptionFaults | None = None
    sabotage: SabotageFaults | None = None
    outages: OutageFaults | None = None
    report_loss: ReportLossFaults | None = None
    #: bound on per-workunit reissues before the workunit is declared
    #: ``failed`` (terminal) and the campaign degrades gracefully;
    #: None keeps the server's default (unbounded)
    max_reissues: int | None = None

    def __post_init__(self) -> None:
        if self.max_reissues is not None and self.max_reissues < 0:
            raise ValueError("max_reissues must be >= 0 (or None)")

    @classmethod
    def none(cls) -> "FaultPlan":
        """The empty plan: inject nothing, change nothing."""
        return cls()

    @property
    def enabled(self) -> bool:
        """Whether any injector (or the reissue bound) is active."""
        return any(
            spec is not None
            for spec in (
                self.crashes,
                self.corruption,
                self.sabotage,
                self.outages,
                self.report_loss,
            )
        ) or self.max_reissues is not None

    @property
    def injects_host_faults(self) -> bool:
        """Whether any host-side injector (or retry machinery) is needed."""
        return self.enabled

    def with_(self, **overrides: Any) -> "FaultPlan":
        """A copy of this plan with fields replaced."""
        return replace(self, **overrides)

    # -- derivation (all draws from dedicated named substreams) ------------

    def host_state(self, seed: int, host_id: int) -> HostFaultState | None:
        """The per-host fault state, or None for an empty plan.

        Host ``i`` always derives the same state from the same (seed,
        plan): the saboteur draw is the first draw of the host's dedicated
        ``fault-host`` substream, so fleet composition is stable under
        growth exactly like the host population itself.
        """
        if not self.injects_host_faults:
            return None
        rng = substream(seed, "fault-host", host_id)
        saboteur = False
        if self.sabotage is not None:
            saboteur = bool(rng.random() < self.sabotage.host_fraction)
        crashes = self.crashes
        return HostFaultState(
            rng=rng,
            crash_mtbf_s=(
                crashes.mtbf_active_days * SECONDS_PER_DAY
                if crashes is not None
                else None
            ),
            reboot_delay_s=(
                crashes.reboot_delay_s if crashes is not None else 1800.0
            ),
            corrupt_prob=(
                self.corruption.prob if self.corruption is not None else 0.0
            ),
            saboteur=saboteur,
            report_loss_prob=(
                self.report_loss.prob if self.report_loss is not None else 0.0
            ),
        )

    def outage_windows(
        self, seed: int, horizon_s: float
    ) -> tuple[tuple[float, float], ...]:
        """Disjoint, sorted ``(start, end)`` outage windows for a campaign.

        Starts are uniform over the first 90% of the horizon (an outage
        beginning at the horizon edge would be invisible); durations are
        exponential around the spec's mean; overlapping windows merge.
        """
        spec = self.outages
        if spec is None:
            return ()
        rng = substream(seed, "fault-outage", 0)
        starts = np.sort(rng.random(spec.n_windows)) * horizon_s * 0.9
        durations = rng.exponential(
            spec.mean_duration_h * SECONDS_PER_HOUR, size=spec.n_windows
        )
        merged: list[tuple[float, float]] = []
        for start, dur in zip(starts, durations):
            end = min(float(start + dur), horizon_s)
            start = float(start)
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            elif end > start:
                merged.append((start, end))
        return tuple(merged)

    # -- CLI spec ----------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI fault spec.

        Comma-separated ``key=value`` entries::

            crash=5            host crash MTBF of 5 active compute days
            corrupt=0.05       5% of valid results corrupted (detectable)
            sabotage=0.02      2% of hosts return plausible-wrong values
            outage=2x12        2 outage windows, ~12 h mean duration
            loss=0.1           10% of report RPCs lost (agent retries)
            maxreissue=10      fail a workunit after 10 reissues

        ``outage=N`` alone uses the default 12 h mean.  An empty spec is
        :meth:`FaultPlan.none`.  A ``ValueError`` names the offending key.
        """
        plan = cls.none()
        spec = spec.strip()
        if not spec:
            return plan
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep:
                raise ValueError(f"fault spec entry {part!r} is not key=value")
            key = key.strip().lower()
            value = value.strip()
            try:
                if key == "crash":
                    plan = plan.with_(
                        crashes=CrashFaults(mtbf_active_days=float(value))
                    )
                elif key == "corrupt":
                    plan = plan.with_(
                        corruption=CorruptionFaults(prob=float(value))
                    )
                elif key == "sabotage":
                    plan = plan.with_(
                        sabotage=SabotageFaults(host_fraction=float(value))
                    )
                elif key == "outage":
                    n, x, hours = value.partition("x")
                    plan = plan.with_(outages=OutageFaults(
                        n_windows=int(n),
                        mean_duration_h=float(hours) if x else 12.0,
                    ))
                elif key == "loss":
                    plan = plan.with_(
                        report_loss=ReportLossFaults(prob=float(value))
                    )
                elif key == "maxreissue":
                    plan = plan.with_(max_reissues=int(value))
                else:
                    raise ValueError(
                        "unknown fault spec key (expected crash, corrupt, "
                        "sabotage, outage, loss or maxreissue)"
                    )
            except ValueError as exc:
                raise ValueError(f"fault spec entry {key!r}: {exc}") from None
        return plan

    def describe(self) -> str:
        """One line summarizing the active injectors."""
        if not self.enabled:
            return "no faults"
        parts = []
        if self.crashes is not None:
            parts.append(f"crash mtbf {self.crashes.mtbf_active_days:g}d")
        if self.corruption is not None:
            parts.append(f"corrupt {self.corruption.prob:.0%}")
        if self.sabotage is not None:
            parts.append(f"sabotage {self.sabotage.host_fraction:.0%} of hosts")
        if self.outages is not None:
            parts.append(
                f"{self.outages.n_windows} outages "
                f"~{self.outages.mean_duration_h:g}h"
            )
        if self.report_loss is not None:
            parts.append(f"report loss {self.report_loss.prob:.0%}")
        if self.max_reissues is not None:
            parts.append(f"fail after {self.max_reissues} reissues")
        return ", ".join(parts)


# -- error budget -----------------------------------------------------------

#: fault counter names kept in the campaign metrics registry
#: (``fault.<kind>``), incremented by the injectors and the server
FAULT_COUNTER_KINDS = (
    "crashes",
    "corrupted",
    "sabotaged",
    "report_lost",
    "refused_rpcs",
    "retries",
)


@dataclass(frozen=True)
class FaultReport:
    """The campaign-level error budget.

    A degraded campaign does not hang: workunits whose reissue budget is
    exhausted become terminally ``failed``, the campaign completes with
    the remainder, and this report says what was injected, what the
    defences caught, and what slipped through.
    """

    plan: "FaultPlan"
    #: injected/observed fault counts by kind (see FAULT_COUNTER_KINDS)
    injected: dict[str, int] = field(default_factory=dict)
    #: workunits terminally failed after exhausting the reissue budget
    workunits_failed: int = 0
    #: workunits validated from plausible-but-wrong (sabotaged) results
    bad_validated: int = 0
    #: sabotaged results exposed by a disagreeing quorum
    sabotage_caught: int = 0
    #: detectable-invalid results rejected by the range/quorum checks
    invalid_rejected: int = 0
    #: workunits validated on genuine results
    validated: int = 0
    total_workunits: int = 0

    @classmethod
    def collect(
        cls,
        plan: "FaultPlan",
        stats: "ValidationStats",
        registry: "MetricsRegistry",
        total_workunits: int,
    ) -> "FaultReport":
        injected = {}
        for kind in FAULT_COUNTER_KINDS:
            name = f"fault.{kind}"
            injected[kind] = int(registry.get(name).value) if name in registry else 0
        # Outage-window refusals are counted authoritatively by the server
        # (`server.refuse` -> ValidationStats.refused_rpcs); agent-side
        # telemetry never sees them, so without this the error budget
        # would report 0 refused RPCs for every outage campaign.
        injected["refused_rpcs"] += int(stats.refused_rpcs)
        return cls(
            plan=plan,
            injected=injected,
            workunits_failed=stats.failed,
            bad_validated=stats.bad_validated,
            sabotage_caught=stats.sabotage_caught,
            invalid_rejected=stats.invalid,
            validated=stats.effective - stats.bad_validated,
            total_workunits=total_workunits,
        )

    @property
    def failed_fraction(self) -> float:
        """Fraction of the campaign's workunits terminally failed."""
        if self.total_workunits == 0:
            return 0.0
        return self.workunits_failed / self.total_workunits

    @property
    def bad_validated_fraction(self) -> float:
        """Fraction of *validated* workunits whose science is wrong."""
        effective = self.validated + self.bad_validated
        if effective == 0:
            return 0.0
        return self.bad_validated / effective

    def as_dict(self) -> dict[str, Any]:
        return {
            "plan": self.plan.describe(),
            "injected": dict(self.injected),
            "workunits_failed": self.workunits_failed,
            "failed_fraction": self.failed_fraction,
            "bad_validated": self.bad_validated,
            "bad_validated_fraction": self.bad_validated_fraction,
            "sabotage_caught": self.sabotage_caught,
            "invalid_rejected": self.invalid_rejected,
            "validated": self.validated,
            "total_workunits": self.total_workunits,
        }

    def rows(self) -> list[list[str]]:
        """Human-readable (quantity, value) rows for the CLI table."""
        rows = [["fault plan", self.plan.describe()]]
        for kind in FAULT_COUNTER_KINDS:
            if self.injected.get(kind):
                rows.append([f"injected: {kind}", str(self.injected[kind])])
        rows += [
            ["invalid results rejected", str(self.invalid_rejected)],
            ["sabotage caught by quorum", str(self.sabotage_caught)],
            ["bad validations (slipped through)",
             f"{self.bad_validated} ({self.bad_validated_fraction:.1%})"],
            ["workunits failed (reissue budget)",
             f"{self.workunits_failed} ({self.failed_fraction:.1%})"],
            ["workunits validated",
             f"{self.validated + self.bad_validated}/{self.total_workunits}"],
        ]
        return rows


"""Capacity-division policies for the multi-campaign grid.

A policy answers one question: *when a volunteer asks for work, which
campaign should serve it first?*  It returns a preference **ordering**
rather than a single pick, because the top choice may have nothing
issuable right now (its fresh queue drained, every copy outstanding) —
the router walks the ordering until someone hands out an instance, so no
volunteer ever idles while any campaign still has work.

Three policies, mirroring how shared grids actually divide capacity:

* :class:`FairShare` — weighted max-min: serve the campaign furthest
  *below* its weighted share of the reference work issued so far.  With
  the weight schedule of the paper's three phases this *is* the WCG
  prioritization mechanism (HCMD at 7% → ramp → 45%).
* :class:`StrictPriority` — higher ``priority`` always wins; ties fall
  back to fair share among equals, so equal-priority campaigns do not
  starve each other.
* :class:`WeightedLottery` — each request holds a lottery with tickets
  proportional to current weights (the classic lottery-scheduling
  construction); stochastic but deterministic given the grid seed, with
  starvation-freedom in expectation.

Every ordering is deterministic: ties break by registration order, and
the lottery draws from the dedicated ``lottery`` substream of the grid
seed, so a replay with the same seed issues identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, Sequence

import numpy as np

from ..rng import substream

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..boinc.simulator import CampaignRuntime

__all__ = [
    "SchedulingPolicy",
    "FairShare",
    "StrictPriority",
    "WeightedLottery",
    "make_policy",
]


class SchedulingPolicy(Protocol):
    """The pluggable policy surface the router calls."""

    #: the spec string :func:`make_policy` resolves to this class
    name: str

    def order(
        self, candidates: Sequence["CampaignRuntime"], week: float
    ) -> list["CampaignRuntime"]:
        """Candidates in descending service preference.

        ``candidates`` are the currently admitted, undrained,
        uncompleted campaigns in registration order; ``week`` is the
        project week (fractional), the input to per-campaign weight
        schedules.  Must return a permutation of ``candidates``.
        """
        ...  # pragma: no cover - protocol


def _deficit(runtime: "CampaignRuntime", week: float) -> float:
    """Weighted-fair-share sort key: normalized work received so far.

    The campaign with the *smallest* issued-work-per-unit-weight is the
    one furthest below its entitled share and is served first.  Weights
    are evaluated at the current week, so a weight schedule reshapes the
    allocation mid-run without touching already-issued work.
    """
    return runtime.issued_reference_s / runtime.campaign.weight_at(week)


class FairShare:
    """Weighted max-min over cumulative issued reference work."""

    name = "fair-share"

    def order(
        self, candidates: Sequence["CampaignRuntime"], week: float
    ) -> list["CampaignRuntime"]:
        return sorted(candidates, key=lambda rt: (_deficit(rt, week), rt.index))


class StrictPriority:
    """Higher priority always wins; fair share breaks priority ties."""

    name = "strict-priority"

    def order(
        self, candidates: Sequence["CampaignRuntime"], week: float
    ) -> list["CampaignRuntime"]:
        return sorted(
            candidates,
            key=lambda rt: (-rt.campaign.priority, _deficit(rt, week), rt.index),
        )


class WeightedLottery:
    """Ticket lottery per request, tickets proportional to weight."""

    name = "weighted-lottery"

    def __init__(self, seed: int) -> None:
        self._rng = substream(seed, "lottery", 0)

    def order(
        self, candidates: Sequence["CampaignRuntime"], week: float
    ) -> list["CampaignRuntime"]:
        if len(candidates) == 1:
            return list(candidates)
        # Successive draws without replacement (a "perturbed lottery"):
        # position k goes to the winner among the not-yet-placed, so the
        # full ordering — not just the head — is weight-proportional.
        remaining = list(candidates)
        weights = np.array(
            [rt.campaign.weight_at(week) for rt in remaining], dtype=np.float64
        )
        ordered: list["CampaignRuntime"] = []
        while len(remaining) > 1:
            p = weights / weights.sum()
            pick = int(self._rng.choice(len(remaining), p=p))
            ordered.append(remaining.pop(pick))
            weights = np.delete(weights, pick)
        ordered.append(remaining[0])
        return ordered


def make_policy(spec: str, seed: int) -> SchedulingPolicy:
    """Resolve a policy spec string (see :data:`repro.multi.POLICIES`)."""
    if spec == "fair-share":
        return FairShare()
    if spec == "strict-priority":
        return StrictPriority()
    if spec == "weighted-lottery":
        return WeightedLottery(seed)
    raise ValueError(
        f"unknown scheduling policy {spec!r}; expected one of "
        "'fair-share', 'strict-priority', 'weighted-lottery'"
    )

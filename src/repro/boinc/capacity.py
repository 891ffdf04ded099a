"""Task-server capacity model (Section 3.2).

The ~10 h workunit target "is also constrained by the capacity of the
servers at World Community Grid to distribute the work to volunteers
devices.  It determines the rate of transactions with World Community Grid
servers" — referencing the BOINC team's task-server performance study
(Anderson, Korpela, Walton 2005), which measured a task server dispatching
on the order of 8.8 million results per day on commodity hardware.

This model turns a campaign configuration (active devices, per-result
device time, transactions per result cycle) into a server transaction
rate and the smallest workunit duration the server can sustain — the
quantitative backing for the paper's statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..units import SECONDS_PER_DAY, SECONDS_PER_HOUR

__all__ = ["ServerCapacityModel"]


@dataclass(frozen=True)
class ServerCapacityModel:
    """Transaction-rate capacity of the workunit server.

    ``max_results_per_day`` follows the BOINC task-server study's
    measured throughput; ``transactions_per_result`` counts the scheduler
    round-trips one result costs (work request, input download
    acknowledgement, output upload, completion report).
    """

    max_results_per_day: float = 8_800_000.0
    transactions_per_result: float = 4.0
    #: headroom factor: operators keep sustained load below capacity
    target_utilization: float = 0.7

    def __post_init__(self) -> None:
        if self.max_results_per_day <= 0:
            raise ValueError("capacity must be positive")
        if self.transactions_per_result <= 0:
            raise ValueError("transactions per result must be positive")
        if not 0 < self.target_utilization <= 1:
            raise ValueError("target utilization must be in (0, 1]")

    # -- load --------------------------------------------------------------

    def results_per_day(
        self, n_active_devices: float, device_seconds_per_result: float
    ) -> float:
        """Results the fleet returns per day at steady state."""
        if n_active_devices < 0:
            raise ValueError("device count must be non-negative")
        if device_seconds_per_result <= 0:
            raise ValueError("device time per result must be positive")
        return n_active_devices * SECONDS_PER_DAY / device_seconds_per_result

    def transactions_per_day(
        self, n_active_devices: float, device_seconds_per_result: float
    ) -> float:
        return (
            self.results_per_day(n_active_devices, device_seconds_per_result)
            * self.transactions_per_result
        )

    def utilization(
        self, n_active_devices: float, device_seconds_per_result: float
    ) -> float:
        """Fraction of the server's result throughput the fleet consumes."""
        return (
            self.results_per_day(n_active_devices, device_seconds_per_result)
            / self.max_results_per_day
        )

    def sustainable(
        self, n_active_devices: float, device_seconds_per_result: float
    ) -> bool:
        """Whether the load stays under the operator's headroom target."""
        return (
            self.utilization(n_active_devices, device_seconds_per_result)
            <= self.target_utilization
        )

    # -- sizing --------------------------------------------------------------

    def min_workunit_hours(
        self, n_active_devices: float, net_speed_down: float
    ) -> float:
        """Smallest reference workunit duration the server sustains.

        A workunit of ``h`` reference-hours occupies a device for
        ``h x net_speed_down`` wall-hours; shrinking ``h`` raises the
        transaction rate proportionally.  Inverts the utilization target.
        """
        if n_active_devices <= 0:
            return 0.0
        if net_speed_down <= 0:
            raise ValueError("speed-down must be positive")
        sustainable_results = self.max_results_per_day * self.target_utilization
        device_seconds = n_active_devices * SECONDS_PER_DAY / sustainable_results
        return device_seconds / net_speed_down / SECONDS_PER_HOUR

    def max_devices(
        self, device_seconds_per_result: float
    ) -> float:
        """Largest fleet the server sustains at this per-result time."""
        sustainable_results = self.max_results_per_day * self.target_utilization
        return sustainable_results * device_seconds_per_result / SECONDS_PER_DAY

    def check_rows(
        self, n_devices: float, workunit_hours: float, net_speed_down: float
    ) -> list[list[Any]]:
        """The ``repro-hcmd capacity`` table: the load ``n_devices`` put
        on the server at one workunit size, and the smallest size it
        sustains."""
        device_s = workunit_hours * SECONDS_PER_HOUR * net_speed_down
        return [
            ["devices", f"{n_devices:,.0f}"],
            ["workunit target", f"{workunit_hours:g} reference hours"],
            ["results per day", f"{self.results_per_day(n_devices, device_s):,.0f}"],
            ["server utilization", f"{self.utilization(n_devices, device_s):.1%}"],
            ["sustainable", "yes" if self.sustainable(n_devices, device_s) else "NO"],
            ["minimum sustainable workunit",
             f"{self.min_workunit_hours(n_devices, net_speed_down):.2f} h"],
        ]

"""Multi-campaign grid benchmark — scheduling reproduces Section 5.1.

Three phases, one JSON verdict (``BENCH_multicampaign.json``):

* **three-phase prioritization** — the canonical scenario
  (:func:`repro.multi.three_phase_scenario`): a fixed fleet (flat
  population, constant share schedule), an HCMD cross-docking campaign
  whose fair-share weight steps control (7%) → ramp → full power (45%),
  and a hungry background screening campaign holding the complement.
  Enforced: the HCMD campaign's mean daily consumed CPU in the
  full-power phase is **≥ 2×** its control-phase mean — the paper's
  phase-II throughput inflection, attributable to the scheduler alone
  because the fleet never changes.
* **fair-share convergence** — two hungry screening campaigns at
  constant weights 1:3 on one fleet.  Enforced: each campaign's
  long-run issued share lands within **10% (absolute)** of its weight
  share, and the shares exhaust the grid (work conservation).
* **single-campaign parity** — a grid registering exactly one
  cross-docking campaign (N=1 on the router) must reproduce the
  monolithic ``scaled_phase1`` engine under full tracing: equal
  ``ValidationStats``, equal completion time, equal telemetry series,
  and an event trace equal event for event once the router's ``grid.*``
  events and the ``campaign=`` stamp are dropped.

Smoke mode: set ``REPRO_BENCH_SMOKE=1`` to shrink the scenario fleet and
databases; every guard still runs.
"""

from __future__ import annotations

import os

import numpy as np

from repro.boinc.simulator import scaled_phase1
from repro.multi import (
    Campaign,
    GridConfig,
    MultiGridSimulation,
    constant_share,
    flat_population,
    three_phase_scenario,
)
from repro.obs import RingSink, Tracer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: three-phase scenario size (full = the canonical defaults)
SCENARIO = (
    dict(scale=25.0, n_proteins=8, n_ligands=4_000, n_hosts_peak=12)
    if SMOKE
    else {}
)
#: phase windows in days: control ends week 9, full power spans the
#: post-ramp weeks 13..26 (constants.CONTROL_PERIOD_WEEKS / ramp 4)
CONTROL_DAYS = slice(0, 9 * 7)
FULL_POWER_DAYS = slice(13 * 7, 26 * 7)
RAMP_DAYS = slice(9 * 7, 13 * 7)
#: the acceptance bound on the phase-II inflection
MIN_INFLECTION = 2.0

#: fair-share convergence phase
FAIR_WEIGHTS = (1.0, 3.0)
FAIR_LIGANDS = 2_000 if SMOKE else 6_000
FAIR_HORIZON_WEEKS = 6.0 if SMOKE else 12.0
FAIR_TOLERANCE = 0.10

#: parity phase (the tier-1 test campaign, full tracing)
PARITY = dict(scale=900.0, n_proteins=5)
PARITY_SEED = 42


def _fair_share_grid() -> GridConfig:
    """Two screening campaigns, both hungry for the whole horizon."""
    return GridConfig(
        campaigns=(
            Campaign.screening(
                "light", n_ligands=FAIR_LIGANDS, mean_hours=1.0,
                batch_size=100, weight=FAIR_WEIGHTS[0],
            ),
            Campaign.screening(
                "heavy", n_ligands=FAIR_LIGANDS, mean_hours=1.0,
                batch_size=100, weight=FAIR_WEIGHTS[1],
            ),
        ),
        policy="fair-share",
        seed=13,
        horizon_weeks=FAIR_HORIZON_WEEKS,
        n_hosts_peak=12,
        share_schedule=constant_share(),
        population=flat_population(),
    )


def test_multicampaign_benchmark(record_bench_json, record_artifact):
    # -- phase 1: the three-phase prioritization inflection -----------------
    grid = three_phase_scenario(**SCENARIO)
    outcome = MultiGridSimulation(grid).run()
    daily = outcome["hcmd"].telemetry.daily_cpu_s
    control = float(daily[CONTROL_DAYS].mean())
    ramp = float(daily[RAMP_DAYS].mean())
    full_power = float(daily[FULL_POWER_DAYS].mean())
    inflection = full_power / control if control > 0 else float("inf")

    assert control > 0.0, "HCMD received no work during the control phase"
    assert inflection >= MIN_INFLECTION, (
        f"prioritization produced only {inflection:.2f}x the control-phase "
        f"throughput (need >= {MIN_INFLECTION}x)"
    )
    # the inflection is the scheduler's: the fleet is fixed by construction
    assert outcome["hcmd"].n_hosts == grid.n_hosts_peak

    # -- phase 2: fair share converges to the weight vector -----------------
    fair = MultiGridSimulation(_fair_share_grid()).run()
    shares = fair.issued_share()
    weight_sum = sum(FAIR_WEIGHTS)
    targets = {
        "light": FAIR_WEIGHTS[0] / weight_sum,
        "heavy": FAIR_WEIGHTS[1] / weight_sum,
    }
    for name, target in targets.items():
        assert abs(shares[name] - target) <= FAIR_TOLERANCE, (
            f"campaign {name!r} share {shares[name]:.3f} strayed more than "
            f"{FAIR_TOLERANCE} from its weight share {target:.3f}"
        )
    assert abs(sum(shares.values()) - 1.0) < 1e-9  # work conservation

    # -- phase 3: single registered campaign == monolithic engine -----------
    # N=1 on the router: the trace is the monolithic one plus the router's
    # own ``grid.*`` events and the ``campaign=`` stamp, so compare modulo
    # those.
    def run_traced(run):
        ring = RingSink(capacity=2_000_000)
        result = run(Tracer(sink=ring))
        return result, [
            (
                e.etype, e.t_sim,
                {k: v for k, v in e.fields.items() if k != "campaign"},
            )
            for e in ring.events
            if not e.etype.startswith("grid.")
        ]

    mono, mono_trace = run_traced(
        lambda tr: scaled_phase1(seed=PARITY_SEED, tracer=tr, **PARITY).run()
    )
    single = GridConfig(
        campaigns=(Campaign.cross_docking("hcmd", **PARITY),),
        seed=PARITY_SEED,
        horizon_weeks=40.0,
    )
    multi_result, multi_trace = run_traced(
        lambda tr: MultiGridSimulation(single, tracer=tr).run()
    )
    routed = multi_result["hcmd"]

    assert routed.server.stats == mono.server.stats
    assert routed.completion_time == mono.completion_time
    np.testing.assert_array_equal(
        routed.telemetry.daily_cpu_s, mono.telemetry.daily_cpu_s
    )
    assert multi_trace == mono_trace, (
        "single-campaign grid trace diverged from the monolithic engine"
    )
    parity = True  # the asserts above are the gate

    payload = {
        "smoke": SMOKE,
        "three_phase": {
            "scenario": SCENARIO if SCENARIO else "canonical defaults",
            "n_hosts": outcome["hcmd"].n_hosts,
            "control_daily_cpu_s": control,
            "ramp_daily_cpu_s": ramp,
            "full_power_daily_cpu_s": full_power,
            "inflection": inflection,
            "min_inflection": MIN_INFLECTION,
            "target_met": inflection >= MIN_INFLECTION,
            "hcmd_completion_s": outcome["hcmd"].completion_time,
            "issued_share": outcome.issued_share(),
        },
        "fair_share": {
            "weights": dict(zip(("light", "heavy"), FAIR_WEIGHTS)),
            "target_shares": targets,
            "measured_shares": shares,
            "tolerance": FAIR_TOLERANCE,
            "horizon_weeks": FAIR_HORIZON_WEEKS,
            "target_met": all(
                abs(shares[n] - t) <= FAIR_TOLERANCE
                for n, t in targets.items()
            ),
        },
        "single_campaign_parity": {
            "bit_identical": parity,
            "trace_events": len(mono_trace),
            "validated": mono.server.stats.effective,
            "completion_time_s": mono.completion_time,
        },
    }
    record_bench_json("multicampaign", payload, experiment="multicampaign")

    record_artifact(
        "bench_multicampaign",
        "\n".join([
            "multi-campaign grid — scheduling benchmark",
            f"mode                      : {'smoke' if SMOKE else 'full'}",
            f"fleet (fixed)             : {outcome['hcmd'].n_hosts} hosts",
            f"control daily CPU (s)     : {control:,.0f}",
            f"ramp daily CPU (s)        : {ramp:,.0f}",
            f"full-power daily CPU (s)  : {full_power:,.0f}",
            f"phase-II inflection       : {inflection:.2f}x "
            f"(need >= {MIN_INFLECTION}x)",
            f"fair-share 1:3 split      : "
            f"{shares['light']:.3f} / {shares['heavy']:.3f} "
            f"(targets {targets['light']:.3f} / {targets['heavy']:.3f}, "
            f"tol {FAIR_TOLERANCE})",
            f"single-campaign parity    : "
            f"{'bit-identical' if parity else 'DIVERGED'} "
            f"({len(mono_trace):,} trace events compared)",
        ]),
    )

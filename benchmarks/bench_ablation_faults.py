"""Ablation — fault injection vs campaign redundancy (Section 5.2).

The paper's validation pipeline (line counts, value ranges, quorum
comparison) exists because volunteer results arrive corrupted: "check if
the values in the file are within a valid range".  This bench sweeps the
client-side corruption probability and measures what the defences cost —
every corrupted result is caught and reissued, so redundancy (results
disclosed per effective result) must rise monotonically with the fault
rate while validated coverage stays complete.
"""

from __future__ import annotations

import os

from repro.analysis.report import render_table
from repro.boinc import CampaignConfig, scaled_phase1
from repro.faults import CorruptionFaults, FaultPlan

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: (scale, n_proteins): the smoke tier shrinks the campaign ~3x
CAMPAIGN = (900, 5) if SMOKE else (400, 8)

CORRUPTION_PROBS = (0.0, 0.1, 0.3)


def test_corruption_rate_sweep(record_artifact, record_data, benchmark):
    scale, n_proteins = CAMPAIGN

    def sweep():
        out = {}
        for prob in CORRUPTION_PROBS:
            plan = (
                FaultPlan.none()
                if prob == 0.0
                else FaultPlan(corruption=CorruptionFaults(prob=prob))
            )
            sim = scaled_phase1(
                scale=scale, n_proteins=n_proteins,
                config=CampaignConfig(faults=plan),
            )
            result = sim.run()
            m = result.metrics()
            report = result.fault_report()
            out[prob] = {
                "redundancy": m.redundancy,
                "useful_fraction": m.useful_result_fraction,
                "invalid": result.server.stats.invalid,
                "injected": report.injected.get("corrupted", 0),
                "validated": report.validated,
                "total": report.total_workunits,
                "completion_weeks": result.completion_weeks,
            }
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    rows = [
        [
            f"{prob:.1f}",
            f"{r['redundancy']:.3f}",
            f"{r['useful_fraction']:.3f}",
            str(r["injected"]),
            str(r["invalid"]),
            f"{r['validated']}/{r['total']}",
        ]
        for prob, r in results.items()
    ]
    record_artifact(
        "ablation_faults_corruption",
        "client corruption probability vs redundancy factor (every\n"
        "corrupted upload fails the Section 5.2 range check and is\n"
        "reissued, so the defence cost shows up as extra disclosed\n"
        "results per effective result):\n"
        + render_table(
            [
                "P(corrupt)", "redundancy", "useful fraction",
                "injected", "rejected", "validated",
            ],
            rows,
        ),
    )
    record_data(
        "ablation_faults_corruption",
        {str(p): r for p, r in results.items()},
    )

    probs = list(CORRUPTION_PROBS)
    # Corruption injected -> caught -> reissued: monotone defence cost.
    for lo, hi in zip(probs, probs[1:]):
        assert results[hi]["redundancy"] > results[lo]["redundancy"]
        assert results[hi]["useful_fraction"] < results[lo]["useful_fraction"]
        assert results[hi]["invalid"] > results[lo]["invalid"]
    # The defences keep coverage complete: every workunit still validates.
    for r in results.values():
        assert r["validated"] == r["total"]
        assert r["completion_weeks"] is not None

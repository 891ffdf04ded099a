"""Ablation — fixed quorum vs BOINC-style adaptive replication.

Phase I paid a 1.37x redundancy factor, dominated by the quorum-comparison
era.  The BOINC middleware phase II moves to (Section 8) ships adaptive
replication: hosts with a clean record get single copies, spot-checked
occasionally.  This bench measures how much volunteer capacity that
recovers on the same campaign.
"""

from __future__ import annotations

import pytest

from repro.analysis.report import render_table
from repro.boinc.server import ServerConfig
from repro.boinc.simulator import scaled_phase1
from repro.boinc.validator import AdaptiveReplication, ValidationPolicy
from repro.units import weeks


def _config(adaptive):
    return ServerConfig(
        validation=ValidationPolicy(switch_time=weeks(16.0)), adaptive=adaptive
    )


def test_adaptive_replication(record_artifact, benchmark):
    def run_all():
        out = {}
        for label, adaptive in (
            ("fixed quorum (phase I)", None),
            ("adaptive, trust after 5", AdaptiveReplication(5, 0.1)),
            ("adaptive, trust after 20", AdaptiveReplication(20, 0.1)),
        ):
            sim = scaled_phase1(
                scale=150, n_proteins=16, server=_config(adaptive)
            )
            out[label] = sim.run()
        return out

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for label, res in results.items():
        m = res.metrics()
        by_regime = res.server.stats.validated_by_regime
        rows.append([
            label,
            f"{m.redundancy:.3f}",
            f"{m.useful_result_fraction:.1%}",
            f"{res.completion_weeks:.1f}" if res.completion_weeks else "-",
            by_regime.get("adaptive", 0),
        ])
    record_artifact(
        "ablation_adaptive_replication",
        render_table(
            ["policy", "redundancy", "useful results",
             "completion (weeks)", "adaptive validations"],
            rows,
        ),
    )

    fixed = results["fixed quorum (phase I)"].metrics()
    eager = results["adaptive, trust after 5"].metrics()
    cautious = results["adaptive, trust after 20"].metrics()
    # Trusting hosts trims redundancy; trusting sooner trims more.
    assert eager.redundancy < fixed.redundancy - 0.02
    assert eager.redundancy <= cautious.redundancy + 0.02
    # The freed capacity shows up as earlier (or equal) completion.
    assert (
        results["adaptive, trust after 5"].completion_weeks
        <= results["fixed quorum (phase I)"].completion_weeks + 1.0
    )

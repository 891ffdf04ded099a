"""Self-test of the end-to-end benchmark (smoke tier, well under a minute).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Checks plumbing and schema, never speed: every workload runs once
untraced and once traced at ~10x smaller sizes, two at a time.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="session")
def smoke_runs() -> dict:
    """(workload, trace) -> finished driver-mode run, all at smoke size."""
    jobs = [(w, t) for w in catalog.WORKLOADS for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        done = pool.map(
            lambda job: run("--workload", job[0], "--smoke", "--seconds", "0.3",
                            "--trace", str(job[1])),
            jobs,
        )
        return dict(zip(jobs, done))


def test_manifest_matches_catalog():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["workloads"] == [
        {"name": name, "why": spec["why"]} for name, spec in catalog.WORKLOADS.items()
    ]
    assert manifest["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in catalog.END_TO_END
    ]
    assert manifest["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in catalog.PER_LAYER
    ]
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(
        UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"]
    )
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert set(catalog.EXACT_COUNTS) <= {n for n, _, _ in catalog.PER_LAYER}


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(smoke_runs, workload):
    done = smoke_runs[workload, 0]
    assert done.returncode == 0, done.stderr[-2000:]
    result = result_of(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {n: u for n, u, _, _ in catalog.END_TO_END}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", list(catalog.WORKLOADS))
def test_traced_run_reports_every_layer_and_covers_the_budget(smoke_runs, workload):
    done = smoke_runs[workload, 1]
    assert done.returncode == 0, done.stderr[-2000:]
    result = result_of(done)
    assert result["correct"] is True and result["failed"] == 0
    expected = {n: u for n, u, _ in catalog.PER_LAYER}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    value = {n: m["value"] for n, m in result["metrics"].items()}
    assert value["budget.covered_frac"] >= 0.95
    # the workload's own throughput name is live, the other aliases idle
    aliases = {spec["alias"] for spec in catalog.WORKLOADS.values()}
    own = catalog.WORKLOADS[workload]["alias"]
    assert value[own] > 0
    assert all(value[a] == 0 for a in aliases - {own})
    trace = json.loads((HERE / "artifacts" / f"trace_{workload}.json").read_text())
    assert {"name", "start", "end", "parent", "run"} <= set(trace[0])


def test_idle_layers_read_zero(smoke_runs):
    value = {
        n: m["value"]
        for n, m in result_of(smoke_runs["sim_phase1", 1])["metrics"].items()
    }
    for name in value:
        if name.split(".")[0] in ("obs", "service", "store", "maxdo", "multi"):
            if name != "maxdo.cost_model_s":
                assert value[name] == 0, name
    assert value["grid.events_fired"] > 0 and value["boinc.issued"] > 0


def test_suite_smoke_never_touches_the_record():
    baseline = HERE / "baseline.json"
    before = baseline.read_bytes()
    done = run("--smoke", "--traced", "--repeats", "1", "--seconds", "0.3",
               "--workloads", "results_reduce")
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads((HERE / "artifacts" / "smoke.json").read_text())
    assert report["provenance"]["tier"] == "smoke"
    assert {"commit", "dirty", "nproc", "python", "numpy", "scipy", "seed",
            "repeats", "date"} <= set(report["provenance"])
    entry = report["workloads"]["results_reduce"]
    assert entry["failed_frac"] == 0
    assert entry["per_layer"]["store.flagged_chunks"] == 2
    refused = run("--smoke", "--record", "--repeats", "1", "--seconds", "0.3",
                  "--workloads", "results_reduce")
    assert refused.returncode != 0
    assert baseline.read_bytes() == before


def test_corrupted_golden_fails_the_run(tmp_path):
    pins = json.loads((HERE / "goldens.json").read_text())
    pins["smoke"]["sim_phase1"]["effective"] += 1
    corrupted = tmp_path / "goldens.json"
    corrupted.write_text(json.dumps(pins))
    done = run("--workload", "sim_phase1", "--smoke", "--seconds", "0.3",
               "--goldens", str(corrupted))
    assert done.returncode != 0
    result = result_of(done)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]  # failed_frac = 1
    assert "golden.effective" in done.stderr

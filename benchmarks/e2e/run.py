"""The repo's benchmark: seven workloads over the paper's pipeline.

Two ways in, one measurement underneath.

Driver contract (one run of one workload, last stdout line is JSON)::

    python3 benchmarks/e2e/run.py --workload sim_phase1 --seed 7 \\
        --seconds 5 --trace 0

Suite (every workload, a table of medians and quartiles)::

    python3 benchmarks/e2e/run.py [--seed 7] [--repeats 5] [--workloads a,b]
        [--traced] [--smoke] [--check-repeat] [--record]

Each run launches fresh ``python`` workers (``worker.py``): one measures
for ``--seconds``; two more only set up, so ``setup_s`` is a median of
three.  Standard library only — the program is imported by the workers,
never by this process, whose job is inputs, isolation and arithmetic.
See README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from catalog import (  # noqa: E402  (needs HERE on sys.path)
    DEFAULT_SEED, END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS,
)

#: caches that survive between runs in one checkout (bytecode, the fused
#: kernel build) and the per-run scratch; all of it is git-ignored
WORK = ROOT / ".bench_e2e"
ARTIFACTS = HERE / "artifacts"
SETUP_SAMPLES = 3
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    """Environment of every worker: the program on the path, one thread,
    bytecode and temp files inside the checkout's work directory.

    ``PYTHONPYCACHEPREFIX`` keeps the 64 ``.pyc`` files tracked in git out
    of the picture: they are neither rewritten nor trusted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the cache must fill
    env["TMPDIR"] = str(WORK / "tmp")  # repro.maxdo._fused builds here
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_NO_FUSED", None)
    for pin in THREAD_PINS:
        env[pin] = "1"
    return env


def prepare_work_dir(env: dict) -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure under {ROOT / 'src'}")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    if not (WORK / "pycache").exists():
        # one discarded import compiles the bytecode, so no setup sample
        # pays for it
        subprocess.run(
            [sys.executable, "-c",
             "import repro, repro.cli, repro.service.loadgen"],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )


def child_json(argv: list[str], env: dict) -> dict:
    """Run a child to completion; its last stdout line is a JSON object."""
    done = subprocess.run(
        [sys.executable, *argv], env=env, stdout=subprocess.PIPE, text=True
    )
    if done.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def build_params(workload: str, tier: str, seed: int, scratch: Path):
    """The generated inputs of one run: (params, dataset generator spec).

    The seed stops here; workers see sizes, derived seeds and files.  The
    ``results_*`` dataset is written by ``gen.generate`` inside the first
    set-up-only worker, after its set-up has been timed: that process has
    already paid for ``import repro``, which a generator of its own would
    pay again on every run.
    """
    params = dict(WORKLOADS[workload][tier])
    generate = None
    if workload.startswith("results_"):
        dataset = scratch / "dataset"
        generate = {
            "workload": workload, "params": dict(params), "seed": seed,
            "out": str(dataset),
        }
        params["dataset"] = str(dataset)
    elif workload == "docking_workunit":
        params["panel_seed"] = seed
    else:
        params["campaign_seed"] = seed
    return params, generate


def load_golden(workload: str, tier: str, seed: int, path: Path | None) -> dict | None:
    """Pins exist for the default seed only; other seeds get invariants."""
    if seed != DEFAULT_SEED or path is None or not path.is_file():
        return None
    return json.loads(path.read_text()).get(tier, {}).get(workload)


def run_once(
    workload: str, seed: int, seconds: float, trace: bool, tier: str,
    goldens: Path | None,
) -> dict:
    """One run: inputs, workers, gate.  Returns the driver's result object
    plus what the suite prints (problems, outcome, exact counts)."""
    env = child_env()
    prepare_work_dir(env)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        params, generate = build_params(workload, tier, seed, scratch)
        spec = {
            "workload": workload, "params": params, "seconds": seconds,
            "trace": trace, "golden": load_golden(workload, tier, seed, goldens),
            "run_id": f"{workload}-{seed}-{scratch.name}",
        }
        if trace:
            ARTIFACTS.mkdir(exist_ok=True)
            spec["trace_path"] = str(ARTIFACTS / f"trace_{workload}.json")
        # One worker measures; the others only set up (a traced run needs
        # no set-up median).  The worker that generates a dataset must come
        # first; otherwise the measuring worker does, and warms the page
        # cache for the set-up samples like any earlier launch would.
        roles = ["measure"] + ["setup"] * (0 if trace else SETUP_SAMPLES - 1)
        if generate is not None:
            roles = ["setup", "measure"] + roles[2:]
        setups = []
        generate_s = 0.0
        for sample, role in enumerate(roles):
            sample_dir = scratch / f"worker-{sample}"
            sample_dir.mkdir()
            spec_path = sample_dir / "spec.json"
            spec_path.write_text(json.dumps({
                **spec, "scratch": str(sample_dir),
                "setup_only": role == "setup",
                "generate": generate if sample == 0 else None,
                "t0": time.time(),
            }))
            out = child_json([str(HERE / "worker.py"), str(spec_path)], env)
            if not (trace and role == "setup"):
                setups.append(out["setup_s"])
            generate_s += out.get("generate_s", 0.0)
            if role == "measure":
                measured = out
            shutil.rmtree(sample_dir)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(p["attempted"] for p in measured["passes"])
    failed = sum(p["failed"] for p in measured["passes"])
    problems = measured["problems"]
    if problems:
        failed = attempted  # a failed gate fails the whole run
    wall, rate = best_pass(p for p in measured["passes"] if not p["traced"])
    if trace:
        layers = {name: 0.0 for name, _, _ in PER_LAYER}
        layers.update(measured["layers_all"])
        layers[WORKLOADS[workload]["alias"]] = rate
        layers["bench.generate_s"] = generate_s
        values = layers
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": min(setups),
            "wall_s": wall,
            "units_per_s": rate,
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = {name: unit for name, unit, _, _ in END_TO_END}
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
        "problems": problems,
        "outcome": measured["outcome"],
    }


def best_pass(passes) -> tuple[float, float]:
    """(wall_s, units_per_s) of a run: per distinct input the fastest
    pass, then the median over inputs.

    The passes of one input repeat identical, deterministic work, and
    interference on a shared box only ever slows a pass down, so the
    fastest pass is the least disturbed measurement of that work, where a
    median of passes flips between the box's quiet and busy phases.  Only
    ``docking_workunit`` has more than one input (its panel of couples).
    """
    best: dict[int, dict] = {}
    for p in passes:
        if p["input"] not in best or p["wall_s"] < best[p["input"]]["wall_s"]:
            best[p["input"]] = p
    return (
        statistics.median(p["wall_s"] for p in best.values()),
        statistics.median(p["units"] / p["wall_s"] for p in best.values()),
    )


def driver_line(result: dict) -> str:
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


# -- the suite -------------------------------------------------------------


def provenance(tier: str, seed: int, repeats: int, seconds: float) -> dict:
    def git(*args: str) -> str:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True
        )
        return done.stdout.strip() if done.returncode == 0 else "unknown"

    return {
        "tier": tier, "seed": seed, "repeats": repeats, "run_seconds": seconds,
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "date": datetime.date.today().isoformat(),
    }


def summarise(values: list[float]) -> dict:
    """Median, quartiles and the inter-quartile spread as a share of the
    median (what the bounds are judged against)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median}


def run_set(args, names: list[str], tier: str) -> dict:
    """``--repeats`` untraced runs (and one traced) of every workload."""
    out = {}
    goldens = None if args.write_goldens else args.goldens  # re-pinning: no gate
    for name in names:
        runs = [
            run_once(name, args.seed, args.seconds, False, tier, goldens)
            for _ in range(args.repeats)
        ]
        entry = {
            "end_to_end": {
                metric: summarise([r["metrics"][metric]["value"] for r in runs])
                for metric, _, _, _ in END_TO_END
            },
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "problems": [p for r in runs for p in r["problems"]],
            "outcome": runs[0]["outcome"],
        }
        if args.traced:
            traced = run_once(name, args.seed, args.seconds, True, tier, goldens)
            entry["per_layer"] = {
                metric: traced["metrics"][metric]["value"] for metric, _, _ in PER_LAYER
            }
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
            entry["problems"] += traced["problems"]
        entry["failed_frac"] = entry["failed"] / entry["attempted"]
        out[name] = entry
        print_workload(name, entry)
    return out


def print_workload(name: str, entry: dict) -> None:
    spec = WORKLOADS[name]
    print(f"\n== {name}  (unit of work: {spec['unit']}; units_per_s is "
          f"{spec['alias']})")
    print(f"   {'metric':<22}{'unit':>6}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    units = {metric: unit for metric, unit, _, _ in END_TO_END}
    for metric, s in entry["end_to_end"].items():
        print(f"   {metric:<22}{units[metric]:>6}{s['median']:>14.4f}"
              f"{s['q1']:>14.4f}{s['q3']:>14.4f}{s['n']:>4}")
    print(f"   {'failed_frac':<22}{'ratio':>6}{entry['failed_frac']:>14.4f}"
          f"   ({entry['failed']} of {entry['attempted']} operations)")
    for problem in entry["problems"]:
        print(f"   GATE FAILED: {problem}")
    if "per_layer" in entry:
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        print("   per layer (one traced run; layers idle here read 0 and are "
              "not listed):")
        for metric, value in entry["per_layer"].items():
            if value:
                print(f"     {metric:<44}{value:>16.6g} {units[metric]}")


def check_repeat(first: dict, second: dict) -> list[str]:
    """Two sets of the same code and seed must agree within the bounds."""
    failures = []
    print("\n== check-repeat: set 1 vs set 2")
    print(f"   {'workload':<18}{'metric':<14}{'median 1':>15}{'median 2':>15}"
          f"{'diff':>8}{'spread':>8}{'bound':>7}")
    for name in first:
        for metric, _, better, bound in END_TO_END:
            a, b = (s[name]["end_to_end"][metric] for s in (first, second))
            worse = (b["median"] - a["median"]) / a["median"]
            if better == "higher":
                worse = -worse
            print(f"   {name:<18}{metric:<14}{a['median']:>15.4f}"
                  f"{b['median']:>15.4f}{worse:>+8.1%}{a['spread']:>8.1%}{bound:>7.0%}")
            if abs(worse) > bound:
                failures.append(f"{name}.{metric}: medians differ by {worse:+.1%}")
        for metric in EXACT_COUNTS:
            a, b = (s[name].get("per_layer", {}).get(metric) for s in (first, second))
            if a != b:
                failures.append(f"{name}.{metric}: {a} then {b} (must repeat exactly)")
    return failures


def suite(args) -> int:
    tier = "smoke" if args.smoke else "full"
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        sys.exit(f"error: unknown workloads {unknown}; known: {list(WORKLOADS)}")
    report = {
        "provenance": provenance(tier, args.seed, args.repeats, args.seconds),
        "workloads": run_set(args, names, tier),
    }
    failures = [
        f"{name}: {problem}"
        for name, entry in report["workloads"].items()
        for problem in entry["problems"]
    ]
    if args.check_repeat:
        second = run_set(args, names, tier)
        failures += check_repeat(report["workloads"], second)
        report["repeat"] = second
    if args.write_goldens:
        pins = json.loads(args.goldens.read_text()) if args.goldens.is_file() else {}
        for name, entry in report["workloads"].items():
            # docking digests are pinned per kernel set: keep the other one
            old = pins.setdefault(tier, {}).get(name, {}).get("digest", {})
            pins[tier][name] = dict(entry["outcome"])
            if "digest" in entry["outcome"]:
                pins[tier][name]["digest"] = {**old, **entry["outcome"]["digest"]}
        args.goldens.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    fused = report["workloads"].get("docking_workunit", {}).get("per_layer", {})
    report["provenance"]["maxdo.fused_kernels"] = fused.get("maxdo.fused_kernels")
    ARTIFACTS.mkdir(exist_ok=True)
    out = ARTIFACTS / ("smoke.json" if args.smoke else "suite.json")
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}")
    if args.record:
        if args.smoke or failures:
            sys.exit("error: --record takes a passing full-tier result only")
        (HERE / "baseline.json").write_text(json.dumps(report, indent=1) + "\n")
        print("recorded benchmarks/e2e/baseline.json")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


def main() -> int:
    # a terminated harness still reaps its worker and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    manifest = ROOT / "BENCHMARK.json"
    run_seconds = (
        json.loads(manifest.read_text())["run_seconds"] if manifest.is_file() else 5
    )
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=list(WORKLOADS),
                    help="driver mode: one run, one JSON result line")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=run_seconds,
                    help="how long one run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="driver mode: 1 = the traced, per-layer run")
    ap.add_argument("--smoke", action="store_true",
                    help="~10x smaller inputs (plumbing check, never recorded)")
    ap.add_argument("--workloads", help="suite: comma-separated subset")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--traced", action="store_true",
                    help="suite: add one traced run per workload")
    ap.add_argument("--check-repeat", action="store_true",
                    help="suite: run two sets, fail if they disagree")
    ap.add_argument("--record", action="store_true",
                    help="suite: write the full-tier result to baseline.json")
    ap.add_argument("--goldens", type=Path, default=HERE / "goldens.json")
    ap.add_argument("--write-goldens", action="store_true",
                    help="suite: pin this run's outcomes (default seed only)")
    args = ap.parse_args()
    if args.write_goldens and args.seed != DEFAULT_SEED:
        ap.error("goldens are pinned for the default seed only")
    if args.workload is None:
        return suite(args)
    result = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace),
        "smoke" if args.smoke else "full", args.goldens,
    )
    for problem in result["problems"]:
        print(f"GATE FAILED: {problem}", file=sys.stderr)
    print(driver_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

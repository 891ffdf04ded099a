"""One run of one workload, in a fresh interpreter.

Started by ``run.py`` with the path of a JSON spec; prints one JSON line.
The spec carries ``t0``, the harness clock just before the launch, so
``setup_s`` covers interpreter start, ``import repro`` and the building
of the program's inputs — everything a user waits for before the timed
region begins.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
from pathlib import Path

from spans import Recorder

_FAMILY = {
    "sim_phase1": "wl_sim", "sim_observed": "wl_sim", "sim_multi": "wl_sim",
    "wire_replay": "wl_wire",
    "results_ingest": "wl_results", "results_reduce": "wl_results",
    "docking_workunit": "wl_docking",
}


def main() -> int:
    # killed with the harness: still stop the served process on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads(Path(sys.argv[1]).read_text())
    name = spec["workload"]
    rec = Recorder(spec["run_id"])
    setup_span = rec.open("setup", start=spec["t0"])
    rec.add("python.start", time.time() - spec["t0"])

    extra = ()
    if name == "wire_replay":
        # launched before our own `import repro` so both imports overlap
        from served import Served

        extra = (Served(spec["params"], spec["params"]["campaign_seed"]),)

    workload = None
    try:
        with rec.span("import.repro") as span:
            import repro  # noqa: F401  (the measured import)
        import_s = rec.spans[span]["end"] - rec.spans[span]["start"]
        modules_loaded = len(sys.modules)
        with rec.span("import.workload"):
            module = __import__(_FAMILY[name])
        workload = module.WORKLOADS[name](
            spec["params"], Path(spec["scratch"]), rec, *extra
        )
        workload.setup()
        rec.close(setup_span)
        setup_s = time.time() - spec["t0"]
        out = {"setup_s": setup_s}
        if spec["generate"]:
            import gen

            start = time.perf_counter()
            gen.generate(**spec["generate"])
            out["generate_s"] = time.perf_counter() - start
        if not spec["setup_only"]:
            out.update(measure(workload, spec, rec, setup_span))
            out["layers_all"].update({
                "import.repro_s": import_s,
                "import.modules_loaded": modules_loaded,
            })
    finally:
        if workload is not None:
            workload.close()
        else:
            for served in extra:
                served.stop()

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if name == "wire_replay":
        rss_kb = max(rss_kb, workload.peak_rss_kb())
    out["peak_rss_mb"] = rss_kb / 1024.0
    if spec.get("trace_path"):
        Path(spec["trace_path"]).write_text(json.dumps(rec.spans))
    print(json.dumps(out))
    return 0


def measure(workload, spec: dict, rec: Recorder, setup_span: int) -> dict:
    """Passes for ``seconds`` seconds, the gate, and (traced) the layers."""
    traced_run = spec["trace"]
    passes: list[dict] = []
    deadline = time.perf_counter() + spec["seconds"]
    while True:
        # a traced run alternates untraced and traced passes (and ends on
        # a pair), so the tracing overhead is a ratio of neighbours
        traced = traced_run and len(passes) % 2 == 1
        result = workload.run_pass(traced)
        result["traced"] = traced
        passes.append(result)
        paired = not traced_run or len(passes) % 2 == 0
        if paired and time.perf_counter() >= deadline:
            break
    problems = workload.verify(spec.get("golden"))
    out = {
        "passes": [
            {k: v for k, v in p.items() if k not in ("layers", "span")}
            for p in passes
        ],
        "problems": problems,
        "outcome": workload.outcome(),
        "layers_all": {},
    }
    if traced_run:
        # the fastest pass of each kind is the least disturbed one
        untraced_wall = min(p["wall_s"] for p in passes if not p["traced"])
        best = min((p for p in passes if p["traced"]), key=lambda p: p["wall_s"])
        layers = dict(best["layers"])
        layers.update(workload.layers(untraced_wall))
        # budget: the set-up span plus that traced pass; "other" is the
        # time inside them that no named layer span covers
        spans = (setup_span, best["span"])
        total = sum(rec.spans[i]["end"] - rec.spans[i]["start"] for i in spans)
        other = sum(rec.self_time(i) for i in spans)
        layers.update({
            "trace.overhead_frac": best["wall_s"] / untraced_wall - 1.0,
            "budget.other_s": other,
            "budget.covered_frac": 1.0 - other / total,
        })
        out["layers_all"] = layers
    return out


if __name__ == "__main__":
    sys.exit(main())

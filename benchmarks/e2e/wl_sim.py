"""The three in-process campaign workloads: sim_phase1, sim_observed, sim_multi."""

from __future__ import annotations

import time
from dataclasses import asdict

from repro.boinc.server import GridServer
from repro.boinc.simulator import scaled_phase1
from repro.maxdo.cost_model import CostModel
from repro.multi.engine import MultiGridSimulation
from repro.multi.scenario import three_phase_scenario
from repro.multi.workloads import CrossDockingWorkload
from repro.obs import Profiler, Tracer

from spans import Recorder
from wl_base import Workload, compare, median_wall

#: the lifecycle channels of the issue's observed campaign (no ``des``:
#: the kernel keeps its fast path, as `simulate --trace` users run it)
OBS_CHANNELS = ("server", "agent", "fault", "host", "health")

_SECTION_LAYER = {
    "setup.workunits": "core.packaging",
    "setup.campaigns": "multi.setup_campaigns",
    "setup.hosts": "grid.host_setup",
    "des.run": "grid.des_run",
}


class SpanProfiler(Profiler):
    """The program's ``Profiler`` hook, mirrored into the span recorder.

    Phase sections become spans as they finish; the per-callback
    sections (one ``record`` per fired event) stay aggregated in the
    profiler and are attached as summed child spans afterwards.
    """

    def __init__(self, rec: Recorder) -> None:
        super().__init__()
        self._rec = rec

    def record(self, name: str, seconds: float) -> None:
        super().record(name, seconds)
        layer = _SECTION_LAYER.get(name)
        if layer is not None:
            self._rec.add(layer, seconds)


class TimedGridServer(GridServer):
    """The real ``GridServer``, with its two agent-facing calls timed."""

    def __init__(self, timer: "ServerTimer", **kwargs) -> None:
        super().__init__(**kwargs)
        self._timer = timer

    def request_work(self, host_id):
        start = time.perf_counter()
        instance = super().request_work(host_id)
        timer = self._timer
        timer.seconds += time.perf_counter() - start
        timer.calls += 1
        if instance is not None:
            timer.issued += 1
        return instance

    def on_result(self, *args, **kwargs):
        start = time.perf_counter()
        super().on_result(*args, **kwargs)
        self._timer.seconds += time.perf_counter() - start
        self._timer.calls += 1


class ServerTimer:
    """Accumulates ``TimedGridServer`` time; also the ``server_factory``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.issued = 0

    def factory(self, **kwargs) -> GridServer:
        return TimedGridServer(self, **kwargs)


def des_layers(
    rec: Recorder, profiler: Profiler, stats, n_workunits: int,
    inner_s: float = 0.0, inner_calls: int = 0, inner_name: str = "boinc.server",
) -> dict:
    """The core/grid/boinc layer values of one traced campaign.

    Splits the last ``grid.des_run`` span into kernel, agent and server.
    ``inner_*`` is time spent below the agent callbacks that belongs to
    another layer: the timed ``GridServer`` calls (``boinc.server``), or
    the RPC round trips of a wire replay (``service.rpc``).  Where no
    ``server_factory`` is possible (observers on, the router path) only
    the server's timeout callbacks are split out and the rest of its time
    stays inside ``boinc.agent_cb``.
    """
    sections = profiler.stats()
    run_index = max(s["id"] for s in rec.spans if s["name"] == "grid.des_run")
    run_s = sections["des.run"][1]
    callbacks = {
        name: value for name, value in sections.items()
        if name.startswith("des.") and name != "des.run"
    }
    events = sum(calls for calls, _ in callbacks.values())
    callback_s = sum(total for _, total in callbacks.values())
    timeout_calls, timeout_s = callbacks.get("des.GridServer._on_timeout", (0, 0.0))
    agent_s = callback_s - timeout_s - inner_s
    end = rec.spans[run_index]["end"]
    rec.add("boinc.agent_cb", agent_s, calls=events - timeout_calls,
            end=end, parent=run_index)
    rec.add(inner_name, inner_s, calls=inner_calls, end=end, parent=run_index)
    rec.add("boinc.server_timeouts", timeout_s, calls=timeout_calls,
            end=end, parent=run_index)
    self_s = run_s - callback_s
    in_process = inner_name == "boinc.server"
    return {
        "core.packaging_s": sections.get("setup.workunits", (0, 0.0))[1],
        "core.workunits": n_workunits,
        "grid.host_setup_s": sections["setup.hosts"][1],
        "grid.des_run_s": run_s,
        "grid.events_fired": events,
        "grid.des_self_s": self_s,
        "grid.des_ns_per_event": self_s / events * 1e9,
        "boinc.agent_cb_s": agent_s,
        "boinc.server_s": timeout_s + inner_s * in_process,
        "boinc.server_calls": timeout_calls + inner_calls * in_process,
        "boinc.disclosed": stats.disclosed,
        "boinc.effective": stats.effective,
        "boinc.invalid": stats.invalid,
        "boinc.late": stats.late,
        "boinc.useful_frac": stats.useful_fraction,
        "boinc.redundancy": stats.redundancy_factor,
    }


def stats_outcome(stats, completion_time) -> dict:
    """What a campaign produced, as plain comparable values."""
    out = {k: v for k, v in asdict(stats).items() if not k.startswith("_")}
    out["completion_time"] = completion_time
    return out


def stats_problems(stats, what: str) -> list[str]:
    accounted = (
        stats.effective + stats.invalid + stats.late + stats.quorum_extra
    )
    if stats.disclosed != accounted:
        return [
            f"{what}: disclosed {stats.disclosed} != effective + invalid + "
            f"late + quorum_extra = {accounted}"
        ]
    return []


class _Campaign(Workload):
    """A seeded single-campaign simulation, run once per pass."""

    def build(self, **observers):
        p = self.params
        return scaled_phase1(
            scale=p["scale"], n_proteins=p["n_proteins"],
            seed=p["campaign_seed"], **observers,
        )

    def setup(self) -> None:
        with self.rec.span("sim.build"):
            self._ready = self.build()
        self._outcomes: list[dict] = []
        self._stats = None

    def _account(self, result, out: dict) -> dict:
        stats = result.server.stats
        self._stats = stats
        self._outcomes.append(stats_outcome(stats, result.completion_time))
        out.update(
            units=stats.effective,
            attempted=stats.effective + stats.failed,
            failed=stats.failed,
        )
        return out

    def outcome(self) -> dict:
        return self._outcomes[0]

    def verify(self, golden: dict | None) -> list[str]:
        problems = stats_problems(self._stats, "stats")
        for other in self._outcomes[1:]:
            problems += compare(other, self._outcomes[0], "pass-vs-pass")
        if golden is not None:
            problems += compare(self._outcomes[0], golden, "golden")
        return problems

    def layers(self, untraced_wall_s: float) -> dict:
        """Split ``sim.build`` (= ``scaled_phase1``) by calling its two
        expensive public constructors once more on their own."""
        p = self.params
        workload = CrossDockingWorkload(
            scale=p["scale"], n_proteins=p["n_proteins"]
        )
        (library, _), both_s = median_wall(
            lambda: workload.library_and_costs(p["campaign_seed"])
        )
        _, cost_s = median_wall(
            lambda: CostModel.calibrated(library, seed=p["campaign_seed"])
        )
        return {
            "proteins.library_s": both_s - cost_s,
            "maxdo.cost_model_s": cost_s,
        }


class SimPhase1(_Campaign):
    def run_pass(self, traced: bool) -> dict:
        if not traced:
            sim, self._ready = self._ready or self.build(), None
            return self._account(*self.timed(False, sim.run))
        profiler, timer = SpanProfiler(self.rec), ServerTimer()
        sim = self.build(profiler=profiler)
        result, out = self.timed(
            True, lambda: sim.run(server_factory=timer.factory)
        )
        out["layers"] = des_layers(
            self.rec, profiler, result.server.stats, result.server.n_workunits,
            timer.seconds, timer.calls,
        )
        out["layers"]["boinc.issued"] = timer.issued
        return self._account(result, out)


class SimObserved(_Campaign):
    """JSONL lifecycle trace + health monitor + host ledger, all on."""

    def build(self, **observers):
        if not observers.pop("bare", False):
            self._n_traces += 1
            observers.setdefault("tracer", Tracer.to_jsonl(
                self.scratch / f"trace-{self._n_traces}.jsonl",
                channels=OBS_CHANNELS,
            ))
            observers.setdefault("health", True)
            observers.setdefault("ledger", True)
        return super().build(**observers)

    def setup(self) -> None:
        self._n_traces = 0
        self._events = self._lines = 0
        self._trace_bytes = 0
        super().setup()

    def _observed_run(self, sim):
        result = sim.run()
        sim.tracer.close()  # the flush is part of the job
        return result

    def run_pass(self, traced: bool) -> dict:
        profiler = SpanProfiler(self.rec) if traced else None
        if traced or self._ready is None:
            sim = self.build(profiler=profiler)
        else:
            sim, self._ready = self._ready, None
        path = sim.tracer.sink.path
        result, out = self.timed(traced, lambda: self._observed_run(sim))
        self._events = sim.tracer.n_events
        with open(path, "rb") as fh:
            self._lines = sum(1 for _ in fh)
        self._trace_bytes = path.stat().st_size
        path.unlink()
        if traced:
            # health/ledger need the in-process server's event stream, so
            # no server_factory here
            out["layers"] = des_layers(
                self.rec, profiler, result.server.stats, result.server.n_workunits
            )
        return self._account(result, out)

    def _bare(self):
        return self.build(bare=True).run()

    def verify(self, golden: dict | None) -> list[str]:
        problems = super().verify(golden)
        bare = self._bare()
        problems += compare(
            stats_outcome(bare.server.stats, bare.completion_time),
            self._outcomes[0], "observed-vs-bare",
        )
        if self._lines != self._events:
            problems.append(
                f"trace holds {self._lines} lines, tracer emitted {self._events}"
            )
        return problems

    def layers(self, untraced_wall_s: float) -> dict:
        _, bare_s = median_wall(self._bare)

        def jsonl_only():
            sim = self.build(health=None, ledger=None)
            self._observed_run(sim)
            sim.tracer.sink.path.unlink()

        _, jsonl_s = median_wall(jsonl_only)
        layers = super().layers(untraced_wall_s)
        layers.update({
            "obs.bare_wall_s": bare_s,
            "obs.tracer_s": jsonl_s - bare_s,
            "obs.sinks_s": untraced_wall_s - jsonl_s,
            "obs.events_emitted": self._events,
            "obs.us_per_event": (untraced_wall_s - bare_s) / self._events * 1e6,
            "obs.trace_mb": self._trace_bytes / 1e6,
            "obs.overhead_frac": untraced_wall_s / bare_s - 1.0,
        })
        return layers


class SimMulti(Workload):
    """The paper's three-phase prioritisation as two campaigns on one fleet."""

    def build(self, profiler=None) -> MultiGridSimulation:
        p = self.params
        with self.rec.span("multi.build") as index:
            sim = MultiGridSimulation(
                three_phase_scenario(
                    scale=p["scale"], n_proteins=p["n_proteins"],
                    n_ligands=p["n_ligands"], n_hosts_peak=p["n_hosts_peak"],
                    seed=p["campaign_seed"],
                ),
                profiler=profiler,
            )
        span = self.rec.spans[index]
        self._build_s = span["end"] - span["start"]
        return sim

    def setup(self) -> None:
        self._ready = self.build()
        self._outcomes: list[dict] = []
        self._result = None

    def run_pass(self, traced: bool) -> dict:
        profiler = SpanProfiler(self.rec) if traced else None
        if traced or self._ready is None:
            sim = self.build(profiler)
        else:
            sim, self._ready = self._ready, None
        result, out = self.timed(traced, sim.run)
        self._result = result
        stats = result.merged_stats()
        outcome = stats_outcome(stats, result.completion_time)
        outcome["effective_by_campaign"] = {
            name: r.server.stats.effective for name, r in result.campaigns.items()
        }
        self._outcomes.append(outcome)
        out.update(
            units=stats.effective,
            attempted=stats.effective + stats.failed,
            failed=stats.failed,
        )
        if traced:
            # no server_factory on the router path either
            out["layers"] = des_layers(
                self.rec, profiler, stats,
                sum(r.server.n_workunits for r in result.campaigns.values()),
            )
            out["layers"].update({
                "multi.build_s": self._build_s,
                "multi.run_s": out["wall_s"],
                "multi.campaigns": len(result.campaigns),
                "multi.share_err": self._share_err(result),
                "multi.us_per_workunit": out["wall_s"] / stats.effective * 1e6,
            })
        return out

    @staticmethod
    def _share_err(result) -> float:
        """max |share of validated work - weight share at the horizon|.

        Fair share equalises cumulative issued work over the *current*
        weight, so with both campaigns hungry to the end (the sizes are
        chosen for that) the cumulative shares converge on the final
        weights.
        """
        config = result.config
        weights = {
            c.name: c.weight_at(config.horizon_weeks) for c in config.campaigns
        }
        total = sum(weights.values())
        shares = result.issued_share()
        return max(abs(shares[n] - w / total) for n, w in weights.items())

    def outcome(self) -> dict:
        return self._outcomes[0]

    def verify(self, golden: dict | None) -> list[str]:
        problems = []
        for name, r in self._result.campaigns.items():
            problems += stats_problems(r.server.stats, name)
        for other in self._outcomes[1:]:
            problems += compare(other, self._outcomes[0], "pass-vs-pass")
        if golden is not None:
            problems += compare(self._outcomes[0], golden, "golden")
        err = self._share_err(self._result)
        if err > 0.1:
            problems.append(f"multi.share_err {err:.3f} > 0.1")
        return problems


WORKLOADS = {
    "sim_phase1": SimPhase1,
    "sim_observed": SimObserved,
    "sim_multi": SimMulti,
}

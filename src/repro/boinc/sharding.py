"""Sharded campaign execution: K servers, one merged result.

A monolithic campaign is one :class:`~repro.boinc.server.GridServer`
plus one DES loop in a single Python process — the one thing the kernel
fast path cannot speed up further.  This module partitions a campaign
into ``K`` *shards* along the release order (contiguous receptor-batch
ranges, balanced by workunit count) and runs the engine body
(:func:`~repro.boinc.simulator.run_campaigns` — the one a campaign alone
and a roster run through) once per slice: its own server, DES kernel and
volunteer fleet, on a ``ProcessPoolExecutor`` worker.  The K
:class:`~repro.boinc.simulator.CampaignResult` s fold losslessly into one
(:func:`~repro.boinc.simulator.fold_results`).  The WISDOM large-scale
screening deployments scaled exactly this way: partition the input
database into independently executed chunks, collate afterward.

Determinism contract
--------------------

* Every shard is fully determined by the parent's resolved fleet,
  packaging plan, release order and server policy plus its
  ``ShardSpec``: the spec's three fleet fields replace the parent
  :class:`~repro.boinc.fleet.FleetSpec`'s, so shard ``k`` draws its host
  arrivals from arrival substream ``k`` and numbers its hosts from a
  disjoint id block — host/agent/fault substreams never collide or
  correlate across shards.  Nothing a run mutates is shared: each shard's
  server builds its own adaptive-replication trust table, so shards that
  share a process cannot see each other's streaks.
* The merge folds shards in shard-index order regardless of which
  worker finishes first, so the merged result is **bit-identical for
  every worker count** (and for the in-process ``n_workers=1`` path),
  adaptive replication included.
* A single shard (``ShardPlan(n_shards=1)``) never reaches this module:
  :meth:`VolunteerGridSimulation.run` short-circuits to the monolithic
  path, which stays bit-identical to a config with no shard plan at all.

Merge semantics
---------------

* :class:`Telemetry` daily series are summed day-aligned; counters
  (credit, shipped bytes, clamps, lazily-created ``fault.*``) add;
  the run-hours histogram merges bucket-wise; per-result run-time lists
  and shipments concatenate in shard order.
* :class:`ValidationStats` merge field-wise (including the per-regime
  validation counts), so :class:`CampaignMetrics` and
  :meth:`CampaignResult.fault_report` are computed from campaign-global
  numbers.
* The shards' event streams merge into one, by global ``(t_sim,
  shard, seq)``: each shard records its stream as trace-writer frames
  (:class:`~repro.obs.tracer.FrameSink`) in the run's scratch directory,
  never in the caller's, and the parent appends each merged event to the
  caller's trace.  Workunit and host ids are campaign-global, so
  ``trace``/``report``/span reconstruction cannot tell a sharded trace
  from a monolithic one (zero orphans).
* ``completion_time`` is the max over shards once **all** shards
  completed, else ``None`` (the campaign-global definition).
* Every observer folds the merged stream in the parent: the health
  monitor (configured with the campaign-global workunit count and
  reissue budget, and bound to no tracer) and the host ledger read it
  through the same tees as on a monolithic run, one refold serving both
  when they share a table.  Their reports are the refold of the merged
  trace by construction, identical for every worker count, and a
  sharded trace carries no ``health.*`` events.  With an observer and no
  caller trace, the shards record the observers' channels only.
* Profiler section tables add in shard order: a sharded profile reads
  per-section totals summed over the shard processes.
"""

from __future__ import annotations

import heapq
import os
import tempfile
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from ..obs.profile import Profiler
from ..obs.tracer import FrameSink, JsonlSink, NullSink, Tracer, iter_frames
from .fleet import observer_channels, observer_sink, resolve_observers
from .validator import ValidationStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .server import ServerConfig
    from .simulator import CampaignResult, Telemetry, VolunteerGridSimulation

__all__ = [
    "ShardPlan",
    "ShardSpec",
    "ShardOutput",
    "plan_shards",
    "run_sharded",
    "merge_stats",
    "merge_telemetry",
]

#: host-id stride between shards: shard ``k`` numbers its hosts from
#: ``k * HOST_ID_STRIDE``, so host substreams (behavioural draws, fault
#: states, agent RNGs) are disjoint for any realistic fleet size.
HOST_ID_STRIDE = 2**32


@dataclass(frozen=True)
class ShardPlan:
    """How to shard a campaign: K shards on up to N pool workers.

    ``n_shards=1`` (the default) is the monolithic path — bit-identical
    to a config with no shard plan.  ``n_workers=1`` runs the shards
    sequentially in-process (no pool, no pickling); ``n_workers>1`` fans
    them out over a ``ProcessPoolExecutor``.  The merged result does not
    depend on ``n_workers``.
    """

    n_shards: int = 1
    n_workers: int = 1

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(
                f"n_shards (--shards) must be >= 1, got {self.n_shards}"
            )
        if self.n_workers < 1:
            raise ValueError(
                f"n_workers (--shard-workers) must be >= 1, got {self.n_workers}"
            )


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the campaign (all campaign-global numbers)."""

    index: int  #: shard number in ``[0, n_shards)``
    n_shards: int
    batch_lo: int  #: first release position (receptor batch), inclusive
    batch_hi: int  #: last release position, exclusive
    wu_id_base: int  #: global id of the shard's first workunit
    n_workunits: int  #: workunits in ``[batch_lo, batch_hi)``
    host_id_base: int  #: first global host id (``index * HOST_ID_STRIDE``)
    n_hosts_peak: int  #: the shard's share of the campaign's peak fleet


@dataclass
class ShardOutput:
    """What one shard sends back to the fold (must pickle)."""

    #: the body's result for the slice, folded alone: the live server
    #: becomes its :class:`MergedServerView` record and the telemetry
    #: loses its tracer, neither of which can cross a process
    result: "CampaignResult"
    wall_s: float  #: the shard's own wall-clock execution time
    #: the shard's recorded stream (:class:`FrameSink` frames), when the
    #: campaign is traced or observed
    trace_path: str | None = None
    #: the shard's own profiler when the campaign ran with ``profiler=``
    profiler: Profiler | None = None


def plan_shards(sim: "VolunteerGridSimulation", n_shards: int) -> list[ShardSpec]:
    """Partition ``sim``'s campaign into contiguous release-order shards.

    Boundaries fall on receptor-batch edges (the release/shipment unit,
    so batch completion stays shard-local) and are placed to balance the
    cumulative *workunit count* — the DES cost of a shard (events, and
    therefore its wall time) tracks workunits, not reference CPU, so this
    is what evens out the per-shard walls a process pool schedules.

    Each shard's peak host count is the campaign fleet prorated by the
    **larger** of its reference-work share and its workunit share
    (minimum 4, matching the auto-sizing floor): the work share keeps a
    CPU-heavy slice on schedule, the workunit share keeps a slice of
    many cheap workunits from drowning in per-workunit latencies that
    reference work does not see.  ``n_shards=1`` yields the whole
    campaign as shard 0 with the full fleet.
    """
    n = len(sim.library)
    if not 1 <= n_shards <= n:
        raise ValueError(
            f"n_shards (--shards) must be in [1, {n} receptor batches], "
            f"got {n_shards}"
        )
    release_order = sim.campaign.release_order
    # Workunits per couple (counts minus merge-tail folds), summed over
    # each receptor batch's ligands — all vectorized, nothing materialized.
    per_couple = (sim.plan.counts - sim.plan.merged).astype(np.int64)
    batch_wus = per_couple[release_order].sum(axis=1)
    batch_work = sim.campaign.batch_work[release_order]
    cum_work = np.concatenate([[0.0], np.cumsum(batch_work)])
    cum_wus = np.concatenate([[0], np.cumsum(batch_wus)])
    total_work = float(cum_work[-1])
    total_wus = int(cum_wus[-1])

    # Boundary k sits where the cumulative workunit count crosses k/K of
    # the total, nudged so every shard keeps at least one batch.
    bounds = [0]
    for k in range(1, n_shards):
        cut = int(np.searchsorted(cum_wus, total_wus * k / n_shards))
        cut = max(cut, bounds[-1] + 1)
        cut = min(cut, n - (n_shards - k))
        bounds.append(cut)
    bounds.append(n)

    specs = []
    for k in range(n_shards):
        lo, hi = bounds[k], bounds[k + 1]
        work = float(cum_work[hi] - cum_work[lo])
        work_share = work / total_work if total_work > 0 else 1.0 / n_shards
        wu_share = (
            (cum_wus[hi] - cum_wus[lo]) / total_wus
            if total_wus > 0
            else 1.0 / n_shards
        )
        share = max(work_share, wu_share)
        n_hosts = max(4, int(round(sim.n_hosts_peak * share)))
        specs.append(
            ShardSpec(
                index=k,
                n_shards=n_shards,
                batch_lo=lo,
                batch_hi=hi,
                wu_id_base=int(cum_wus[lo]),
                n_workunits=int(cum_wus[hi] - cum_wus[lo]),
                host_id_base=k * HOST_ID_STRIDE,
                n_hosts_peak=n_hosts,
            )
        )
    return specs


# -- shard execution ---------------------------------------------------------

def _execute_shard(
    fleet, plan, campaign, server_config, scale,
    trace_dir, trace_channels, profile: bool, spec: ShardSpec,
) -> ShardOutput:
    """Run the engine body on one shard's slice and package its output.

    Everything but ``spec`` is the parent's, already resolved: the shard
    swaps its three fleet fields into ``fleet`` and materializes only its
    own release-order range — workunit ids and batch indices stay
    campaign-global, so merged traces, spans and batch telemetry are
    collision-free.  With a ``trace_dir`` the shard records its stream
    there, for the parent to merge.
    """
    from .simulator import RuntimeSpec, fold_results, run_campaigns

    tracer = trace_path = None
    if trace_dir is not None:
        trace_path = os.path.join(trace_dir, f"shard-{spec.index:04d}.frames")
        tracer = Tracer(sink=FrameSink(trace_path), channels=trace_channels)
    profiler = Profiler() if profile else None
    t0 = perf_counter()
    with (profiler or Profiler()).timed("setup.workunits"):
        runtime = RuntimeSpec.cross_docking(
            campaign, plan, server_config, scale,
            spec.batch_lo, spec.batch_hi, spec.wu_id_base,
        )
    _, (result,) = run_campaigns(
        replace(
            fleet,
            n_hosts_peak=spec.n_hosts_peak,
            host_id_base=spec.host_id_base,
            arrival_stream=spec.index,
        ),
        [runtime],
        tracer=tracer,
        profiler=profiler,
    )
    wall_s = perf_counter() - t0
    if tracer is not None:
        tracer.close()
    return ShardOutput(
        # folded alone: plain records, no live server or sink handle
        result=fold_results([result], result.n_hosts),
        wall_s=wall_s,
        trace_path=trace_path,
        profiler=profiler,
    )


#: worker-process state installed by :func:`_init_worker`: the parent's
#: share of :func:`_execute_shard`'s arguments.  Under the POSIX ``fork``
#: start method the initargs are inherited by memory, so the (potentially
#: large) plan/cost matrices are never pickled; per-task payloads are just
#: the small :class:`ShardSpec`.
_WORKER_STATE: tuple | None = None


def _init_worker(*parent_args) -> None:
    global _WORKER_STATE
    _WORKER_STATE = parent_args


def _run_shard_task(spec: ShardSpec) -> ShardOutput:
    """Module-level pool worker (must pickle), mirroring the docking
    engine's ``dock_couple(n_workers=N)`` fan-out pattern."""
    assert _WORKER_STATE is not None, "pool worker not initialized"
    return _execute_shard(*_WORKER_STATE, spec)


# -- merge -------------------------------------------------------------------

@dataclass
class MergedServerView:
    """Duck-typed stand-in for :class:`GridServer` on a merged result.

    Exposes exactly the server surface :class:`CampaignResult` and the
    downstream tooling read — ``stats``, ``n_workunits``,
    ``completion_time``, ``batch_completion``, ``config`` — backed by the
    campaign-global merged numbers.
    """

    stats: ValidationStats
    n_workunits: int
    completion_time: float | None
    batch_completion: dict[int, float]
    config: "ServerConfig"

    @property
    def n_validated(self) -> int:
        return self.stats.effective

    @property
    def all_done(self) -> bool:
        return self.completion_time is not None


def merge_stats(dst: ValidationStats, src: ValidationStats) -> None:
    """Field-wise sum (the counters are all additive across shards and
    across a roster's campaigns); called by
    :func:`repro.boinc.simulator.fold_results` and nowhere else."""
    for f in fields(ValidationStats):
        if f.name == "_by_regime":
            for regime, count in src._by_regime.items():
                dst._by_regime[regime] = dst._by_regime.get(regime, 0) + count
        else:
            setattr(dst, f.name, getattr(dst, f.name) + getattr(src, f.name))


def merge_telemetry(dst: "Telemetry", src: "Telemetry") -> None:
    """Fold one shard's (or campaign's) telemetry into the accumulator.

    Merged by metric kind.  Day-aligned: both registries were built over
    the same horizon, so the daily series add element-wise.  A metric
    the destination lacks (the lazily-created ``fault.*`` counters) is
    created there only when a shard actually has it, preserving the
    monolithic contract that a fault-free export carries no zero-valued
    fault counters.
    """
    reg = dst.registry
    for name in src.registry.names():
        metric = src.registry.get(name)
        if metric.kind == "daily_series":
            target = reg.daily_series(
                name, metric.n_days, metric.values.dtype, help=metric.help
            )
            if len(target.values) != len(metric.values):
                raise ValueError(
                    f"shard horizon mismatch merging {name}: "
                    f"{len(metric.values)} vs {len(target.values)} days"
                )
            target.values += metric.values
        elif metric.kind == "histogram":
            target = reg.histogram(name, metric.bounds, help=metric.help)
            if target.bounds != metric.bounds:
                raise ValueError(f"histogram bounds mismatch merging {name}")
            for i, count in enumerate(metric.bucket_counts):
                target.bucket_counts[i] += count
            target.sum += metric.sum
            target.count += metric.count
        elif metric.kind == "counter":
            reg.counter(name, help=metric.help).inc(metric.value)
        else:  # pragma: no cover - no other kinds live in campaign telemetry
            raise TypeError(
                f"cannot merge metric {name!r} of kind {metric.kind!r}"
            )
    dst.run_active_s.extend(src.run_active_s)
    dst.run_reference_s.extend(src.run_reference_s)
    dst.shipments.extend(src.shipments)


def run_sharded(sim: "VolunteerGridSimulation") -> "CampaignResult":
    """Execute ``sim`` as ``config.shards`` prescribes and fold.

    Called by :meth:`VolunteerGridSimulation.run` when the config carries
    a :class:`ShardPlan` with ``n_shards > 1``.  Returns a folded
    :class:`CampaignResult` indistinguishable (metrics, fault report,
    exports, trace) from one server having run the whole campaign;
    per-shard wall times are kept on ``result.shard_walls``.  The merged
    stream is appended to a JSONL sink only: tracing to an in-memory ring
    is refused.
    """
    from .simulator import fold_results

    plan, tracer = sim.config.shards, sim.tracer
    if tracer is not None and not isinstance(tracer.sink, JsonlSink):
        raise ValueError(
            "unsupported artifact for a sharded campaign: the in-memory "
            "ring trace (RingSink) is not supported; trace a sharded "
            "campaign to a JSONL path (Tracer.to_jsonl / --trace PATH) "
            "instead, or run monolithically with n_shards=1 "
            "(drop --shards)"
        )
    health, ledger = resolve_observers(sim.health, sim.ledger)
    traced = tracer is not None or health is not None or ledger is not None
    with tempfile.TemporaryDirectory() as scratch:
        trace_dir = scratch if traced else None
        channels = (
            tracer.channels if tracer is not None
            else observer_channels(health, ledger)
        )
        specs = plan_shards(sim, plan.n_shards)
        # What every shard takes from the parent, resolved once here.
        parent_args = (
            sim.fleet, sim.plan, sim.campaign, sim.server_config, sim.scale,
            trace_dir, channels, sim.profiler is not None,
        )
        n_workers = min(plan.n_workers, plan.n_shards)
        if n_workers <= 1:
            outputs = [_execute_shard(*parent_args, spec) for spec in specs]
        else:
            with ProcessPoolExecutor(
                n_workers, initializer=_init_worker, initargs=parent_args
            ) as pool:
                # submit order == shard order: the list() below is the
                # deterministic ordered merge, whatever order workers finish.
                outputs = list(pool.map(_run_shard_task, specs))
        result = fold_results(
            [out.result for out in outputs],
            n_hosts=sum(out.result.n_hosts for out in outputs),
        )
        if health is not None:
            health.configure_campaign(
                result.server.n_workunits, sim.server_config.max_reissues
            )
        if traced:
            # One loop appends the merged stream to the caller's sink and
            # tees it into the observers' tables; the monitor stays
            # unbound, so nothing is emitted into the trace it folds.
            sink = observer_sink(
                tracer.sink if tracer is not None else NullSink(), health, ledger
            )
            counts = tracer.counts if tracer is not None else Counter()
            # Shard events all carry a t_sim; heapq.merge breaks its ties
            # by stream order, so the merge order is (t_sim, shard, seq).
            streams = [iter_frames(out.trace_path) for out in outputs]
            for event in heapq.merge(*streams, key=attrgetter("t_sim")):
                sink.append(event)
                counts[event.etype] += 1
    result.shard_walls = [out.wall_s for out in outputs]
    if health is not None:
        result.health = health.finalize(result.span_s)
    if ledger is not None:
        result.ledger = ledger.finalize(result.span_s)
    if sim.profiler is not None:
        for out in outputs:
            sim.profiler.add(out.profiler)
    return result

"""Infrastructure benchmark — observability overhead on a live campaign.

Measures what lifecycle tracing and the riding SLO/health monitor cost a
``scaled_phase1`` campaign against the instrumentation-free baseline:

* **baseline** — no tracer, no monitor (the DES fast path end to end);
* **lifecycle** — a ring-buffer tracer on the ``server``/``agent``/
  ``fault`` channels (the spans/post-mortem input; the ``des`` channel
  stays off, so the kernel keeps its fast path);
* **lifecycle+health** — the same tracer with a :class:`HealthMonitor`
  teed into the sink (stride-drained batch fold, P² sketches, SLO rules
  swept once per drain);
* **lifecycle+ledger** — the same tracer with a :class:`HostLedger`
  teed into the sink (the same stride-drained tee pattern folding
  per-host counters, trust trajectory and turnaround sketches).

Methodology.  End-to-end walls are timed in **interleaved rounds** (one
run of each variant per round, best-of across rounds) so slow drift of
the host machine hits all variants alike.  The health monitor's own
cost — an ~0.5 us/event marginal that end-to-end deltas cannot resolve
against multi-millisecond host noise — is measured by **replaying the
captured lifecycle event stream** through the exact tee the campaign
uses (``FoldSink`` wrapping a ring) versus the plain ring, best-of
many short repeats.  The replay exercises the identical code path the
live campaign does (the digest-identity assertions below prove the
monitor changes nothing else), so the difference *is* the monitor's
cost, isolated from scheduler noise.

What "< 5 %" means per variant — recorded as ``target_met``:

* ``lifecycle`` is held against the instrumentation-free baseline.  At
  this workload's event density (~13k events over a ~10^2 ms campaign)
  the pure-Python emit path costs ~2-3 us/event, so this target is not
  currently met; the number is recorded honestly rather than gamed by
  lowering the event density.
* ``lifecycle+health`` and ``lifecycle+ledger`` are held against
  **lifecycle tracing alone**: each is an add-on to an already-traced
  campaign, so its cost is the replay-measured marginal as a fraction
  of the lifecycle wall (``marginal_fraction``).  The shared fast path
  (immediate-forward tee, dispatch-filtered stride drain, batched fold)
  keeps both under 5 %.

Enforced thresholds are generous gross-regression backstops on the
per-event marginals; bit-identity of the campaign outcome across all
three variants is asserted outright.

Records machine-readable results under ``benchmarks/artifacts/`` and as
``BENCH_obs.json`` at the repo root.

Smoke mode: set ``REPRO_BENCH_SMOKE=1`` to shrink the campaign ~8x; the
file then runs in a couple of seconds and still fails on a gross
per-event-cost regression.
"""

from __future__ import annotations

import os
from time import perf_counter

from repro.boinc.simulator import scaled_phase1
from repro.obs.health import HealthMonitor
from repro.obs.ledger import HostLedger
from repro.obs.tracer import FoldSink, RingSink, Tracer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: campaign size; smoke trades event count for wall time (~1k events vs ~13k)
CAMPAIGN_SCALE = 700 if SMOKE else 100
CAMPAIGN_PROTEINS = 6 if SMOKE else 24
TIMING_ROUNDS = 3 if SMOKE else 5
REPLAY_REPEATS = 7 if SMOKE else 15

#: the lifecycle channels the span reconstructor consumes.  ``des`` is
#: deliberately absent: the simulator hands the kernel no tracer at all
#: when the filter excludes it, keeping the DES fast path.
LIFECYCLE_CHANNELS = ("server", "agent", "fault")

#: the stated project target (see module docstring for the per-variant
#: reference point)
TARGET_FRACTION = 0.05

#: enforced ceilings, sized well above measured so they trip on a real
#: regression, not on a loaded CI machine: per-event emit cost ~2.5 us
#: measured, monitor tee+fold marginal ~0.5 us/event measured.
MAX_US_PER_EVENT = 25.0 if SMOKE else 20.0
MAX_OVERHEAD_FRACTION = 4.0 if SMOKE else 3.0
MAX_MARGINAL_US_PER_EVENT = 5.0


def _run(**kwargs):
    return scaled_phase1(
        scale=CAMPAIGN_SCALE,
        n_proteins=CAMPAIGN_PROTEINS,
        **kwargs,
    ).run()


VARIANTS = [
    ("baseline", lambda: {}),
    (
        "lifecycle",
        lambda: {
            "tracer": Tracer(
                sink=RingSink(capacity=2_000_000), channels=LIFECYCLE_CHANNELS
            )
        },
    ),
    (
        "lifecycle+health",
        lambda: {
            "tracer": Tracer(
                sink=RingSink(capacity=2_000_000), channels=LIFECYCLE_CHANNELS
            ),
            "health": True,
        },
    ),
    (
        "lifecycle+ledger",
        lambda: {
            "tracer": Tracer(
                sink=RingSink(capacity=2_000_000), channels=LIFECYCLE_CHANNELS
            ),
            "ledger": True,
        },
    ),
]


def _replay_marginal_s(events, make_tee):
    """The tee+fold cost of one observer on ``events``, via paired replays.

    ``make_tee(ring)`` builds the observer's sink tee around a plain ring
    (a ``FoldSink`` — the forward-first stride-drain tee every observer
    rides), so the measured difference is the observer's
    cost on the exact code path the live campaign uses.
    """

    def through_tee():
        sink = make_tee(RingSink(capacity=2_000_000))
        append = sink.append
        t0 = perf_counter()
        for event in events:
            append(event)
        sink.flush()
        return perf_counter() - t0

    def through_plain():
        append = RingSink(capacity=2_000_000).append
        t0 = perf_counter()
        for event in events:
            append(event)
        return perf_counter() - t0

    tee_s = min(through_tee() for _ in range(REPLAY_REPEATS))
    plain_s = min(through_plain() for _ in range(REPLAY_REPEATS))
    return max(0.0, tee_s - plain_s)


def test_bench_obs_overhead(record_artifact, record_bench_json):
    walls = {name: float("inf") for name, _ in VARIANTS}
    results = {}
    tracers = {}
    # Interleaved rounds: one run of every variant per round, so host
    # slowdowns hit all variants alike and best-of stays comparable.
    for _ in range(TIMING_ROUNDS):
        for name, make_kwargs in VARIANTS:
            kwargs = make_kwargs()
            t0 = perf_counter()
            result = _run(**kwargs)
            walls[name] = min(walls[name], perf_counter() - t0)
            results[name] = result
            tracers[name] = kwargs.get("tracer")

    base_s = walls["baseline"]
    life_s = walls["lifecycle"]
    life_events = list(tracers["lifecycle"].sink.events)
    life_server = results["lifecycle"].server

    def health_tee(ring):
        monitor = HealthMonitor()
        monitor.configure_campaign(
            life_server.n_workunits, life_server.config.max_reissues
        )
        return FoldSink(monitor, ring)

    marginals_s = {
        "lifecycle+health": _replay_marginal_s(life_events, health_tee),
        "lifecycle+ledger": _replay_marginal_s(
            life_events, lambda ring: FoldSink(HostLedger(), ring)
        ),
    }

    rows = {}
    for name, _ in VARIANTS:
        wall_s = walls[name]
        tracer = tracers[name]
        n_events = tracer.n_events if tracer is not None else 0
        # Clamped at zero: at smoke scale the run-to-run timing noise
        # exceeds the true marginal cost, and best-of can land an
        # instrumented variant *under* its reference.  A negative
        # overhead is physically meaningless — report 0 so the recorded
        # series stays monotone and trustworthy.
        overhead = max(0.0, wall_s / base_s - 1.0)
        us_per_event = (
            max(0.0, (wall_s - base_s) / n_events * 1e6) if n_events else 0.0
        )
        row = {
            "wall_seconds": wall_s,
            "n_events": n_events,
            "overhead_fraction": overhead,
            "us_per_event": us_per_event,
        }
        if name in marginals_s:
            # The observer's own cost: replay-measured marginal over
            # lifecycle tracing (see module docstring).
            marginal_s = marginals_s[name]
            marginal = marginal_s / life_s
            row["marginal_fraction"] = marginal
            row["marginal_us_per_event"] = (
                marginal_s / len(life_events) * 1e6 if life_events else 0.0
            )
            row["target"] = "replay marginal over lifecycle"
            row["target_met"] = marginal < TARGET_FRACTION
        else:
            row["target"] = "overhead over baseline"
            row["target_met"] = overhead < TARGET_FRACTION
        rows[name] = row

    # The monitor must not perturb the campaign: identical outcomes
    # across all three variants (the health channel never reaches the
    # lifecycle stream, and the monitor draws no randomness).
    base = results["baseline"]
    for name, result in results.items():
        assert result.completion_time == base.completion_time, name
        assert result.server.stats.disclosed == base.server.stats.disclosed, name
        assert result.server.stats.effective == base.server.stats.effective, name

    lines = [
        f"campaign scale={CAMPAIGN_SCALE} n_proteins={CAMPAIGN_PROTEINS} "
        f"(smoke={SMOKE}, best of {TIMING_ROUNDS} interleaved rounds, "
        f"replay best of {REPLAY_REPEATS})",
        f"{'variant':<18}{'wall ms':>10}{'events':>9}{'overhead':>10}"
        f"{'us/event':>10}{'<5%':>6}",
    ]
    for name, row in rows.items():
        lines.append(
            f"{name:<18}{row['wall_seconds'] * 1e3:>10.2f}"
            f"{row['n_events']:>9,}"
            f"{row['overhead_fraction']:>9.1%}"
            f"{row['us_per_event']:>10.2f}"
            f"{'yes' if row['target_met'] else 'NO':>6}"
        )
    for name, observer in (
        ("lifecycle+health", "health monitor"),
        ("lifecycle+ledger", "host ledger"),
    ):
        row = rows[name]
        lines.append(
            f"{observer} marginal (replayed tee+fold): "
            f"{marginals_s[name] * 1e3:.2f} ms = {row['marginal_fraction']:.1%} "
            f"of lifecycle wall ({row['marginal_us_per_event']:.2f} "
            f"us/event); target {TARGET_FRACTION:.0%}"
        )
    lines.append(
        f"enforced: us/event < {MAX_US_PER_EVENT:.0f}, "
        f"overhead < {MAX_OVERHEAD_FRACTION:.0%}, "
        f"observer marginals < {MAX_MARGINAL_US_PER_EVENT:.0f} us/event "
        f"(gross-regression backstops)"
    )
    record_artifact("bench_obs_overhead", "\n".join(lines))
    record_bench_json(
        "obs",
        {
            "smoke": SMOKE,
            "campaign": {
                "scale": CAMPAIGN_SCALE,
                "n_proteins": CAMPAIGN_PROTEINS,
                "timing_rounds": TIMING_ROUNDS,
                "replay_repeats": REPLAY_REPEATS,
            },
            "variants": rows,
            "target_fraction": TARGET_FRACTION,
            "max_us_per_event": MAX_US_PER_EVENT,
            "max_overhead_fraction": MAX_OVERHEAD_FRACTION,
            "max_marginal_us_per_event": MAX_MARGINAL_US_PER_EVENT,
            "outcome_bit_identical": True,
        },
        experiment="Tracing + health-monitor + host-ledger overhead on scaled_phase1",
    )

    for name, row in rows.items():
        if name == "baseline":
            continue
        assert row["us_per_event"] < MAX_US_PER_EVENT, (
            f"{name}: {row['us_per_event']:.2f} us/event "
            f"(ceiling {MAX_US_PER_EVENT})"
        )
        assert row["overhead_fraction"] < MAX_OVERHEAD_FRACTION, (
            f"{name}: {row['overhead_fraction']:.1%} overhead "
            f"(backstop {MAX_OVERHEAD_FRACTION:.0%})"
        )
    for name in marginals_s:
        assert rows[name]["marginal_us_per_event"] < MAX_MARGINAL_US_PER_EVENT, (
            f"{name} marginal {rows[name]['marginal_us_per_event']:.2f} "
            f"us/event (backstop {MAX_MARGINAL_US_PER_EVENT:.0f})"
        )

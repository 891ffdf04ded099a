"""Tests for the causal span layer: reconstruction, health, post-mortems.

Three acceptance contracts dominate:

* **lossless reconstruction** — every traced workunit yields exactly one
  span tree, span-derived aggregates reconcile with
  :class:`~repro.core.metrics.CampaignMetrics` and the fault error
  budget, and critical-path intervals are contiguous and sum exactly to
  each workunit's makespan;
* **sketch accuracy** — the streaming health percentiles land within 2%
  of the exact offline percentiles computed from the reconstructed spans
  (exact during the warm-up regime, P² beyond);
* **zero perturbation** — a health-monitored campaign is bit-identical
  in outcome and in its ``server``/``agent``/``fault`` event stream to an
  unmonitored one, and two identically-seeded runs ``trace diff`` clean.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.boinc import CampaignConfig, scaled_phase1
from repro.faults import FaultPlan
from repro.obs import (
    EVENT_TYPES,
    Fold,
    HealthMonitor,
    HostLedger,
    P2Quantile,
    QuantileSketch,
    RingSink,
    SLOConfig,
    SpanReconstructor,
    Tracer,
    iter_trace,
    read_trace,
    reconstruct,
    reconstruct_file,
)
from repro.obs.health import SLORule
from repro.obs.lifecycle import Lifecycle, View
from repro.obs.postmortem import CampaignReport, diff_traces

#: shared faulted-campaign shape (small enough for the tier-1 suite);
#: crash MTBF is in active days, and the bounded reissue budget keeps the
#: degraded campaign terminating
SCALE, PROTEINS, SEED = 500, 8, 7
FAULT_SPEC = "crash=1,corrupt=0.03,loss=0.05,maxreissue=6"

#: span reconstruction needs the lifecycle channels complete — a big ring
#: and no ``des`` firehose keeps the fixture lossless
LIFECYCLE = ("server", "agent", "fault")


def _lifecycle_tracer(channels=LIFECYCLE):
    return Tracer(sink=RingSink(capacity=2_000_000), channels=channels)


def _digest(events):
    """sha256 over (etype, t_sim, sorted fields); health events excluded
    so monitored and unmonitored streams are comparable."""
    h = hashlib.sha256()
    for e in events:
        if e.channel == "health":
            continue
        h.update(repr((e.etype, e.t_sim, tuple(sorted(e.fields.items())))).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def faulted():
    """One seeded faulted campaign: tracer, result and its span campaign."""
    tracer = _lifecycle_tracer()
    cfg = CampaignConfig(faults=FaultPlan.from_spec(FAULT_SPEC))
    result = scaled_phase1(
        scale=SCALE, n_proteins=PROTEINS, seed=SEED, config=cfg, tracer=tracer,
    ).run()
    campaign = reconstruct(tracer.sink.events)
    return tracer, result, campaign


@pytest.fixture(scope="module")
def monitored():
    """The same campaign with a health monitor riding the trace stream."""
    tracer = _lifecycle_tracer(channels=LIFECYCLE + ("health",))
    cfg = CampaignConfig(faults=FaultPlan.from_spec(FAULT_SPEC))
    monitor = HealthMonitor()
    result = scaled_phase1(
        scale=SCALE, n_proteins=PROTEINS, seed=SEED, config=cfg,
        tracer=tracer, health=monitor,
    ).run()
    campaign = reconstruct(
        e for e in tracer.sink.events if e.channel != "health"
    )
    return tracer, result, campaign


@pytest.fixture(scope="module")
def trace_files(tmp_path_factory):
    """Two identically-seeded campaigns recorded to JSONL."""
    base = tmp_path_factory.mktemp("traces")
    paths = []
    for name in ("a", "b"):
        path = base / f"{name}.jsonl"
        with Tracer.to_jsonl(path, channels=LIFECYCLE) as tracer:
            scaled_phase1(
                scale=900, n_proteins=5, seed=3, tracer=tracer,
            ).run()
        paths.append(path)
    return paths


# -- lossless reconstruction -------------------------------------------------


class TestReconstructionLossless:
    def test_one_tree_per_traced_workunit(self, faulted):
        _, result, campaign = faulted
        assert len(campaign) == result.server.n_workunits
        assert campaign.orphans == 0
        counts = campaign.counts()
        # the campaign ran to completion: every tree closed one way or the
        # other, none left dangling
        assert counts["open"] == 0
        assert counts["validated"] + counts["failed"] == counts["workunits"]

    def test_counts_reconcile_with_campaign_metrics(self, faulted):
        _, result, campaign = faulted
        m = result.metrics()
        counts = campaign.counts()
        assert counts["results"] == m.results_disclosed
        assert counts["validated"] == m.results_effective

    def test_counts_reconcile_with_fault_report(self, faulted):
        tracer, result, campaign = faulted
        report = result.fault_report()
        counts = campaign.counts()
        assert counts["crashes"] == tracer.counts["fault.crash"]
        assert counts["crashes"] == report.injected["crashes"]
        assert counts["report_retries"] == tracer.counts["fault.report_lost"]
        assert counts["report_retries"] == report.injected["report_lost"]
        assert counts["invalid"] == report.invalid_rejected
        assert counts["failed"] == report.workunits_failed

    def test_every_attempt_has_a_terminal_outcome(self, faulted):
        _, _, campaign = faulted
        terminal = {"valid", "invalid", "late", "timed-out", "abandoned"}
        for tree in campaign:
            for attempt in tree.attempts:
                assert attempt.outcome in terminal
                assert attempt.t_end is not None

    def test_critical_path_is_contiguous_and_sums_to_makespan(self, faulted):
        _, _, campaign = faulted
        checked = 0
        for tree in campaign:
            if tree.makespan_s is None:
                continue
            path = tree.critical_path()
            assert path, f"wu {tree.wu} closed without a critical path"
            assert path[0][1] == tree.t_release
            assert path[-1][2] == tree.t_close
            for (_, _, end, _), (_, start, _, _) in zip(path, path[1:]):
                assert start == end  # contiguous, no gaps or overlaps
            total = sum(t1 - t0 for _, t0, t1, _ in path)
            assert total == pytest.approx(tree.makespan_s, abs=1e-6)
            checked += 1
        assert checked > 0

    def test_time_by_category_partitions_the_makespan(self, faulted):
        _, _, campaign = faulted
        tree = campaign.stragglers(1)[0]
        totals = tree.time_by_category()
        assert sum(totals.values()) == pytest.approx(tree.makespan_s, abs=1e-6)
        assert all(v >= 0 for v in totals.values())

    def test_latency_samples_count_the_reported_attempts(self, faulted):
        _, result, campaign = faulted
        samples = campaign.latency_samples()
        counts = campaign.counts()
        assert len(samples["makespan_s"]) == counts["validated"]
        assert len(samples["result_latency_s"]) == counts["results"]
        assert len(samples["active_hours"]) > 0

    def test_stragglers_and_critical_couples(self, faulted):
        _, _, campaign = faulted
        stragglers = campaign.stragglers(5)
        spans = [t.makespan_s for t in stragglers]
        assert spans == sorted(spans, reverse=True)
        couples = campaign.critical_couples(5)
        assert couples
        worst = couples[0]
        assert worst["worst_makespan_s"] == stragglers[0].makespan_s
        assert worst["dominant_s"] > 0

    def test_file_reconstruction_matches_in_memory(self, trace_files):
        path = trace_files[0]
        streamed = reconstruct_file(path)
        buffered = reconstruct(read_trace(path))
        assert streamed.counts() == buffered.counts()
        assert diff_traces(streamed, buffered).identical


# -- quantile sketches --------------------------------------------------------


class TestQuantileSketch:
    def test_exact_during_warmup(self):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=1.0, sigma=1.2, size=200)
        sketch = QuantileSketch("t", quantiles=(0.5, 0.9, 0.99))
        for v in samples:
            sketch.observe(v)
        assert sketch.exact
        for q in (0.5, 0.9, 0.99):
            assert sketch.estimate(q) == pytest.approx(
                float(np.quantile(samples, q)), rel=1e-12
            )

    def test_p2_within_two_percent_post_warmup(self):
        """The streaming estimate after the exact buffer hands over."""
        rng = np.random.default_rng(13)
        samples = rng.lognormal(mean=1.0, sigma=1.0, size=50_000)
        sketch = QuantileSketch("t", quantiles=(0.5, 0.9, 0.99), warmup=0)
        assert not sketch.exact  # pure P² from the first sample
        for v in samples:
            sketch.observe(v)
        for q in (0.5, 0.9, 0.99):
            exact = float(np.quantile(samples, q))
            assert sketch.estimate(q) == pytest.approx(exact, rel=0.02)

    def test_handover_drops_the_buffer(self):
        sketch = QuantileSketch("t", quantiles=(0.5,), warmup=10)
        for v in range(1, 12):
            sketch.observe(float(v))
        assert not sketch.exact
        assert sketch.min <= sketch.estimate(0.5) <= sketch.max
        doc = sketch.as_dict()
        assert doc["exact"] is False
        assert doc["count"] == 11

    def test_untracked_quantile_rejected(self):
        sketch = QuantileSketch("t", quantiles=(0.5,))
        sketch.observe(1.0)
        with pytest.raises(KeyError):
            sketch.estimate(0.75)

    def test_p2_guards(self):
        with pytest.raises(ValueError):
            P2Quantile(1.0)
        with pytest.raises(ValueError):
            P2Quantile(0.5).value

    def test_health_sketches_match_offline_spans(self, monitored):
        """The live percentile within 2% of the exact offline one."""
        _, result, campaign = monitored
        offline = campaign.latency_samples()
        live = result.health.latencies
        pairs = [
            ("health.makespan_s", "makespan_s"),
            ("health.result_latency_s", "result_latency_s"),
            ("health.report_delay_s", "report_delay_s"),
            ("health.active_hours", "active_hours"),
        ]
        for sketch_name, sample_name in pairs:
            samples = offline[sample_name]
            doc = live[sketch_name]
            assert doc["count"] == len(samples)
            for key, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
                exact = float(np.quantile(np.asarray(samples), q))
                assert doc["estimates"][key] == pytest.approx(exact, rel=0.02)


# -- health monitor -----------------------------------------------------------


class TestHealthBitIdentity:
    def test_outcome_identical_with_monitor_attached(self, faulted, monitored):
        _, plain, _ = faulted
        _, with_health, _ = monitored
        assert with_health.completion_time == plain.completion_time
        assert (
            with_health.server.stats.disclosed == plain.server.stats.disclosed
        )
        assert (
            with_health.server.stats.effective == plain.server.stats.effective
        )
        np.testing.assert_array_equal(
            with_health.telemetry.daily_results, plain.telemetry.daily_results
        )

    def test_event_stream_identical_with_monitor_attached(
        self, faulted, monitored
    ):
        """Golden-digest contract: the lifecycle event stream is
        byte-identical; the monitor only adds ``health.*`` events."""
        tracer_plain, _, _ = faulted
        tracer_health, _, _ = monitored
        assert _digest(tracer_health.sink.events) == _digest(
            tracer_plain.sink.events
        )

    def test_slo_report_attached_to_result(self, faulted, monitored):
        _, plain, _ = faulted
        _, with_health, _ = monitored
        assert plain.health is None
        report = with_health.health
        assert report is not None
        assert report.n_observed > 0
        assert report.counters["health.validated"] == float(
            with_health.metrics().results_effective
        )
        rendered = report.render()
        assert "SLO report" in rendered
        for rule in ("queue-starvation", "deadline-storm", "reissue-burn",
                     "validation-backlog"):
            assert rule in rendered
        doc = report.as_dict()
        assert doc["healthy"] == report.healthy
        assert set(doc["rules"]) == set(report.rules)


class TestSLOHysteresis:
    def test_breach_then_clear_with_hysteresis(self):
        monitor = HealthMonitor()  # no tracer bound: transitions are silent
        rule = SLORule("test", threshold=10.0, clear_fraction=0.5)
        rule.update(0.0, 5.0, monitor)
        assert not rule.breached
        rule.update(1.0, 10.0, monitor)
        assert rule.breached and rule.n_breaches == 1
        # hysteresis: dropping below the threshold but above the clear
        # level keeps the breach open (no flapping)
        rule.update(2.0, 7.0, monitor)
        assert rule.breached and rule.n_breaches == 1
        rule.update(3.0, 5.0, monitor)
        assert not rule.breached
        assert rule.breached_s == pytest.approx(2.0)
        rule.update(4.0, 12.0, monitor)
        assert rule.breached and rule.n_breaches == 2
        rule.close(10.0)
        assert rule.breached_s == pytest.approx(2.0 + 6.0)
        assert rule.peak_level == 12.0

    def test_transitions_emit_health_events(self):
        config = SLOConfig(starvation_idle_polls=3)
        monitor = HealthMonitor(config=config)
        out = Tracer(channels=["health"])
        monitor.bind(out)
        feed = Tracer(channels=["agent"])
        for t in (0.0, 1.0, 2.0):
            feed.emit("agent.idle", t_sim=t, host=1)
        # one more poll far outside the sliding day evicts the others and
        # clears the breach
        feed.emit("agent.idle", t_sim=200_000.0, host=1)
        for event in feed.sink.events:
            monitor.fold([event])  # a batch per poll: the rules sweep at each
        assert out.counts["health.slo_breach"] == 1
        assert out.counts["health.slo_clear"] == 1
        breach = out.sink.events[0]
        assert breach.fields["rule"] == "queue-starvation"
        assert breach.fields["level"] >= 3

    def test_reissue_burn_needs_campaign_shape(self):
        monitor = HealthMonitor()
        feed = Tracer(channels=["server"])
        feed.emit("server.reissue", t_sim=0.0, wu=1, reason="deadline")
        monitor.fold(feed.sink.events[:1])
        # without configure_campaign the burn rule has no budget: silent
        assert monitor.rules["reissue-burn"].peak_level == 0.0
        monitor.configure_campaign(n_workunits=2, max_reissues=1)
        feed.emit("server.reissue", t_sim=1.0, wu=1, reason="deadline")
        monitor.fold(feed.sink.events[1:])
        assert monitor.rules["reissue-burn"].peak_level == pytest.approx(1.0)

    def test_finalizing_twice_accounts_an_open_breach_once(self):
        """A caller-supplied monitor may be finalized again (it
        accumulates across runs): the open breach counts once."""
        monitor = HealthMonitor()
        starvation = monitor.rules["queue-starvation"]
        starvation.update(2.0, starvation.threshold, monitor)  # opens at t=2
        for _ in range(2):
            rule = monitor.finalize(10.0).rules["queue-starvation"]
            assert rule["breached_at_end"]
            assert rule["breached_s"] == pytest.approx(8.0)
        # a later horizon adds only the time since the last close
        starvation.close(12.0)
        assert starvation.breached_s == pytest.approx(10.0)


# -- refold == live -----------------------------------------------------------

#: the faulted campaign the refold contract is checked on (full trace)
REFOLD_FAULTS = "crash=5,corrupt=0.05,sabotage=0.02,loss=0.1"


@pytest.fixture(scope="module", params=(7, 11), ids=lambda s: f"seed{s}")
def recorded(request, tmp_path_factory):
    """One seeded faulted campaign recorded in full to JSONL with the
    health monitor live, and the same campaign recorded to a ring."""
    seed = request.param
    path = tmp_path_factory.mktemp("refold") / "trace.jsonl"

    def campaign(tracer, **observers):
        return scaled_phase1(
            scale=300, n_proteins=10, seed=seed, tracer=tracer,
            config=CampaignConfig(faults=FaultPlan.from_spec(REFOLD_FAULTS)),
            **observers,
        ).run()

    with Tracer.to_jsonl(path) as tracer:
        result = campaign(tracer, health=True)
    ring = Tracer()
    campaign(ring)
    assert len(ring.sink) == ring.n_events  # the ring kept every event
    return path, result, ring.sink.events


class TestRefoldEqualsLive:
    """Every observer is a view over the one ``Lifecycle`` fold: the
    recorded trace refolds into exactly the report the live tee
    produced."""

    def test_health_refolds_into_the_live_report(self, recorded):
        path, result, _ = recorded
        monitor = HealthMonitor()
        monitor.configure_campaign(
            result.server.n_workunits, result.server.config.max_reissues
        )
        report = monitor.fold(iter_trace(path)).finalize(result.health.t_end)
        assert report.n_observed > 0
        assert report.as_dict() == result.health.as_dict()

    def test_spans_from_the_live_ring_equal_the_file(self, recorded):
        path, _, ring_events = recorded
        from_ring = reconstruct(ring_events)
        from_file = reconstruct_file(path)
        assert len(from_ring) > 0
        assert from_ring.trees == from_file.trees
        assert (from_ring.n_events, from_ring.orphans, from_ring.t_end) == (
            from_file.n_events, from_file.orphans, from_file.t_end
        )

    def test_every_handler_names_a_declared_event_type(self):
        """A mistyped handler key would never fire; the taxonomy is the
        closed world every emit is checked against.  The lifecycle table
        is the one fold, and it handles every type a view reads."""
        assert Fold.__subclasses__() == [Lifecycle]
        assert sorted(set(Lifecycle.HANDLERS) - set(EVENT_TYPES)) == []
        for view in (HealthMonitor, HostLedger, SpanReconstructor):
            assert issubclass(view, View)
            assert sorted(view.EVENTS - set(Lifecycle.HANDLERS)) == [], view
        assert set(Lifecycle.HANDLERS) == (
            HealthMonitor.EVENTS | HostLedger.EVENTS | SpanReconstructor.EVENTS
        )


# -- post-mortems -------------------------------------------------------------


class TestTraceDiff:
    def test_identically_seeded_runs_diff_clean(self, trace_files):
        diff = diff_traces(*trace_files)
        assert diff.identical
        assert diff.n_workunits > 0
        assert "agree" in diff.render()
        assert "0 divergences" in diff.render()

    def test_divergence_is_localized(self, trace_files):
        a = reconstruct_file(trace_files[0])
        b = reconstruct_file(trace_files[1])
        dropped = max(b.trees)
        del b.trees[dropped]
        victim = min(b.trees)
        b.trees[victim].attempts[0].host += 1
        diff = diff_traces(a, b)
        assert not diff.identical
        assert diff.only_in_a == [dropped]
        assert any(
            wu == victim and fieldname == "hosts"
            for wu, fieldname, _, _ in diff.divergences
        )
        rendered = diff.render()
        assert "diverge" in rendered
        assert str(victim) in rendered


class TestCampaignReport:
    def test_terminal_render_sections(self, faulted):
        tracer, result, _ = faulted
        report = CampaignReport(
            campaign=reconstruct(tracer.sink.events),
            fault_rows=result.fault_report().rows(),
        )
        text = report.render()
        assert "CAMPAIGN POST-MORTEM" in text
        assert "Summary" in text
        assert "Throughput by paper phase" in text
        assert "control period" in text
        assert "Span latencies" in text
        assert "Fault error budget" in text
        assert "fault plan" in text  # the live FaultReport rows were used
        assert "Top critical-path couples" in text

    def test_markdown_render(self, faulted):
        tracer, _, _ = faulted
        report = CampaignReport(campaign=reconstruct(tracer.sink.events))
        text = report.render("md")
        assert text.startswith("# Campaign post-mortem")
        assert "## Summary" in text
        assert "| --" in text  # markdown table separators

    def test_summary_reconciles_with_counts(self, faulted):
        tracer, _, campaign = faulted
        report = CampaignReport(campaign=reconstruct(tracer.sink.events))
        rows = dict(
            (row[0], row[1]) for row in report.summary_rows()
        )
        assert rows["workunits traced"] == campaign.counts()["workunits"]
        assert rows["results reported"] == campaign.counts()["results"]

    def test_from_trace_matches_from_events(self, trace_files):
        path = trace_files[0]
        from_file = CampaignReport.from_trace(path)
        from_events = CampaignReport(campaign=reconstruct(read_trace(path)))
        assert from_file.summary_rows() == from_events.summary_rows()
        assert from_file.straggler_rows() == from_events.straggler_rows()

    def test_health_section_rendered_when_present(self, monitored):
        tracer, result, _ = monitored
        report = CampaignReport(
            campaign=reconstruct(
                e for e in tracer.sink.events if e.channel != "health"
            ),
            health=result.health,
        )
        text = report.render()
        assert "Live SLO report" in text
        assert "queue-starvation" in text

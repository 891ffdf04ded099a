"""Tests for repro.obs: tracing, metrics registry, profiling, replay."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.boinc.simulator import Telemetry, scaled_phase1
from repro.obs import (
    EVENT_TYPES,
    TRACE_SCHEMA_VERSION,
    MetricsRegistry,
    Profiler,
    RingSink,
    TraceEvent,
    Tracer,
    channel_of,
    format_timeline,
    read_trace,
    summarize_trace,
)


class TestTracer:
    def test_emit_records_and_counts(self):
        tracer = Tracer()
        tracer.emit("server.issue", t_sim=10.0, wu=1, host=2)
        tracer.emit("server.issue", t_sim=11.0, wu=1, host=3)
        assert tracer.counts["server.issue"] == 2
        assert tracer.n_events == 2
        events = tracer.sink.events
        assert events[0].etype == "server.issue"
        assert events[0].channel == "server"
        assert events[0].t_sim == 10.0
        assert events[0].fields == {"wu": 1, "host": 2}

    def test_unknown_event_type_rejected(self):
        with pytest.raises(ValueError, match="unknown event type"):
            Tracer().emit("server.nonsense")

    def test_reserved_field_keys_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            Tracer().emit("server.issue", type="oops")

    def test_channel_filter(self):
        tracer = Tracer(channels=["server"])
        tracer.emit("server.issue", wu=1)
        tracer.emit("agent.fetch", host=1)  # filtered out
        assert tracer.counts == {"server.issue": 1}

    def test_ring_capacity_bounds_memory_not_counts(self):
        tracer = Tracer(sink=RingSink(capacity=5))
        for i in range(20):
            tracer.emit("des.fire", t_sim=float(i), callback="f")
        assert len(tracer.sink) == 5
        assert tracer.counts["des.fire"] == 20
        # the ring keeps the most recent events
        assert [e.t_sim for e in tracer.sink] == [15.0, 16.0, 17.0, 18.0, 19.0]


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer.to_jsonl(path) as tracer:
            tracer.emit("server.issue", t_sim=5.0, wu=3, host=7)
            tracer.emit("agent.fetch", t_sim=6.5, host=7, wu=3)
            tracer.emit("docking.engine", engine="batched", n_workers=2)
        events = read_trace(path)
        assert [e.etype for e in events] == [
            "server.issue", "agent.fetch", "docking.engine",
        ]
        assert events[0].t_sim == 5.0
        assert events[0].fields == {"wu": 3, "host": 7}
        assert events[2].t_sim is None  # docking events are wall-clock only
        assert events[2].fields["engine"] == "batched"

    def test_schema_version_stamped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Tracer.to_jsonl(path) as tracer:
            tracer.emit("server.issue", wu=1, host=1)
        doc = json.loads(path.read_text().splitlines()[0])
        assert doc["v"] == TRACE_SCHEMA_VERSION
        assert doc["type"] == "server.issue"
        assert doc["ch"] == "server"

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"v": 999, "type": "server.issue"}) + "\n")
        with pytest.raises(ValueError, match="schema version"):
            read_trace(path)


class TestMetricsRegistry:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("x.total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = MetricsRegistry().gauge("x.depth")
        g.set(4)
        g.inc()
        g.dec(2)
        assert g.value == 3.0

    def test_histogram_le_semantics(self):
        h = MetricsRegistry().histogram("x.hours", buckets=(1.0, 4.0, 8.0))
        for v in (0.5, 1.0, 3.0, 9.0):
            h.observe(v)
        # le-1.0 gets 0.5 and 1.0; le-4.0 gets 3.0; +inf gets 9.0
        assert list(h.bucket_counts) == [2, 1, 0, 1]
        assert h.count == 4
        assert h.mean == pytest.approx(13.5 / 4)

    def test_histogram_bad_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("a", buckets=())
        with pytest.raises(ValueError):
            reg.histogram("b", buckets=(2.0, 1.0))

    def test_daily_series(self):
        s = MetricsRegistry().daily_series("x.daily", n_days=3, dtype=np.int64)
        s.add(0)
        s.add(2, 5)
        assert s.values.tolist() == [1, 0, 5]
        with pytest.raises(IndexError):
            s.add(3)

    def test_get_or_create_and_type_guard(self):
        reg = MetricsRegistry()
        assert reg.counter("x.total") is reg.counter("x.total")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x.total")

    def test_as_dict_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc()
        reg.histogram("a.hist", buckets=(1.0,)).observe(2.0)
        doc = json.loads(json.dumps(reg.as_dict()))
        assert list(doc) == ["a.hist", "b.count"]  # sorted names
        assert doc["b.count"]["kind"] == "counter"
        assert doc["a.hist"]["bucket_counts"] == [0, 1]


class TestProfiler:
    def test_record_and_timed(self):
        prof = Profiler()
        prof.record("a", 0.5)
        prof.record("a", 1.5)
        with prof.timed("b"):
            pass
        stats = prof.stats()
        assert stats["a"] == (2, 2.0)
        assert stats["b"][0] == 1 and stats["b"][1] >= 0.0
        assert prof.summary_rows()[0][0] == "a"  # heaviest first
        assert "a" in prof.render()

    def test_to_dict_matches_render_order(self):
        prof = Profiler()
        prof.record("light", 0.25)
        prof.record("heavy", 2.0)
        prof.record("heavy", 2.0)
        doc = json.loads(json.dumps(prof.to_dict()))  # JSON-safe
        assert doc["total_seconds"] == pytest.approx(4.25)
        assert [s["section"] for s in doc["sections"]] == ["heavy", "light"]
        heavy = doc["sections"][0]
        assert heavy["calls"] == 2
        assert heavy["total_s"] == pytest.approx(4.0)
        assert heavy["mean_ms"] == pytest.approx(2000.0)


class TestTelemetryOnRegistry:
    def test_daily_buckets_unchanged(self):
        t = Telemetry(horizon_s=14 * 86400.0)
        t.record_result(0.5 * 86400, 100.0)
        t.record_result(1.5 * 86400, 200.0)
        assert t.daily_results[0] == 1
        assert t.daily_cpu_s[1] == 200.0

    def test_registry_holds_every_series(self):
        t = Telemetry(horizon_s=7 * 86400.0)
        t.record_result(0.0, 10.0)
        t.record_validation(0.0)
        t.record_credit(2.0)
        t.record_shipment(10.0, 1024)
        t.record_workunit_run(20.0, 13 * 3600.0, 3.3 * 3600.0)
        doc = t.registry.as_dict()
        assert doc["campaign.daily_results"]["values"][0] == 1
        assert doc["campaign.daily_useful"]["values"][0] == 1
        assert doc["campaign.claimed_credit_points"]["value"] == 2.0
        assert doc["campaign.shipped_bytes"]["value"] == 1024
        assert doc["campaign.run_active_hours"]["count"] == 1
        assert t.total_claimed_credit == 2.0

    def test_clamp_is_counted_and_traced(self):
        tracer = Tracer()
        t = Telemetry(horizon_s=7 * 86400.0, tracer=tracer)
        t.record_result(1e9, 1.0)  # far beyond the horizon
        assert t.daily_results[-1] == 1  # still lands in the edge bucket
        assert t.clamped_samples == 1
        assert tracer.counts["telemetry.clamp"] == 1
        event = tracer.sink.events[0]
        assert event.t_sim == 1e9
        assert event.fields["day"] > event.fields["horizon_days"]

    def test_in_horizon_samples_not_clamped(self):
        t = Telemetry(horizon_s=7 * 86400.0)
        t.record_result(3 * 86400.0, 1.0)
        assert t.clamped_samples == 0


class TestCampaignTraceReconciliation:
    """A traced scaled campaign's event counts match CampaignResult."""

    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer(sink=RingSink(capacity=1024))
        result = scaled_phase1(scale=700, n_proteins=6, tracer=tracer).run()
        return tracer, result

    def test_result_events_match_disclosed(self, traced):
        tracer, result = traced
        m = result.metrics()
        assert tracer.counts["server.result"] == m.results_disclosed
        assert tracer.counts["agent.report"] == m.results_disclosed

    def test_validation_events_match_effective(self, traced):
        tracer, result = traced
        assert tracer.counts["server.validate"] == result.metrics().results_effective
        assert tracer.counts["server.release"] == result.server.n_workunits
        assert tracer.counts["server.campaign_complete"] == 1

    def test_batch_events_match_shipments(self, traced):
        tracer, result = traced
        assert (
            tracer.counts["server.batch_complete"]
            == len(result.telemetry.shipments)
        )

    def test_des_fire_matches_kernel_counter(self, traced):
        tracer, result = traced
        assert tracer.counts["des.fire"] == result.server.sim.events_processed

    def test_issue_covers_fetch_and_reissues(self, traced):
        tracer, result = traced
        assert tracer.counts["server.issue"] == tracer.counts["agent.fetch"]

    def test_tracing_does_not_perturb_the_trajectory(self, traced):
        _, result = traced
        baseline = scaled_phase1(scale=700, n_proteins=6).run()
        assert result.completion_time == baseline.completion_time
        assert (
            result.server.stats.disclosed == baseline.server.stats.disclosed
        )
        np.testing.assert_array_equal(
            result.telemetry.daily_results, baseline.telemetry.daily_results
        )

    def test_export_carries_the_registry(self, traced, tmp_path):
        _, result = traced
        result.export(tmp_path)
        doc = json.loads((tmp_path / "metrics.json").read_text())
        registry = doc["registry"]
        assert (
            sum(registry["campaign.daily_results"]["values"])
            == result.metrics().results_disclosed
        )
        assert registry["telemetry.clamped_samples"]["value"] == float(
            result.telemetry.clamped_samples
        )

    def test_export_with_profiler_writes_profile_json(self, traced, tmp_path):
        _, result = traced
        prof = Profiler()
        prof.record("des.tick", 1.5)
        paths = result.export(tmp_path, profiler=prof)
        assert (tmp_path / "profile.json") in paths
        doc = json.loads((tmp_path / "profile.json").read_text())
        assert doc["total_seconds"] == pytest.approx(1.5)
        assert doc["sections"][0]["section"] == "des.tick"


class TestDesCallbackNames:
    """des.* events and profiler sections name the real call sites —
    the agent's continuation chain is bound methods, not lambdas."""

    @pytest.fixture(scope="class")
    def instrumented(self):
        tracer = Tracer(channels=["des"])
        profiler = Profiler()
        scaled_phase1(
            scale=700, n_proteins=6, tracer=tracer, profiler=profiler
        ).run()
        return tracer, profiler

    def test_no_lambda_callbacks_in_trace(self, instrumented):
        tracer, _ = instrumented
        names = {e.fields["callback"] for e in tracer.sink.events}
        assert names  # the campaign did trace des events
        assert not [n for n in names if "<lambda>" in n]

    def test_availability_waits_attributed_to_when_available(self, instrumented):
        tracer, _ = instrumented
        names = {e.fields["callback"] for e in tracer.sink.events}
        assert "VolunteerAgent._when_available" in names
        assert "GridServer._on_timeout" in names

    def test_profiler_sections_are_named(self, instrumented):
        _, profiler = instrumented
        sections = [name for name in profiler.stats() if name.startswith("des.")]
        assert "des.VolunteerAgent._when_available" in sections
        assert not [s for s in sections if "<lambda>" in s]


class TestReplay:
    def _events(self):
        tracer = Tracer()
        tracer.emit("server.issue", t_sim=0.0, wu=1, host=2)
        tracer.emit("server.issue", t_sim=86400.0, wu=2, host=3)
        tracer.emit("agent.fetch", t_sim=86400.0, host=3, wu=2)
        tracer.emit("docking.engine", engine="batched", n_workers=1)
        return tracer.sink.events

    def test_summarize(self):
        summary = summarize_trace(self._events())
        assert summary.n_events == 4
        assert summary.by_type["server.issue"] == 2
        assert summary.by_channel == {"server": 2, "agent": 1, "docking": 1}
        assert summary.sim_span_days == pytest.approx(1.0)
        assert summary.rows()[0][0] == "agent.fetch"  # channel-sorted

    def test_timeline_filter_and_limit(self):
        events = self._events()
        lines = format_timeline(events, channel="server")
        assert len(lines) == 2 and all("server.issue" in l for l in lines)
        lines = format_timeline(events, limit=2)
        assert len(lines) == 3  # head + ellipsis + tail
        assert "elided" in lines[1]

    def test_filter_by_workunit(self):
        from repro.obs.replay import filter_events

        only = list(filter_events(self._events(), workunit=2))
        assert [e.etype for e in only] == ["server.issue", "agent.fetch"]
        assert all(e.fields["wu"] == 2 for e in only)

    def test_filter_by_host_drops_fieldless_events(self):
        from repro.obs.replay import filter_events

        only = list(filter_events(self._events(), host=3))
        assert len(only) == 2
        # the docking.engine event carries no host field: dropped
        assert all(e.fields.get("host") == 3 for e in only)

    def test_filters_compose(self):
        from repro.obs.replay import filter_events

        only = list(
            filter_events(self._events(), channel="server", workunit=1)
        )
        assert len(only) == 1 and only[0].fields == {"wu": 1, "host": 2}

    def test_filter_by_campaign_drops_unstamped_events(self):
        from repro.obs.replay import filter_events

        tracer = Tracer()
        tracer.emit("server.issue", t_sim=0.0, wu=1, host=2, campaign="hcmd")
        tracer.emit("server.issue", t_sim=1.0, wu=9, host=2, campaign="other")
        tracer.emit("agent.fetch", t_sim=1.0, host=2, wu=1)  # host-level: no stamp
        only = list(filter_events(tracer.sink.events, campaign="hcmd"))
        assert [e.fields["wu"] for e in only] == [1]
        # composes with the other selectors
        assert not list(
            filter_events(tracer.sink.events, campaign="hcmd", workunit=9)
        )

    def test_timeline_streams_with_bounded_memory(self):
        """format_timeline accepts a one-shot generator and keeps only
        head + tail lines resident."""
        def stream():
            tracer = Tracer()
            for i in range(100):
                tracer.emit("des.fire", t_sim=float(i), callback="f")
            yield from tracer.sink.events

        lines = format_timeline(stream(), limit=10)
        assert len(lines) == 11  # 5 head + ellipsis + 5 tail
        assert "90 events elided" in lines[5]

    def test_channel_of(self):
        assert channel_of("server.issue") == "server"

    def test_every_event_type_has_a_channelful_name(self):
        for etype in EVENT_TYPES:
            assert "." in etype and channel_of(etype)


class TestTraceCli:
    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        with Tracer.to_jsonl(path) as tracer:
            tracer.emit("server.issue", t_sim=0.0, wu=1, host=2)
            tracer.emit("server.validate", t_sim=3600.0, wu=1, regime="quorum")
        assert main(["trace", str(path), "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "server.issue" in out
        assert "server.validate" in out
        assert "regime=quorum" in out

    def test_simulate_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "campaign.jsonl"
        code = main([
            "simulate", "--scale", "700", "--proteins", "6",
            "--trace", str(path), "--trace-channels", "server,telemetry",
        ])
        assert code == 0
        events = read_trace(path)
        assert events and all(
            e.channel in ("server", "telemetry") for e in events
        )
        assert "repro-hcmd trace" in capsys.readouterr().out

    def _lifecycle_trace(self, path, host=2):
        with Tracer.to_jsonl(path) as tracer:
            tracer.emit("server.release", t_sim=0.0, wu=1, batch=0)
            tracer.emit("server.issue", t_sim=10.0, wu=1, host=host, copy=0)
            tracer.emit("agent.fetch", t_sim=20.0, wu=1, host=host, copy=0)
            tracer.emit("server.issue", t_sim=10.0, wu=2, host=9, copy=0)
            tracer.emit(
                "server.result", t_sim=50.0, wu=1, host=host, copy=0,
                valid=True,
            )
            tracer.emit("server.validate", t_sim=60.0, wu=1, regime="quorum")
        return path

    def test_trace_workunit_filter(self, tmp_path, capsys):
        from repro.cli import main

        path = self._lifecycle_trace(tmp_path / "t.jsonl")
        assert main(["trace", str(path), "--workunit", "1"]) == 0
        out = capsys.readouterr().out
        assert "workunit=1" in out  # the selection row
        assert "wu=1" in out
        assert "wu=2" not in out

    def test_trace_host_filter(self, tmp_path, capsys):
        from repro.cli import main

        path = self._lifecycle_trace(tmp_path / "t.jsonl")
        assert main(["trace", str(path), "--host", "9"]) == 0
        out = capsys.readouterr().out
        assert "host=9" in out
        assert "wu=1" not in out

    def test_trace_diff_identical_exit_zero(self, tmp_path, capsys):
        from repro.cli import main

        a = self._lifecycle_trace(tmp_path / "a.jsonl")
        b = self._lifecycle_trace(tmp_path / "b.jsonl")
        assert main(["trace", "diff", str(a), str(b)]) == 0
        assert "agree" in capsys.readouterr().out

    def test_trace_diff_divergent_exit_one(self, tmp_path, capsys):
        from repro.cli import main

        a = self._lifecycle_trace(tmp_path / "a.jsonl")
        b = self._lifecycle_trace(tmp_path / "b.jsonl", host=5)
        assert main(["trace", "diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "diverge" in out
        assert "hosts" in out

    def test_trace_diff_usage_errors(self, tmp_path, capsys):
        from repro.cli import main

        a = self._lifecycle_trace(tmp_path / "a.jsonl")
        assert main(["trace", "diff", str(a)]) == 2
        assert main(["trace", str(a), str(a)]) == 2

    def test_report_trace_markdown(self, tmp_path, capsys):
        from repro.cli import main

        path = self._lifecycle_trace(tmp_path / "t.jsonl")
        assert main(["report", "--trace", str(path), "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Campaign post-mortem")
        assert "## Summary" in out

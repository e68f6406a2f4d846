"""Serving-level tests for request tracing, burn-rate alerts and the
live report.

The PR-7 acceptance criteria, pinned as unit/integration tests:

* every admitted request — completions *and* sheds — exports exactly
  one root ``request`` span with a fully parented child tree;
* the critical-path segments partition the end-to-end latency exactly
  (residual under 1 simulated ns);
* a sustained deadline/shed breach trips the fast burn-rate window
  while a healthy baseline trips nothing (multi-window + hysteresis);
* ``--live-report`` emits deterministic periodic status lines.
"""

import bisect
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import (
    DEFAULT_OBJECTIVES,
    BurnRateMonitor,
    BurnRateRule,
    LiveReport,
    SLObjective,
    default_rules,
    format_breakdown,
    orphan_spans,
    request_breakdowns,
    request_roots,
    slowest_request,
)
from repro.serving import (
    QueryService,
    ShardManager,
    SLOTracker,
    TenantSpec,
    WorkloadDriver,
)
from repro.telemetry import chrome_trace_events, telemetry_session


class _ResummedLog:
    """Oracle event log: re-sums the bad flags of every window."""

    def __init__(self):
        self.events = []  # (t_ns, bad) kept time-sorted

    @property
    def times(self):
        return [t for t, _ in self.events]

    def add(self, t_ns, bad):
        bisect.insort(self.events, (t_ns, 1 if bad else 0))

    def window(self, t_ns, window_ns):
        lo = bisect.bisect_right(self.events, (t_ns - window_ns, 1))
        hi = bisect.bisect_right(self.events, (t_ns, 1))
        return hi - lo, sum(flag for _, flag in self.events[lo:hi])

DIMS = 8
TENANTS = [TenantSpec("a", k=5), TenantSpec("b", k=3)]


@pytest.fixture
def data(rng):
    return rng.random((80, DIMS))


def run_traced(data, *, rate_qps=1_000.0, n_requests=30, monitor=None,
               live_report=None, queue_capacity=64, **service_kwargs):
    """One traced serving run; returns (responses, trace events, service)."""
    manager = ShardManager(data, n_shards=2)
    driver = WorkloadDriver(data, TENANTS, seed=13)
    requests = driver.open_loop(rate_qps, n_requests)
    with telemetry_session() as tele:
        service = QueryService(
            manager,
            TENANTS,
            max_batch=4,
            queue_capacity=queue_capacity,
            monitor=monitor,
            live_report=live_report,
            **service_kwargs,
        )
        responses = service.run(requests)
        events = chrome_trace_events(tele)
    return responses, events, service


class TestRequestTrees:
    def test_one_root_per_terminal_response(self, data):
        responses, events, _ = run_traced(data)
        roots = request_roots(events)
        assert len(roots) == len(responses) == 30
        root_ids = [r["args"]["request_id"] for r in roots]
        assert sorted(root_ids) == sorted(r.request_id for r in responses)

    def test_trace_ids_are_unique_per_request(self, data):
        _, events, _ = run_traced(data)
        traces = [r["args"]["trace_id"] for r in request_roots(events)]
        assert len(set(traces)) == len(traces)

    def test_no_orphan_spans(self, data):
        _, events, _ = run_traced(data)
        assert orphan_spans(events) == []

    def test_sheds_still_export_a_tree(self, data):
        # 2-deep queue under a hard burst: most requests shed
        responses, events, service = run_traced(
            data,
            rate_qps=1e7,
            queue_capacity=2,
            policy="reject",
        )
        assert service.tracker.shed > 0
        roots = request_roots(events)
        assert len(roots) == len(responses)
        shed_roots = [r for r in roots if not r["args"]["ok"]]
        assert len(shed_roots) == service.tracker.shed
        assert all(r["args"]["shed_reason"] for r in shed_roots)

    def test_segments_partition_latency_exactly(self, data):
        responses, events, _ = run_traced(data, rate_qps=50_000.0)
        breakdowns = request_breakdowns(events)
        assert len(breakdowns) == len(responses)
        for b in breakdowns:
            assert abs(b["residual_ns"]) < 1.0
        # at least one request should show real queue/wave attribution
        assert any(b["segments"].get("wave_ns", 0) > 0 for b in breakdowns)

    def test_response_segments_mirror_the_tree(self, data):
        responses, events, _ = run_traced(data)
        by_id = {b["request_id"]: b for b in request_breakdowns(events)}
        for response in responses:
            if not response.ok:
                continue
            tree = by_id[response.request_id]
            total = sum(response.segments.values())
            assert total == pytest.approx(response.latency_ns, abs=1.0)
            for key, dur in tree["segments"].items():
                assert response.segments[key] == pytest.approx(dur)

    def test_wave_spans_carry_shard_attribution(self, data):
        _, events, _ = run_traced(data)
        breakdowns = [b for b in request_breakdowns(events) if b["ok"]]
        waves = [w for b in breakdowns for w in b["waves"]]
        assert waves, "completed requests should export shard waves"
        for wave in waves:
            assert wave["shard"] is not None
            assert wave["pim_ns"] >= 0

    def test_untraced_run_exports_nothing(self, data):
        manager = ShardManager(data, n_shards=2)
        requests = WorkloadDriver(data, TENANTS, seed=13).open_loop(1e3, 10)
        service = QueryService(manager, TENANTS)
        responses = service.run(requests)
        assert all(r.ok for r in responses)
        assert all(r.segments is None for r in responses)

    def test_traced_run_is_deterministic(self, data):
        _, first, _ = run_traced(data)
        _, second, _ = run_traced(data)
        assert first == second


class TestCriticalPathHelpers:
    def test_slowest_request_picks_max_ok_latency(self, data):
        _, events, _ = run_traced(data)
        worst = slowest_request(events)
        latencies = [b["latency_ns"] for b in request_breakdowns(events)
                     if b["ok"]]
        assert worst["latency_ns"] == max(latencies)

    def test_slowest_request_none_without_completions(self):
        assert slowest_request([]) is None

    def test_format_breakdown_renders_segments_and_waves(self, data):
        _, events, _ = run_traced(data)
        text = format_breakdown(slowest_request(events))
        assert "us" in text
        assert "wave shard" in text
        assert "%" in text


def bad_response(t_ns, *, ok=False, reason="deadline"):
    """A minimal terminal-response stand-in for monitor unit tests."""

    class _R:
        pass

    r = _R()
    r.ok = ok
    r.shed_reason = None if ok else reason
    r.completion_ns = t_ns
    return r


class TestBurnRateMonitor:
    def test_objective_and_rule_validation(self):
        with pytest.raises(ValueError, match="budget"):
            SLObjective("bad", 0.0)
        with pytest.raises(ValueError, match="short window"):
            BurnRateRule("bad", 10.0, 20.0, 2.0)
        with pytest.raises(ValueError, match="threshold"):
            BurnRateRule("bad", 20.0, 10.0, 0.0)

    def test_default_rules_shape(self):
        fast, slow = default_rules(1_000.0)
        assert fast.severity == "page" and slow.severity == "ticket"
        assert fast.short_window_ns == 250.0
        assert slow.long_window_ns == 6_000.0
        assert {o.name for o in DEFAULT_OBJECTIVES} == {
            "p99_deadline", "shed_rate", "exactness",
        }

    def test_sustained_sheds_trip_fast_window_once(self):
        monitor = BurnRateMonitor(base_window_ns=1_000.0)
        for i in range(20):
            monitor.observe(bad_response(float(i * 10), reason="queue_full"))
        fired = [(a["objective"], a["rule"]) for a in monitor.alerts]
        assert fired.count(("shed_rate", "fast")) == 1  # hysteresis
        assert ("shed_rate", "fast") in monitor.firing()

    def test_recovery_then_breach_alerts_again(self):
        monitor = BurnRateMonitor(base_window_ns=1_000.0)
        for i in range(20):
            monitor.observe(bad_response(float(i * 10), reason="queue_full"))
        # a healthy stretch clears the windows and resets the latch
        for i in range(200):
            monitor.observe(bad_response(5_000.0 + i * 10, ok=True))
        assert ("shed_rate", "fast") not in monitor.firing()
        for i in range(20):
            monitor.observe(
                bad_response(20_000.0 + i * 10, reason="queue_full")
            )
        fired = [a for a in monitor.alerts
                 if (a["objective"], a["rule"]) == ("shed_rate", "fast")]
        assert len(fired) == 2

    def test_healthy_stream_never_alerts(self):
        monitor = BurnRateMonitor(base_window_ns=1_000.0)
        for i in range(200):
            monitor.observe(bad_response(float(i * 10), ok=True))
        assert monitor.alerts == []
        assert monitor.firing() == []

    def test_min_events_suppresses_early_spikes(self):
        monitor = BurnRateMonitor(base_window_ns=1_000.0, min_events=12)
        for i in range(11):  # all bad, but below the evidence floor
            monitor.observe(bad_response(float(i * 10)))
        assert monitor.alerts == []

    def test_late_deadline_completion_counts_against_p99(self):
        monitor = BurnRateMonitor(base_window_ns=1_000.0)
        for i in range(20):
            monitor.observe(
                bad_response(float(i * 10), ok=True), deadline_ns=1.0
            )
        assert any(a["objective"] == "p99_deadline" for a in monitor.alerts)

    def test_exactness_violations_burn_the_tight_budget(self):
        monitor = BurnRateMonitor(base_window_ns=1_000.0)
        for i in range(11):
            monitor.observe(bad_response(float(i * 10), ok=True))
        monitor.record_violation(115.0)
        assert any(a["objective"] == "exactness" for a in monitor.alerts)

    def test_unknown_objective_is_ignored(self):
        monitor = BurnRateMonitor(base_window_ns=1_000.0)
        monitor.record("made_up", 1.0, True)  # no raise, no state
        assert monitor.alerts == []

    def test_alerts_land_on_the_recorder(self):
        with telemetry_session() as tele:
            monitor = BurnRateMonitor(base_window_ns=1_000.0)
            for i in range(20):
                monitor.observe(bad_response(float(i * 10)))
            alert_events = [e for e in tele.events
                            if e["category"] == "alert"]
            assert len(alert_events) == len(monitor.alerts)
            labeled = [i for i in tele.metrics
                       if i.name == "observability.alerts"]
            assert sum(i.value for i in labeled) == len(monitor.alerts)

    def test_snapshot_reports_burn_per_window(self):
        monitor = BurnRateMonitor(base_window_ns=1_000.0)
        for i in range(20):
            monitor.observe(bad_response(float(i * 10), reason="queue_full"))
        snap = monitor.snapshot()
        windows = snap["shed_rate"]["windows"]
        assert windows["fast"]["firing"] is True
        assert windows["fast"]["burn_rate"] == pytest.approx(
            1.0 / 0.05
        )  # 100% sheds against a 5% budget

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n=st.integers(min_value=50, max_value=600),
        bad_rate=st.sampled_from([0.0, 0.02, 0.2, 0.6]),
        jitter_ns=st.sampled_from([0.0, 50.0, 2_000.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_running_counts_match_resumming_windows(
        self, seed, n, bad_rate, jitter_ns
    ):
        """Out-of-order replay: running counts == re-summed windows."""
        rng = np.random.default_rng(seed)
        arrival = np.cumsum(rng.exponential(40.0, size=n))
        stamps = np.round(arrival + rng.uniform(-jitter_ns, 0.0, size=n))
        names = [o.name for o in DEFAULT_OBJECTIVES]
        fast, oracle = (
            BurnRateMonitor(base_window_ns=1_000.0) for _ in range(2)
        )
        oracle._events = {name: _ResummedLog() for name in names}
        for t, bad, which in zip(
            stamps, rng.random(n) < bad_rate, rng.integers(0, 3, size=n)
        ):
            for monitor in (fast, oracle):
                monitor.record(names[which], float(t), bool(bad))
        assert fast.alerts == oracle.alerts
        assert fast.firing() == oracle.firing()
        for t in (None, float(stamps.max()) / 2.0):
            assert fast.snapshot(t) == oracle.snapshot(t)


class TestServiceAlerting:
    def test_overload_trips_shed_alert_healthy_does_not(self, data):
        breach = BurnRateMonitor(base_window_ns=10_000.0)
        run_traced(
            data,
            rate_qps=1e7,
            n_requests=60,
            queue_capacity=2,
            policy="reject",
            monitor=breach,
        )
        assert any(
            a["objective"] == "shed_rate" and a["rule"] == "fast"
            for a in breach.alerts
        )
        healthy = BurnRateMonitor(base_window_ns=10_000.0)
        run_traced(data, rate_qps=1_000.0, n_requests=60, monitor=healthy)
        assert healthy.alerts == []

    def test_summary_exposes_alerts_and_burn(self, data):
        monitor = BurnRateMonitor(base_window_ns=10_000.0)
        _, _, service = run_traced(data, monitor=monitor)
        summary = service.summary()
        assert summary["alerts"] == []
        assert set(summary["burn"]) == {o.name for o in DEFAULT_OBJECTIVES}


class TestLiveReport:
    def test_period_must_be_positive(self):
        with pytest.raises(ValueError, match="period"):
            LiveReport(period_ns=0.0)

    def test_emits_periodic_lines(self, data):
        out = io.StringIO()
        report = LiveReport(period_ns=100_000.0, out=out)
        run_traced(data, rate_qps=50_000.0, live_report=report)
        assert report.lines, "a 600 us run should cross 100 us periods"
        assert report.lines[0].startswith("live report")
        assert out.getvalue().count("\n") == len(report.lines)
        for line in report.lines[1:]:
            assert "done=" in line and "p99=" in line and "shards:" in line

    def test_burn_column_present_with_monitor(self, data):
        report = LiveReport(period_ns=100_000.0, out=io.StringIO())
        monitor = BurnRateMonitor(base_window_ns=100_000.0)
        run_traced(
            data, rate_qps=50_000.0, live_report=report, monitor=monitor
        )
        assert any("burn=" in line for line in report.lines)

    def test_report_is_deterministic(self, data):
        first = LiveReport(period_ns=100_000.0, out=io.StringIO())
        run_traced(data, rate_qps=50_000.0, live_report=first)
        second = LiveReport(period_ns=100_000.0, out=io.StringIO())
        run_traced(data, rate_qps=50_000.0, live_report=second)
        assert first.lines == second.lines

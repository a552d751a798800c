"""Tests for repro.telemetry.health: windowed series, SLO burn-rate
alerting, anomaly detection, the `repro health` report schema, the
dashboard, and the streaming layer's bit-identity guarantee."""

from __future__ import annotations

import json

import pytest

from repro.experiments.defs.scenarios import starvation_build
from repro.sim import Environment
from repro.telemetry import (
    CausalRecorder,
    HealthError,
    HealthMonitor,
    SloSpec,
    Telemetry,
    TimelineSampler,
    default_slo_spec,
    render_dashboard,
    run_health,
    validate_health_report,
)
from repro.telemetry.attribution import collect_transactions
from repro.telemetry.causal import CATEGORIES
from repro.telemetry.scenarios import run_scenario

#: The golden-pinned §3 C5 alert edge: quiet flow bursts at 12,000 ns,
#: the first whole window containing its stall closes at 14,000 ns.
ALERT_FIRES_AT_NS = 14_000.0


@pytest.fixture(scope="module")
def starvation_health():
    return run_health("starvation")


@pytest.fixture(scope="module")
def starvation_report(starvation_health):
    return starvation_health[1]


class TestSloSpec:
    def test_default_starvation_spec_parses(self):
        spec = SloSpec(default_slo_spec("starvation"))
        assert [slo.name for slo in spec.slos] == ["quiet_route_stall"]
        assert spec.slos[0].budget == pytest.approx(0.10)
        assert [rule.name for rule in spec.anomalies] == ["stall_spike"]

    def test_other_scenarios_default_to_windows_only(self):
        spec = SloSpec(default_slo_spec("t2"))
        assert spec.slos == [] and spec.anomalies == []

    def test_unknown_objective_kind_rejected(self):
        with pytest.raises(HealthError, match="attribution_share"):
            SloSpec({"slos": [{"name": "x", "target": 0.9,
                               "objective": {"kind": "vibes"}}]})

    def test_unknown_category_rejected_with_choices(self):
        with pytest.raises(HealthError, match="credit_stall"):
            SloSpec({"slos": [{
                "name": "x", "target": 0.9,
                "objective": {"kind": "attribution_share",
                              "route": "r", "category": "luck"}}]})

    def test_target_must_leave_a_budget(self):
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(HealthError, match="target"):
                SloSpec({"slos": [{
                    "name": "x", "target": bad,
                    "objective": {"kind": "counter_ratio",
                                  "bad": "a", "total": "b"}}]})

    def test_alert_windows_ordering_enforced(self):
        with pytest.raises(HealthError, match="short_windows"):
            SloSpec({"slos": [{
                "name": "x", "target": 0.9,
                "objective": {"kind": "counter_ratio",
                              "bad": "a", "total": "b"},
                "alerts": [{"name": "r", "burn_rate": 2.0,
                            "long_windows": 1, "short_windows": 3}]}]})

    def test_duplicate_slo_names_rejected(self):
        objective = {"kind": "counter_ratio", "bad": "a", "total": "b"}
        with pytest.raises(HealthError, match="duplicate"):
            SloSpec({"slos": [
                {"name": "x", "target": 0.9, "objective": objective},
                {"name": "x", "target": 0.8, "objective": objective}]})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(default_slo_spec("starvation")))
        spec = SloSpec.load(path)
        assert spec.slos[0].name == "quiet_route_stall"
        with pytest.raises(HealthError, match="cannot read"):
            SloSpec.load(tmp_path / "missing.json")
        (tmp_path / "garbage.json").write_text("{nope")
        with pytest.raises(HealthError, match="not JSON"):
            SloSpec.load(tmp_path / "garbage.json")


class TestSloSpecErrorPaths:
    """Errors carry the exact JSON path, topo-loader style."""

    def test_unknown_kind_names_the_objective_path(self):
        with pytest.raises(
                HealthError,
                match=r"slos\[0\]\.objective\.kind: unknown objective "
                      r"kind 'vibes'"):
            SloSpec({"slos": [{"name": "x", "target": 0.9,
                               "objective": {"kind": "vibes"}}]})

    def test_missing_target_names_the_slo_path(self):
        with pytest.raises(
                HealthError,
                match=r"slos\[0\]\.target: slo 'x' needs a numeric "
                      r"'target'"):
            SloSpec({"slos": [{
                "name": "x",
                "objective": {"kind": "counter_ratio",
                              "bad": "a", "total": "b"}}]})

    def test_missing_objective_field_names_kind_and_path(self):
        with pytest.raises(
                HealthError,
                match=r"slos\[0\]\.objective\.route: required by "
                      r"objective kind 'attribution_share'"):
            SloSpec({"slos": [{
                "name": "x", "target": 0.9,
                "objective": {"kind": "attribution_share",
                              "category": "credit_stall"}}]})

    def test_malformed_burn_rate_names_the_alert_path(self):
        with pytest.raises(
                HealthError,
                match=r"slos\[0\]\.alerts\[0\]\.burn_rate: must be "
                      r"> 0, got -1\.0"):
            SloSpec({"slos": [{
                "name": "x", "target": 0.9,
                "objective": {"kind": "counter_ratio",
                              "bad": "a", "total": "b"},
                "alerts": [{"name": "r", "burn_rate": -1.0}]}]})

    def test_second_slo_gets_its_own_index(self):
        good = {"name": "ok", "target": 0.9,
                "objective": {"kind": "counter_ratio",
                              "bad": "a", "total": "b"}}
        with pytest.raises(HealthError, match=r"slos\[1\]\.target"):
            SloSpec({"slos": [good, {
                "name": "bad", "target": 5.0,
                "objective": {"kind": "counter_ratio",
                              "bad": "a", "total": "b"}}]})

    def test_anomaly_alpha_out_of_range_names_its_path(self):
        with pytest.raises(
                HealthError,
                match=r"anomaly\[0\]\.alpha: must be in \(0, 1\], "
                      r"got 9\.0"):
            SloSpec({"anomaly": [{
                "name": "a",
                "series": {"kind": "counter_delta", "metric": "m"},
                "alpha": 9.0}]})


class TestMonitorWiring:
    def test_needs_a_causal_recorder(self):
        with pytest.raises(ValueError, match="causal"):
            HealthMonitor(Telemetry(), scenario="t2")

    def test_window_must_be_interval_multiple(self):
        with pytest.raises(HealthError, match="multiple"):
            run_health("starvation", window_ns=1_500.0,
                       interval_ns=1_000.0)

    @pytest.mark.parametrize("window_ns, interval_ns", [
        (float("nan"), 1_000.0), (2_000.0, float("nan")),
        (float("inf"), 1_000.0), (2_000.0, float("inf")),
        (-2_000.0, -1_000.0), (0.0, 1_000.0)])
    def test_window_and_interval_must_be_finite_positive(
            self, window_ns, interval_ns):
        with pytest.raises(HealthError, match="finite and > 0"):
            run_health("t2", window_ns=window_ns, interval_ns=interval_ns)

    def test_monitor_rejects_nan_window(self):
        telemetry = Telemetry(causal=CausalRecorder())
        with pytest.raises(ValueError, match="window_ns"):
            HealthMonitor(telemetry, scenario="t2", window_ns=float("nan"))

    def test_policy_knob_is_starvation_only(self):
        with pytest.raises(HealthError, match="starvation"):
            run_health("t2", policy="fair")
        with pytest.raises(ValueError, match="rampup"):
            starvation_build("greedy")

    def test_windows_tile_sim_time(self, starvation_report):
        windows = starvation_report["windows"]
        assert len(windows) >= 2
        for i, window in enumerate(windows):
            assert window["index"] == i
            assert window["t0"] == i * 2_000.0
        assert all(not w["final"] for w in windows[:-1])

    def test_counter_deltas_sum_to_cumulative(self, starvation_health):
        result, report = starvation_health
        stalls = report["series"]["counters"]["credits.egress0.stalls"]
        total = result.telemetry.registry.get(
            "credits.egress0.stalls").value
        assert sum(stalls) == total
        assert total > 0

    def test_subscriber_sees_every_window(self):
        telemetry = Telemetry(causal=CausalRecorder())
        monitor = HealthMonitor(telemetry, scenario="starvation",
                                window_ns=2_000.0)
        seen = []
        monitor.subscribe(lambda window: seen.append(window["index"]))
        env = Environment(telemetry=telemetry)
        TimelineSampler(env, interval_ns=1_000.0).start()
        starvation_build("rampup")(env)
        monitor.finalize(env.now)
        assert seen == [w["index"] for w in monitor.windows]
        assert len(seen) >= 2

    def test_finalize_is_idempotent(self):
        telemetry = Telemetry(causal=CausalRecorder())
        monitor = HealthMonitor(telemetry, scenario="t2",
                                window_ns=2_000.0)
        env = Environment(telemetry=telemetry)
        monitor.finalize(env.now + 100.0)
        count = len(monitor.windows)
        monitor.finalize(env.now + 100.0)
        assert len(monitor.windows) == count


class TestStarvationAlert:
    def test_alert_fires_at_the_pinned_sim_time(self,
                                                starvation_report):
        slo = starvation_report["slos"][0]
        assert slo["name"] == "quiet_route_stall"
        episodes = slo["alerts"][0]["episodes"]
        assert [e["fired_at"] for e in episodes] == [ALERT_FIRES_AT_NS]
        assert slo["alerts"][0]["active"] is True

    def test_burn_rate_exceeds_the_rule_before_firing(
            self, starvation_report):
        slo = starvation_report["slos"][0]
        fired_index = next(
            i for i, w in enumerate(starvation_report["windows"])
            if w["t1"] == ALERT_FIRES_AT_NS)
        assert slo["burn"][fired_index] >= 4.0
        # Before the quiet burst there is no quiet-route data at all.
        assert all(b is None for b in slo["burn"][:fired_index])

    def test_fair_policy_stays_quiet(self):
        result, report = run_health("starvation", policy="fair")
        assert all(not alert["episodes"]
                   for slo in report["slos"]
                   for alert in slo["alerts"])
        assert all(not rule["points"]
                   for rule in report["anomalies"])
        assert result.summary["quiet_stall_ns"] == 0.0

    def test_anomaly_flags_the_stall_spike(self, starvation_report):
        points = starvation_report["anomalies"][0]["points"]
        assert points, "EWMA detector missed the burst"
        assert all(p["t"] >= 12_000.0 for p in points)


class TestBitIdentity:
    def test_health_run_matches_plain_telemetry_run(self):
        plain = run_scenario("starvation", telemetry=True)
        causal = run_scenario("starvation", telemetry=True, causal=True)
        health, _report = run_health("starvation")
        assert health.env.stats["events_processed"] \
            == plain.env.stats["events_processed"] \
            == causal.env.stats["events_processed"]
        assert health.summary == plain.summary == causal.summary

    def test_streamed_attribution_equals_offline(self):
        result, report = run_health("starvation")
        offline = {}
        for trace in collect_transactions(result.causal):
            route = offline.setdefault(
                trace.route, {c: 0.0 for c in CATEGORIES})
            for category, ns in trace.attribution().items():
                route[category] += ns
        routes = report["attribution"]["routes"]
        assert set(routes) == set(offline)
        for name, categories in offline.items():
            for category in CATEGORIES:
                streamed = sum(routes[name]["ns"][category])
                assert streamed == pytest.approx(
                    categories[category], abs=1e-3)


class TestReportSchema:
    def test_validator_accepts_all_scenarios(self, starvation_report):
        assert validate_health_report(starvation_report) >= 2
        for scenario in ("t2", "interleave"):
            _result, report = run_health(scenario)
            assert validate_health_report(report) >= 1

    def test_report_is_json_and_deterministic(self):
        first = json.dumps(run_health("starvation")[1], sort_keys=True)
        second = json.dumps(run_health("starvation")[1], sort_keys=True)
        assert first == second

    def test_validator_rejects_mutations(self, starvation_report):
        payload = json.loads(json.dumps(starvation_report))
        payload["windows"][0]["index"] = 7
        with pytest.raises(HealthError, match="out of order"):
            validate_health_report(payload)
        payload = json.loads(json.dumps(starvation_report))
        payload["series"]["counters"]["credits.egress0.stalls"].pop()
        with pytest.raises(HealthError, match="points"):
            validate_health_report(payload)
        payload = json.loads(json.dumps(starvation_report))
        payload["slos"][0]["alerts"][0]["episodes"][0]["fired_at"] = 13.0
        with pytest.raises(HealthError, match="window edge"):
            validate_health_report(payload)
        payload = json.loads(json.dumps(starvation_report))
        del payload["trace"]
        with pytest.raises(HealthError, match="trace"):
            validate_health_report(payload)

    def test_latency_objective_reads_port_histograms(self):
        spec = SloSpec({"slos": [{
            "name": "read_latency", "target": 0.5,
            "objective": {"kind": "latency",
                          "metric": "port.reader.request_ns",
                          "threshold_ns": 4_096.0},
            "alerts": [{"name": "slow", "burn_rate": 1.0}]}]})
        _result, report = run_health("interleave", spec=spec)
        slo = report["slos"][0]
        assert any(value is not None for value in slo["sli"])
        validate_health_report(report)

    def test_unknown_metric_in_objective_lists_registry(self):
        spec = SloSpec({"slos": [{
            "name": "x", "target": 0.9,
            "objective": {"kind": "counter_ratio",
                          "bad": "credits.egress0.stallz",
                          "total": "credits.egress0.stalls"}}]})
        with pytest.raises(HealthError,
                           match="credits.egress0.stalls"):
            run_health("starvation", spec=spec)


class TestDashboard:
    def test_dashboard_is_self_contained(self, starvation_report):
        page = render_dashboard(starvation_report)
        assert page.startswith("<!DOCTYPE html>")
        for forbidden in ("http://", "https://", "@import", "url("):
            assert forbidden not in page
        # Alert state ships as icon + label, never color alone.
        assert "FIRED".lower() in page.lower() or "fired at" in page
        assert "&#9650;" in page
        assert "prefers-color-scheme: dark" in page

    def test_dashboard_renders_quiet_run_without_alerts(self):
        _result, report = run_health("starvation", policy="fair")
        page = render_dashboard(report)
        assert "no alerts fired" in page
        assert "windows table" in page


class TestSweepDeterminism:
    def test_health_experiment_sweep_identical_at_any_worker_count(
            self, tmp_path):
        # Satellite: the fabric_health experiment through the sweep
        # driver — merged report byte-identical at 1 vs 2 workers.
        from repro.experiments import run_sweep
        from repro.experiments.sweep import SweepSpec
        spec = SweepSpec.from_dict(
            {"experiment": "fabric_health",
             "sweep": {"window_ns": [2_000.0, 4_000.0]},
             "seed": 1})
        run_sweep(spec, str(tmp_path / "serial"), workers=1)
        run_sweep(spec, str(tmp_path / "parallel"), workers=2)
        serial = (tmp_path / "serial" / "sweep.json").read_bytes()
        parallel = (tmp_path / "parallel" / "sweep.json").read_bytes()
        assert serial == parallel

    def test_pinned_edge_survives_a_window_resize(self):
        # 1000 ns windows move the close edge to 13,000 ns (the first
        # whole window after the burst) — the alert tracks window
        # geometry, not a hard-coded timestamp.
        _result, report = run_health("starvation", window_ns=1_000.0)
        episodes = report["slos"][0]["alerts"][0]["episodes"]
        assert episodes and episodes[0]["fired_at"] == 13_000.0

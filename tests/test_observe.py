"""Tests for the aggregation layer (`repro.observe`).

The load-bearing invariants:

* the full observe stack (JSONL sink, resource sampler, perf
  recording) is RNG- and result-inert — store fingerprints with it on
  and off are bit-identical on serial, processes, and vector backends;
* Prometheus text exposition conforms: valid metric names, exactly one
  HELP/TYPE pair per family, spec-compliant label escaping;
* resource sampling inherits the JSONL SIGKILL contract — a kill
  mid-sampling leaves a parseable file;
* `perf regress` passes a flat history (self-compare) and exits non-zero
  on an injected sustained slowdown.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.statistics import quantile
from repro.campaigns import campaign_status_rows, start_campaign
from repro.cli import main
from repro.exec import make_backend
from repro.observe import (
    ResourceSampler,
    backend_layout_name,
    detect_drift,
    escape_label_value,
    fold_events,
    host_fingerprint,
    make_sampler,
    record_scenario_perf,
    regress_groups,
    render_html_report,
    render_worker_table,
    sample_process,
    svg_sparkline,
    to_json,
    to_prometheus,
    unit_imbalance,
    worker_utilization,
)
from repro.observe.export import METRIC_NAME_RE
from repro.scenarios.spec import scenario_from_dict
from repro.store import ResultsStore
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    TelemetrySession,
    activated,
    filter_events,
    read_events,
)

SCENARIO = {
    "id": "observe-mixed",
    "title": "Observe test scenario",
    "protocols": ["binary-exponential", "low-sensing"],
    "max_slots": 1500,
    "replications": 3,
    "arrivals": {"kind": "batch", "n": 12},
}


def _span(name, dur, *, backend="serial", kind="phase", ts=10.0, **attrs):
    return {
        "ts": ts,
        "run": "r1",
        "ev": "span",
        "name": name,
        "dur": dur,
        "attrs": {"kind": kind, "backend": backend, **attrs},
    }


class TestQuantile:
    def test_linear_interpolation_matches_numpy_default(self):
        np = pytest.importorskip("numpy")
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 1.0):
            assert quantile(values, q) == pytest.approx(
                float(np.quantile(values, q))
            )

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestFoldEvents:
    def test_spans_counters_events_sessions_all_fold(self):
        events = [
            {"ts": 1.0, "run": "r", "ev": "session_start", "argv": []},
            _span("simulate", 0.5),
            _span("simulate", 1.5),
            {"ts": 2.0, "run": "r", "ev": "counter", "name": "slots",
             "value": 100, "attrs": {"backend": "serial"}},
            {"ts": 3.0, "run": "r", "ev": "event", "name": "fallback",
             "attrs": {"reason": "protocol"}},
            {"ts": 4.0, "run": "r", "ev": "progress", "label": "x",
             "done": 1, "total": 2},
            {"ts": 5.0, "run": "r", "ev": "session_end", "elapsed_seconds": 4.0},
        ]
        fold = fold_events(events)
        assert fold.spans[("simulate", "phase", "serial")] == (0.5, 1.5)
        assert fold.counters[("slots", "serial")] == 100
        assert fold.events[("fallback", "protocol")] == 1
        assert fold.sessions == {"start": 1, "end": 1}
        assert fold.session_seconds == (4.0,)
        assert fold.runs == ("r", "r1")

    def test_resource_samples_become_gauges_with_rss_peak(self):
        def sample(rss, cpu):
            return {"ts": 0, "run": "r", "ev": "event", "name": "resource_sample",
                    "attrs": {"pid": 42, "source": "parent",
                              "rss_bytes": rss, "cpu_seconds": cpu, "fds": 7}}

        fold = fold_events([sample(100, 0.1), sample(300, 0.2), sample(200, 0.3)])
        process = ("42", "parent")
        assert fold.resources["rss_bytes"][process] == 200  # last value
        assert fold.rss_peak[process] == 300  # high-water mark
        assert fold.resources["cpu_seconds"][process] == pytest.approx(0.3)
        assert fold.resources["fds"][process] == 7
        assert fold.parent_rss == (100.0, 300.0, 200.0)


class TestPrometheusConformance:
    def _fold(self):
        return fold_events(
            [
                {"ts": 1.0, "run": "r", "ev": "counter", "name": "jobs",
                 "value": 3, "attrs": {"backend": "serial"}},
                {"ts": 1.0, "run": "r", "ev": "event", "name": "resource_sample",
                 "attrs": {"pid": 1, "source": "parent", "rss_bytes": 12345}},
                *(_span("simulate", value) for value in (0.1, 0.2, 0.3)),
            ]
        )

    def test_every_family_has_one_help_and_type_line(self):
        text = to_prometheus(self._fold())
        for name, exposition_type in (
            ("repro_counter_total", "counter"),
            ("repro_resource_rss_bytes", "gauge"),
            ("repro_span_seconds", "summary"),
        ):
            assert text.count(f"# HELP {name} ") == 1
            assert text.count(f"# TYPE {name} {exposition_type}\n") == 1

    def test_all_sample_lines_have_valid_metric_names(self):
        for line in to_prometheus(self._fold()).splitlines():
            if not line or line.startswith("#"):
                continue
            name = re.split(r"[{ ]", line, maxsplit=1)[0]
            assert METRIC_NAME_RE.match(name), line

    def test_histogram_exports_quantiles_sum_and_count(self):
        text = to_prometheus(self._fold())
        labels = 'backend="serial",kind="phase",name="simulate"'
        assert f'repro_span_seconds{{{labels},quantile="0.5"}} 0.2' in text
        assert f"repro_span_seconds_sum{{{labels}}}" in text
        assert f"repro_span_seconds_count{{{labels}}} 3" in text

    def test_label_values_escape_backslash_quote_and_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        fold = fold_events(
            [{"ev": "event", "name": "e",
              "attrs": {"reason": 'bad "quote"\nnewline\\slash'}}]
        )
        (line,) = [
            line
            for line in to_prometheus(fold).splitlines()
            if line.startswith("repro_events_total{")
        ]
        assert line == (
            'repro_events_total{name="e",reason="bad \\"quote\\"\\nnewline\\\\slash"} 1'
        )
        # The escaped payload must stay on one physical line.
        assert "\n" not in line

    def test_labels_render_sorted_and_infinities_render_signed(self):
        import dataclasses

        fold = dataclasses.replace(
            fold_events([]), rss_peak={("1", "parent"): float("inf")}
        )
        text = to_prometheus(fold)
        assert 'repro_resource_rss_peak_bytes{pid="1",source="parent"} +Inf' in text

    def test_empty_stream_renders_only_the_fixed_families(self):
        text = to_prometheus(fold_events([]))
        assert [line for line in text.splitlines() if not line.startswith("#")] == []
        assert text.count("# TYPE ") == 4

    def test_json_export_mirrors_the_prometheus_families(self):
        document = json.loads(to_json(self._fold()))
        by_name = {metric["name"]: metric for metric in document["metrics"]}
        assert by_name["repro_counter_total"]["type"] == "counter"
        assert by_name["repro_counter_total"]["samples"][0]["value"] == 3
        hist = by_name["repro_span_seconds"]["samples"][0]
        assert hist["count"] == 3 and "p95" in hist
        assert [metric["name"] for metric in document["metrics"]] == [
            line.split()[2]
            for line in to_prometheus(self._fold()).splitlines()
            if line.startswith("# TYPE ")
        ]


class TestResourceSampling:
    def test_sample_process_reads_self(self):
        sample = sample_process()
        # /proc exists on every platform this suite targets in CI; degrade
        # gracefully elsewhere but require CPU at minimum (os.times fallback).
        assert "cpu_seconds" in sample
        if os.path.isdir("/proc/self"):
            assert sample["rss_bytes"] > 0
            assert sample["fds"] > 0

    def test_sampler_emits_entry_and_exit_samples(self):
        mem = MemorySink()
        session = TelemetrySession([mem])
        with ResourceSampler(session, interval=60.0):
            pass  # shorter than the interval: only the boundary samples
        session.close()
        samples = mem.events("resource_sample")
        assert len(samples) == 2
        assert all(record["attrs"]["source"] == "parent" for record in samples)
        assert all(record["attrs"]["pid"] == os.getpid() for record in samples)

    def test_sampler_interval_thread_produces_series(self):
        mem = MemorySink()
        session = TelemetrySession([mem])
        with ResourceSampler(session, interval=0.02):
            time.sleep(0.15)
        session.close()
        assert len(mem.events("resource_sample")) >= 4

    def test_sampler_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ResourceSampler(TelemetrySession([MemorySink()]), interval=0.0)

    def test_make_sampler_null_paths(self):
        session = TelemetrySession([MemorySink()])
        assert make_sampler(None, 0.1).start() is None  # null sampler no-ops
        assert make_sampler(session, None) is make_sampler(None, 0.1)
        real = make_sampler(session, 0.1)
        assert isinstance(real, ResourceSampler)
        session.close()

    def test_pool_workers_contribute_job_boundary_samples(self):
        from repro.experiments.plan import RunSpec, factory
        from repro.adversary.arrivals import BatchArrivals
        from repro.adversary.composite import CompositeAdversary
        from repro.protocols.binary_exponential import BinaryExponentialBackoff

        specs = [
            RunSpec(
                protocol=BinaryExponentialBackoff(),
                adversary=factory(CompositeAdversary, factory(BatchArrivals, 10)),
                seed=seed,
                max_slots=1200,
            )
            for seed in (1, 2, 3, 4)
        ]
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            with make_backend("processes", workers=2) as backend:
                backend.run(specs)
        worker_samples = [
            record
            for record in mem.events("resource_sample")
            if record["attrs"]["source"] == "worker"
        ]
        if not os.path.isdir("/proc"):
            pytest.skip("worker samples need procfs")
        assert worker_samples
        pids = {record["attrs"]["pid"] for record in worker_samples}
        assert len(pids) == len(worker_samples)  # one sample per worker pid
        assert all(
            record["attrs"]["rss_bytes"] > 0 for record in worker_samples
        )


class TestWorkerUtilization:
    def _events(self):
        return [
            _span("simulate", 2.0, backend="processes", ts=12.0,
                  worker_pid=101, queue_wait=0.1),
            _span("simulate", 1.0, backend="processes", ts=13.0,
                  worker_pid=102, queue_wait=0.3),
            _span("simulate", 1.0, backend="processes", ts=14.0,
                  worker_pid=101, queue_wait=0.2),
        ]

    def test_folds_busy_jobs_and_queue_wait(self):
        summary = worker_utilization(fold_events(self._events()))
        assert summary["jobs"] == 3
        by_pid = {row["pid"]: row for row in summary["workers"]}
        assert by_pid["101"]["jobs"] == 2
        assert by_pid["101"]["busy_seconds"] == pytest.approx(3.0)
        # Envelope: earliest start 10.0 (ts 12 - dur 2), latest end 14.0.
        assert summary["wall_seconds"] == pytest.approx(4.0)
        assert by_pid["101"]["busy_fraction"] == pytest.approx(0.75)
        # Imbalance: busy 3.0 vs 1.0, mean 2.0 -> 1.5.
        assert summary["imbalance"] == pytest.approx(1.5)
        assert summary["queue_wait"]["count"] == 3
        assert summary["queue_wait"]["p50"] == pytest.approx(0.2)
        assert summary["queue_wait"]["max"] == pytest.approx(0.3)

    def test_none_without_worker_attribution(self):
        assert worker_utilization(fold_events([_span("simulate", 1.0)])) is None
        assert worker_utilization(fold_events([])) is None

    def test_render_worker_table(self):
        rendered = render_worker_table(worker_utilization(fold_events(self._events())))
        assert "workers (process-pool attribution)" in rendered
        assert "101" in rendered and "102" in rendered
        assert "imbalance 1.50x" in rendered
        assert "queue wait" in rendered

    def test_pool_spans_cover_by_the_union_of_their_intervals(self):
        from repro.telemetry import summarize_events

        def run(run_id, *records):
            return [dict(record, run=run_id) for record in records]

        events = run(
            "one",
            _span("build", 0.5, ts=0.5),
            # Overlapping jobs on two workers: [0.5, 2.0] and [1.5, 2.5].
            _span("simulate", 1.5, backend="processes", ts=2.0, worker_pid=1),
            _span("simulate", 1.0, backend="processes", ts=2.5, worker_pid=2),
            _span("sweep", 4.0, kind="root", ts=4.0),
        ) + run(
            # ts restarts at 0 in the next session of the file: [0.0, 1.0]
            # overlaps session one's intervals only if sessions are merged.
            "two",
            _span("simulate", 1.0, backend="processes", ts=1.0, worker_pid=3),
            _span("sweep", 3.0, kind="root", ts=3.0),
        )
        assert fold_events(events).pool_seconds == 3.0  # 2.0 + 1.0
        summary = summarize_events(events)
        # build 0.5 + union 2.0 + union 1.0 over roots 4.0 + 3.0.
        assert summary["phase_seconds"] == 3.5
        assert summary["coverage"] == 0.5
        # The phase table still sums busy time: 1.5 + 1.0 + 1.0.
        (pool_row,) = [row for row in summary["phases"] if row["backend"] == "processes"]
        assert pool_row["total"] == 3.5

    def test_unit_imbalance_edges(self):
        assert unit_imbalance([]) is None
        assert unit_imbalance([5.0]) is None
        assert unit_imbalance([0.0, 0.0]) is None
        assert unit_imbalance([1.0, 3.0]) == pytest.approx(1.5)

    def test_processes_backend_spans_feed_utilization(self):
        from repro.experiments.plan import RunSpec, factory
        from repro.adversary.arrivals import BatchArrivals
        from repro.adversary.composite import CompositeAdversary
        from repro.protocols.binary_exponential import BinaryExponentialBackoff

        specs = [
            RunSpec(
                protocol=BinaryExponentialBackoff(),
                adversary=factory(CompositeAdversary, factory(BatchArrivals, 8)),
                seed=seed,
                max_slots=1000,
            )
            for seed in (1, 2, 3)
        ]
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            with make_backend("processes", workers=2) as backend:
                backend.run(specs)
        summary = worker_utilization(fold_events(mem.records))
        assert summary is not None
        assert summary["jobs"] == 3
        assert summary["queue_wait"]["count"] == 3
        # Spans carry the worker's end time, so the window envelops every
        # job and no worker is busier than the window is long.
        assert all(
            row["busy_fraction"] <= 1.0 + 1e-6 for row in summary["workers"]
        )

    def test_campaign_status_reports_unit_imbalance(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        start_campaign(store, scenario_from_dict(SCENARIO), backend_name="serial")
        (row,) = campaign_status_rows(store)
        # Two protocol units with real timings -> a defined index >= 1.
        assert row["unit_imbalance"] is not None
        assert row["unit_imbalance"] >= 1.0
        store.close()


class TestPerfHistory:
    def test_put_and_list_perf_samples(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        for seconds in (1.0, 1.1):
            store.put_perf_sample(
                spec_hash="abc", backend_layout="serial", host="h",
                seconds=seconds, runs=2, slots=100,
                slots_per_second=100 / seconds, label="demo",
            )
        rows = store.perf_sample_rows()
        assert [row["seconds"] for row in rows] == [1.0, 1.1]
        assert rows[0]["label"] == "demo"
        assert store.perf_sample_rows(spec_prefix="ab")
        assert not store.perf_sample_rows(spec_prefix="zz")
        assert store.stats()["perf_samples"] == 2
        store.close()

    def test_perf_samples_do_not_move_the_fingerprint(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        start_campaign(store, scenario_from_dict(SCENARIO), backend_name="serial")
        before = store.fingerprint()
        store.put_perf_sample(
            spec_hash="abc", backend_layout="serial", host="h", seconds=9.9
        )
        assert store.fingerprint() == before
        store.close()

    def test_record_scenario_perf_stores_one_sample(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        scenario = scenario_from_dict(SCENARIO)
        sample = record_scenario_perf(store, scenario, backend_name="serial")
        assert sample["spec_hash"] == scenario.content_hash()
        assert sample["backend_layout"] == "serial"
        assert sample["host"] == host_fingerprint()
        assert sample["runs"] == 6  # 2 protocols x 3 replications
        assert sample["slots"] > 0 and sample["seconds"] > 0
        (row,) = store.perf_sample_rows()
        assert row["label"] == f"{scenario.scenario_id}@default"
        # Recording is result-inert: no run rows, empty fingerprint.
        assert store.stats()["runs"] == 0
        store.close()

    def test_inject_sleep_env_slows_the_timed_region(self, tmp_path, monkeypatch):
        store = ResultsStore(tmp_path / "s")
        scenario = scenario_from_dict(dict(SCENARIO, replications=1, max_slots=200))
        baseline = record_scenario_perf(store, scenario, backend_name="serial")
        monkeypatch.setenv("REPRO_PERF_INJECT_SLEEP", "0.2")
        slowed = record_scenario_perf(store, scenario, backend_name="serial")
        assert slowed["seconds"] >= baseline["seconds"] + 0.15
        store.close()

    def test_backend_layout_names(self):
        assert backend_layout_name("serial", None) == "serial"
        assert backend_layout_name("vector", 4) == "vector"
        assert backend_layout_name("processes", 4) == "processes:w4"

    def test_host_fingerprint_is_stable_and_short(self):
        assert host_fingerprint() == host_fingerprint()
        assert re.fullmatch(r"[0-9a-f]{12}", host_fingerprint())


class TestDriftDetection:
    def test_insufficient_history(self):
        verdict = detect_drift([1.0, 1.0, 1.5], window=2)
        assert verdict["status"] == "insufficient"
        assert verdict["needed"] == 4

    def test_flat_history_is_ok(self):
        values = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.01, 0.99]
        verdict = detect_drift(values)
        assert verdict["status"] == "ok"
        assert verdict["ratio"] == pytest.approx(1.0, abs=0.05)

    def test_sustained_slowdown_is_drift(self):
        values = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 2.0, 2.05]
        verdict = detect_drift(values)
        assert verdict["status"] == "drift"
        assert verdict["ratio"] > 1.9
        assert verdict["p_value"] is not None and verdict["p_value"] < 0.05

    def test_material_but_insignificant_is_ok(self):
        # Baseline so noisy the 1.3x "slowdown" is statistically flat.
        values = [0.5, 2.0, 0.4, 2.2, 0.6, 1.9, 1.5, 1.6]
        verdict = detect_drift(values, factor=1.2)
        assert verdict["p_value"] is None or verdict["p_value"] >= 0.05
        assert verdict["status"] == "ok"

    def test_zero_variance_falls_back_to_factor_gate(self):
        drifted = detect_drift([1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
        assert drifted["status"] == "drift" and drifted["p_value"] is None
        flat = detect_drift([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert flat["status"] == "ok" and flat["p_value"] is None

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_drift([1.0] * 8, window=0)

    def test_regress_groups_keeps_groups_separate(self):
        def row(spec, layout, seconds):
            return {"spec_hash": spec, "backend_layout": layout, "host": "h",
                    "seconds": seconds, "label": f"{spec}-label"}

        rows = [row("a", "serial", 1.0) for _ in range(6)]
        rows += [row("a", "serial", 3.0), row("a", "serial", 3.1)]
        rows += [row("b", "vector", 1.0) for _ in range(8)]
        verdicts = regress_groups(rows)
        by_key = {(v["spec_hash"], v["backend_layout"]): v for v in verdicts}
        assert by_key[("a", "serial")]["status"] == "drift"
        assert by_key[("a", "serial")]["label"] == "a-label"
        assert by_key[("b", "vector")]["status"] == "ok"


class TestObserveFingerprintInvariance:
    """The full observe stack on/off must be bit-identical per backend."""

    @pytest.mark.parametrize("backend", ["serial", "processes", "vector"])
    def test_campaign_fingerprints_match_with_observe_on_and_off(
        self, tmp_path, backend
    ):
        fingerprints = {}
        for mode in ("off", "on"):
            store = ResultsStore(tmp_path / f"{backend}-{mode}")
            if mode == "on":
                session = TelemetrySession(
                    [MemorySink(), JsonlSink(tmp_path / f"{backend}.jsonl")]
                )
                sampler = ResourceSampler(session, interval=0.01)
            else:
                session, sampler = None, None
            with activated(session):
                if sampler is not None:
                    sampler.start()
                start_campaign(
                    store,
                    scenario_from_dict(SCENARIO),
                    backend_name=backend,
                    workers=2 if backend == "processes" else None,
                )
                if sampler is not None:
                    sampler.stop()
                    # Perf recording must also be inert.
                    record_scenario_perf(
                        store,
                        scenario_from_dict(dict(SCENARIO, replications=1)),
                        backend_name="serial",
                    )
            fingerprints[mode] = store.fingerprint()
            store.close()
        assert fingerprints["on"] == fingerprints["off"]


class TestSummarizeSatellites:
    def _write_two_sessions(self, path):
        first = TelemetrySession([JsonlSink(path)], run_id="firstrun")
        with first.span("sweep", kind="root", backend="serial"):
            with first.span("simulate", kind="phase", backend="serial"):
                pass
        first.close()
        second = TelemetrySession([JsonlSink(path)], run_id="secondrun")
        with second.span("sweep", kind="root", backend="vector"):
            pass
        second.close()

    def test_filter_events_by_prefix_and_last(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_two_sessions(path)
        events = read_events(path)
        only_first = filter_events(events, runs=["first"])
        assert {record["run"] for record in only_first} == {"firstrun"}
        only_last = filter_events(events, last=True)
        assert {record["run"] for record in only_last} == {"secondrun"}
        assert filter_events(events) == events
        assert filter_events(events, runs=["nomatch"]) == []

    def test_cli_run_and_last_filters(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_two_sessions(path)
        assert main(["telemetry", "summarize", str(path), "--run", "first",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == ["firstrun"]
        assert main(["telemetry", "summarize", str(path), "--last", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == ["secondrun"]
        with pytest.raises(SystemExit):
            main(["telemetry", "summarize", str(path), "--run", "zzz"])

    def test_file_without_events_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev": "span", "dur', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["telemetry", "summarize", str(path)])
        assert excinfo.value.code == 2
        assert "no parseable events" in capsys.readouterr().err

    def test_ambiguous_run_prefix_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        for run_id in ("firstrun", "fastrun"):
            session = TelemetrySession([JsonlSink(path)], run_id=run_id)
            with session.span("sweep", kind="root", backend="serial"):
                pass
            session.close()
        with pytest.raises(SystemExit) as excinfo:
            main(["telemetry", "summarize", str(path), "--run", "f"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err
        assert "ambiguous" in error
        assert "fastrun" in error and "firstrun" in error
        assert main(["telemetry", "summarize", str(path), "--run", "fi",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["runs"] == ["firstrun"]

    def test_a_full_run_id_is_never_ambiguous(self):
        events = [{"run": "run1", "ev": "session_start"},
                  {"run": "run10", "ev": "session_start"}]
        assert filter_events(events, runs=["run1"]) == events[:1]
        with pytest.raises(ValueError, match="run1, run10"):
            filter_events(events, runs=["run"])

    @pytest.mark.parametrize(
        "malformed",
        [
            {"ev": "span", "run": "aaa", "name": "simulate", "dur": "n/a",
             "attrs": {"kind": "phase", "backend": "serial"}},
            {"ev": "counter", "run": "aaa", "name": "slots", "value": "n/a"},
            {"ev": "session_end", "run": "aaa", "elapsed_seconds": "n/a"},
            {"ev": "span", "run": "aaa", "name": "simulate", "dur": None},
            {"ev": "counter", "run": "aaa", "name": "slots", "value": "inf"},
            {"ev": "session_end", "run": "aaa", "elapsed_seconds": float("nan")},
        ],
    )
    def test_records_with_malformed_numbers_are_skipped(
        self, tmp_path, capsys, malformed
    ):
        path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(path)], run_id="goodrun")
        with session.span("sweep", kind="root", backend="serial"):
            session.span_record("simulate", 0.25, kind="phase", backend="serial")
        session.counter("slots", 7, backend="serial")
        session.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(malformed) + "\n")
        fold = fold_events(read_events(path))
        assert fold.runs == ("goodrun",)
        assert fold.counters == {("slots", "serial"): 7.0}
        assert fold.spans[("simulate", "phase", "serial")] == (0.25,)
        assert fold.sessions == {"start": 1, "end": 1}
        for argv in (
            ["telemetry", "summarize", str(path)],
            ["telemetry", "summarize", str(path), "--json"],
            ["report", "metrics", str(path)],
            ["report", "metrics", str(path), "--format", "json"],
            ["report", "html", "--telemetry", str(path),
             "--store", str(tmp_path / "no-store")],
        ):
            assert main(argv) == 0
            assert "slots" in capsys.readouterr().out

    def test_views_accept_a_one_shot_iterator(self):
        from repro.telemetry import iter_events, summarize_events

        stream = Path(__file__).resolve().parent / "golden" / "telemetry.jsonl"
        events = read_events(stream)
        assert summarize_events(iter_events(stream)) == summarize_events(events)
        assert render_html_report(events=iter(events)) == render_html_report(
            events=events
        )
        one_shot = iter(events)
        fold_events(one_shot)
        assert next(one_shot, None) is None  # the fold consumed it, once

    def test_span_tables_carry_p50_p95(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(path)])
        with session.span("sweep", kind="root", backend="serial"):
            for duration in (0.0, 0.0, 0.0):
                session.span_record(
                    "simulate", duration, kind="phase", backend="serial"
                )
        session.close()
        assert main(["telemetry", "summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        (phase_row,) = summary["phases"]
        assert "p50" in phase_row and "p95" in phase_row
        assert phase_row["p50"] <= phase_row["p95"] <= phase_row["max"]
        assert main(["telemetry", "summarize", str(path)]) == 0
        rendered = capsys.readouterr().out
        assert "p50_s" in rendered and "p95_s" in rendered

    def test_read_events_streams_lazily(self, tmp_path):
        from repro.telemetry import iter_events

        path = tmp_path / "t.jsonl"
        path.write_text('{"ev": "counter"}\n{"ev": "span"}\n{"truncated',
                        encoding="utf-8")
        iterator = iter_events(path)
        assert next(iterator)["ev"] == "counter"
        assert next(iterator)["ev"] == "span"
        with pytest.raises(StopIteration):
            next(iterator)  # truncated tail tolerated
        assert len(read_events(path)) == 2


class TestSigkillDuringSampling:
    def test_jsonl_readable_after_sigkill_with_resource_sampling(self, tmp_path):
        """A kill mid-sampling leaves a parseable file with samples in it."""
        scenario = dict(SCENARIO)
        scenario["max_slots"] = 200_000
        scenario["replications"] = 6
        scenario["arrivals"] = {"kind": "poisson", "rate": 0.4}
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(scenario))
        tele_path = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                str(scenario_file),
                "--backend", "serial",
                "--checkpoint-every", "1",
                "--store", str(tmp_path / "store"),
                "--telemetry", str(tele_path),
                "--sample-resources", "0.01",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        sampled = False
        while time.monotonic() < deadline:
            if tele_path.exists() and b"resource_sample" in tele_path.read_bytes():
                sampled = True
                break
            if process.poll() is not None:
                break
            time.sleep(0.02)
        if process.poll() is None:
            os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        assert tele_path.exists()
        events = read_events(tele_path)
        assert events, "events written before the kill must parse"
        if sampled:
            samples = [
                record for record in events
                if record.get("ev") == "event"
                and record.get("name") == "resource_sample"
            ]
            assert samples, "observed samples must survive the kill"
            assert fold_events(events).resources["rss_bytes"]


class TestPerfCli:
    def _scenario_file(self, tmp_path):
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(
            json.dumps(dict(SCENARIO, replications=1, max_slots=300))
        )
        return str(scenario_file)

    def test_record_history_and_self_regress_pass(self, tmp_path, capsys):
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--repeat", "4"]) == 0
        capsys.readouterr()
        assert main(["perf", "history", "--store", store_dir, "--json"]) == 0
        history = json.loads(capsys.readouterr().out)
        assert len(history["samples"]) == 4
        assert main(["perf", "regress", "--store", store_dir]) == 0
        assert "ok" in capsys.readouterr().out

    def test_injected_slowdown_fails_regress(self, tmp_path, capsys, monkeypatch):
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--repeat", "4"]) == 0
        monkeypatch.setenv("REPRO_PERF_INJECT_SLEEP", "0.3")
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--repeat", "2"]) == 0
        monkeypatch.delenv("REPRO_PERF_INJECT_SLEEP")
        capsys.readouterr()
        assert main(["perf", "regress", "--store", store_dir]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_regress_json_reports_groups(self, tmp_path, capsys):
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["perf", "record", scenario, "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["perf", "regress", "--store", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["drifted"] == 0
        assert payload["groups"][0]["status"] == "insufficient"

    def test_usage_errors_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "record", "no-such-scenario",
                  "--store", str(tmp_path / "s")])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "history", "--store", str(tmp_path / "missing")])
        assert excinfo.value.code == 2


class TestReportCli:
    def test_html_report_for_a_campaign(self, tmp_path, capsys):
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(SCENARIO))
        store_dir = str(tmp_path / "store")
        tele_path = tmp_path / "t.jsonl"
        assert main(["campaign", "run", str(scenario_file),
                     "--backend", "serial", "--store", store_dir,
                     "--telemetry", str(tele_path), "--dynamics"]) == 0
        store = ResultsStore(Path(store_dir))
        (campaign,) = store.list_campaigns()
        store.close()
        out_path = tmp_path / "report.html"
        assert main(["report", "html", "--store", store_dir,
                     "--campaign", campaign["campaign_id"],
                     "--telemetry", str(tele_path),
                     "--out", str(out_path)]) == 0
        document = out_path.read_text(encoding="utf-8")
        assert document.startswith("<!DOCTYPE html>")
        assert "<svg" in document  # sparklines and/or phase bars
        assert "Phase wall-clock" in document
        assert "Campaign" in document
        assert "Trajectory" in document
        assert campaign["campaign_id"] in document

    def test_html_report_from_telemetry_only(self, tmp_path, capsys):
        tele_path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(tele_path)])
        with session.span("sweep", kind="root", backend="serial"):
            session.span_record("simulate", 0.5, kind="phase", backend="serial")
        session.close()
        assert main(["report", "html", "--telemetry", str(tele_path),
                     "--store", str(tmp_path / "no-store")]) == 0
        document = capsys.readouterr().out
        assert "Phase wall-clock" in document

    def test_html_escapes_untrusted_strings(self):
        events = [_span("<script>alert(1)</script>", 1.0)]
        document = render_html_report(events=events, title="<b>t</b>")
        assert "<script>alert(1)" not in document
        assert "&lt;script&gt;" in document
        assert "<title>&lt;b&gt;t&lt;/b&gt;</title>" in document

    def test_report_without_inputs_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "html", "--store", str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_unknown_campaign_is_a_usage_error(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        store.close()
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "html", "--store", str(tmp_path / "s"),
                  "--campaign", "nope"])
        assert excinfo.value.code == 2

    def test_metrics_export_prometheus_and_json(self, tmp_path, capsys):
        tele_path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(tele_path)])
        session.counter("slots_simulated", 500, backend="serial")
        session.close()
        assert main(["report", "metrics", str(tele_path)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_counter_total counter" in text
        assert 'repro_counter_total{backend="serial",name="slots_simulated"} 500' in text
        assert main(["report", "metrics", str(tele_path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(
            metric["name"] == "repro_counter_total"
            for metric in payload["metrics"]
        )

    def test_sample_resources_requires_telemetry(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "e1", "--scale", "smoke", "--sample-resources"])
        assert excinfo.value.code == 2


class TestSvgSparkline:
    def test_empty_and_constant_series(self):
        assert svg_sparkline([]) == ""
        constant = svg_sparkline([2.0, 2.0, 2.0])
        assert constant.startswith("<svg")
        assert "polyline" in constant

    def test_long_series_is_downsampled(self):
        document = svg_sparkline(list(range(10_000)), width=100)
        points = document.split('polyline class="spark" points="')[1].split('"')[0]
        assert len(points.split()) <= 52  # max_points = width // 2 + rounding

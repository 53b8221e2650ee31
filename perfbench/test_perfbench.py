"""Self-tests of the benchmark: ``python3 -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import END_TO_END, GRID, PER_LAYER, WORKLOADS, owner_of  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds hot buckets of 1.5 s and 0.5 s.
    spans = [
        [0, None, "root", 0.0, 10.0],
        [1, 0, "a", 1.0, 4.0],
        [2, 1, "c", 2.0, 3.0],
        [3, 0, "b", 5.0, 9.0],
    ]
    hot = {(3, "coins"): [10, 1.5], (3, "protocol"): [10, 0.5]}
    selfs = tracing.self_times(spans, hot)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0}
    assert sum(selfs.values()) + tracing.hot_total(hot, "coins") + tracing.hot_total(hot, "protocol") == 10.0


def test_outermost_total_counts_nested_same_name_spans_once():
    spans = [
        [0, None, "build", 0.0, 4.0],
        [1, 0, "other", 1.0, 3.0],
        [2, 1, "build", 1.5, 2.5],
        [3, None, "build", 5.0, 6.0],
    ]
    assert tracing.outermost_total(spans, "build") == 5.0
    assert [record[0] for record in tracing.outermost(spans, "build")] == [0, 3]


def test_tracer_records_parent_links_and_restores_what_it_patched():
    class Engine:
        def run(self, n):
            return [self.step() for _ in range(n)]

        def step(self):
            return 1

        @classmethod
        def build(cls):
            return cls()

    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    originals = dict(Engine.__dict__)
    tracer.patch(Engine, "build", lambda fn: tracer.span("build", fn))
    tracer.patch(Engine, "run", lambda fn: tracer.span("run", fn))
    tracer.patch(Engine, "step", lambda fn: tracer.hot_span("step", fn))
    assert Engine.build().run(3) == [1, 1, 1]
    assert [record[:3] for record in tracer.spans] == [[0, None, "build"], [1, None, "run"]]
    assert tracer.hot[(1, "step")][0] == 3
    selfs = tracing.self_times(tracer.spans, tracer.hot)
    duration = tracer.spans[1][4] - tracer.spans[1][3]
    assert selfs[1] == duration - tracer.hot[(1, "step")][1]
    tracer.uninstall()
    for attr in ("build", "run", "step"):
        assert Engine.__dict__[attr] is originals[attr]


def _packet(packet_id, arrival, departure, sends, listens=0):
    from repro.sim.results import PacketRecord

    return PacketRecord(packet_id, arrival, departure, sends, listens)


def test_invariant_checker_accepts_a_real_run_and_rejects_planted_breaks():
    from repro import BatchArrivals, LowSensingBackoff, run_simulation

    result = run_simulation(LowSensingBackoff(), arrivals=BatchArrivals(20), seed=3)
    assert checks.run_problems(result) == []
    packets = [_packet(0, 0, 4, 2), _packet(1, 0, None, 3, -4)]
    lost = SimpleNamespace(seed=1, num_arrivals=3, num_delivered=1, backlog=1, num_slots=9, packets=packets)
    problems = checks.run_problems(lost)
    assert any("arrivals 3 != delivered 1 + backlog 1" in p for p in problems)
    assert any("2 packet records for 3 arrivals" in p for p in problems)
    assert any("channel accesses 1 < sends 5" in p for p in problems)
    assert checks.results_problems([result, lost])[0].startswith("seed 1: ")


def test_live_cell_share_on_a_hand_sized_case():
    # Run of 10 slots: packet 0 lives in slots 2..4 (3), packet 1 in 5..9
    # (never departs: 5); a second run of 4 slots holds one packet live in
    # slot 0 only (1).  Two runs x 10 slots x 2 columns = 40 coin cells.
    first = SimpleNamespace(num_slots=10, packets=[_packet(0, 2, 4, 1), _packet(1, 5, None, 0)])
    second = SimpleNamespace(num_slots=4, packets=[_packet(0, 0, 0, 1)])
    live = checks.live_packet_slots([first, second])
    assert live == 9
    assert checks.live_cell_share(live, 40) == pytest.approx(9 / 40)
    assert checks.live_cell_share(0, 0) == 0.0


def test_rows_digest_sees_the_last_bit_of_a_float():
    rows = [{"protocol": "low-sensing", "throughput": 0.1 + 0.2}]
    same = [{"throughput": 0.30000000000000004, "protocol": "low-sensing"}]
    nudged = [{"protocol": "low-sensing", "throughput": 0.3}]
    assert checks.rows_digest(rows) == checks.rows_digest(same)
    assert checks.rows_digest(rows) != checks.rows_digest(nudged)


def test_a_shape_check_that_raises_counts_as_one_failure():
    report = SimpleNamespace(rows=[])
    assert checks.shape_failures("E2", report) == 0  # all() of nothing holds
    assert checks.shape_failures("E1", report) == 1


def test_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    fields = lambda m: (m["name"], m["unit"], m["better"])  # noqa: E731
    assert [fields(m) for m in spec["end_to_end"]] == [(m.name, m.unit, m.better) for m in END_TO_END]
    assert [fields(m) for m in spec["per_layer"]] == [(m.name, m.unit, m.better) for m in PER_LAYER]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {owner_of(exp_id).name for exp_id in GRID} <= set(WORKLOADS)


def test_workload_seeds_are_a_function_of_the_benchmark_seed():
    workload = WORKLOADS["potential-vector"]
    assert workload.call_seeds(7) == workload.call_seeds(7)
    assert workload.call_seeds(7) != workload.call_seeds(8)
    assert len(workload.call_seeds(7)) == workload.calls_per_id


def test_each_table_time_is_scaled_by_the_reference_kernel_beside_it(monkeypatch):
    import child
    import run

    class Table:
        def __init__(self, name):
            self.name = name

        def run(self):
            pass

        def check(self, row):
            return []

        def sizes(self):
            return {}

        def close(self):
            pass

    # The kernel takes twice, once and half its reference time: after
    # set-up, between the two tables, and after the second.
    kernel = iter([2 * child.REFERENCE_S, child.REFERENCE_S, child.REFERENCE_S / 2])
    monkeypatch.setattr(child, "reference_s", lambda: next(kernel))
    out = child.run_tables([Table("a"), Table("b")], None)
    assert out["setup_scale"] == pytest.approx(0.5)
    assert [row["scale"] for row in out["tables"]] == pytest.approx([2 / 3, 4 / 3])
    rep = {"tables": [{"wall_s": 3.0, "scale": 2 / 3}, {"wall_s": 1.5, "scale": 4 / 3}]}
    assert run.scaled_wall(rep) == pytest.approx(4.0)

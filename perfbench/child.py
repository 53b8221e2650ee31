"""One repetition of a workload, in a fresh process.

``run.py`` starts this script from the repository root::

    python3 perfbench/child.py --mode MODE --workload NAME --seed N --workdir DIR

Modes:

* ``full``: import the program, build every plan, backend and store, then
  run every table with tracing off; set-up ends at the first entry-point
  call (``t_first``);
* ``traced``: as ``full`` with the wrappers of :mod:`tracing` installed
  before the plans are built; adds the per-layer figures and writes the
  spans to ``.perfbench_out/spans-<workload>-seed<seed>.json``;
* ``speedup``: time every grid experiment on the serial and on the vector
  backend, at the size and seeds of the vector workload that owns it.

The last line of standard output is one JSON object.  Times are taken with
``time.monotonic`` where they cross the process boundary (the clock is
system-wide on Linux) and ``time.perf_counter`` within the process.  A
fixed reference kernel runs after set-up and after every table, outside
the timed calls, and each table reports the host speed it ran at as a
``scale`` (see :func:`run_tables`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Any

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import repro.campaigns.runner as campaigns  # noqa: E402
import repro.experiments.experiments as experiments  # noqa: E402
import repro.observe.export as observe_export  # noqa: E402
import repro.observe.registry as observe_registry  # noqa: E402
import repro.scenarios.runner as scenarios  # noqa: E402
import repro.telemetry.summarize as summarize  # noqa: E402
from repro.exec import ResultCacheBackend, SerialBackend, VectorBackend  # noqa: E402
from repro.exec.backends import ExecutionBackend  # noqa: E402
from repro.scenarios.catalog import builtin_scenarios  # noqa: E402
from repro.store import ResultsStore  # noqa: E402
from repro.telemetry import JsonlSink, TelemetrySession, activated  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import GRID, WORKLOADS, Workload, owner_of  # noqa: E402


class Collecting(ExecutionBackend):
    """Runs jobs on ``inner`` and keeps the results for the output checks."""

    def __init__(self, inner: ExecutionBackend) -> None:
        self.inner = inner
        self.name = inner.name
        self.results: list[Any] = []

    def run(self, jobs):
        results = self.inner.run(jobs)
        self.results.extend(results)
        return results

    def result_layout(self, job):
        return self.inner.result_layout(job)

    def describe(self) -> dict[str, Any]:
        return self.inner.describe()

    def take(self) -> list[Any]:
        results, self.results = self.results, []
        return results


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# -- Experiment tables ---------------------------------------------------------


class ExperimentTable:
    """One ``ALL_EXPERIMENTS[id]`` call on the workload's backend."""

    def __init__(self, exp_id: str, index: int, scale: str, seeds: list[int], backend: Collecting, label: str = "") -> None:
        self.exp_id = exp_id
        self.name = f"{label}{exp_id}#{index}"
        self.scale = scale
        self.seeds = seeds
        self.backend = backend
        # Built here so plan construction is set-up time, as it is for
        # callers that lay out a plan before running it.
        self.specs = len(experiments.EXPERIMENT_PLANS[exp_id](scale, seeds))
        self.report = None

    def run(self) -> None:
        self.report = experiments.ALL_EXPERIMENTS[self.exp_id](
            scale=self.scale, seeds=self.seeds, backend=self.backend
        )

    def check(self, row: dict[str, Any]) -> list[Any]:
        results = self.backend.take()
        if len(results) != self.specs:
            row["problems"].append(f"{len(results)} results for {self.specs} specs")
        row["problems"] += checks.results_problems(results)
        row["digest"] = checks.rows_digest(self.report.rows)
        row["shape_failures"] = checks.shape_failures(self.exp_id, self.report)
        return results

    def sizes(self) -> dict[str, int]:
        return {}

    def close(self) -> None:
        self.backend.take()


def experiment_tables(workload: Workload, seed: int, backend: Collecting, label: str = "") -> list[ExperimentTable]:
    return [
        ExperimentTable(exp_id, index, workload.scale, seeds, backend, label)
        for exp_id in workload.ids
        for index, seeds in enumerate(workload.call_seeds(seed))
    ]


# -- Campaign tables -----------------------------------------------------------


class CampaignTable:
    """One catalog scenario: interrupted, resumed, rerun from cache, reported, folded."""

    def __init__(self, scenario: Any, scale: str, seeds: list[int], workdir: Path) -> None:
        self.scenario = scenario
        self.name = scenario.scenario_id
        self.scale = scale
        self.seeds = seeds
        self.plan = scenarios.build_plan(scenario, scale, seeds)
        self.fail_after = max(1, len(self.plan.groups) // 2)
        root = workdir / self.name
        self.store = ResultsStore(root / "store")
        self.cache = ResultCacheBackend(self.store.root)
        self.jsonl = root / "telemetry.jsonl"
        self.outcome = self.interrupted = self.rerun = self.report = None
        self.fingerprint = self.prometheus = self.summary = None

    def run(self) -> None:
        session = TelemetrySession([JsonlSink(self.jsonl)])
        try:
            with activated(session):
                try:
                    campaigns.start_campaign(
                        self.store,
                        self.scenario,
                        scale=self.scale,
                        seeds=self.seeds,
                        campaign_id=self.name,
                        fail_after_units=self.fail_after,
                    )
                    self.interrupted = False
                except campaigns.CampaignInterrupted:
                    self.interrupted = True
                self.outcome = campaigns.resume_campaign(self.store, self.name)
                self.rerun = self.plan.run(self.cache)
                self.report = campaigns.campaign_report(self.store, self.name)
                self.fingerprint = self.store.fingerprint()
        finally:
            session.close()
        self.summary = summarize.summarize_file(self.jsonl)
        registry = observe_registry.fold_events(summarize.iter_events(self.jsonl))
        self.prometheus = observe_export.to_prometheus(registry)

    def check(self, row: dict[str, Any]) -> list[Any]:
        problems = row["problems"]
        total = len(self.plan)
        if self.interrupted != (len(self.plan.groups) > self.fail_after):
            problems.append(f"interrupted={self.interrupted} after {self.fail_after} of {len(self.plan.groups)} units")
        if self.outcome.status != "complete" or self.outcome.total_runs != total:
            problems.append(f"resume ended {self.outcome.status} with {self.outcome.total_runs}/{total} runs")
        if (self.cache.hits, self.cache.misses) != (total, 0):
            problems.append(f"cache rerun: {self.cache.hits} hits, {self.cache.misses} misses for {total} runs")
        if len(self.report.rows) != len(self.plan.groups):
            problems.append(f"{len(self.report.rows)} report rows for {len(self.plan.groups)} groups")
        if not self.summary["runs"] or "repro_span_seconds" not in self.prometheus:
            problems.append("telemetry fold produced no session or no span metrics")
        results = self.rerun.results
        problems += checks.results_problems(results)
        row["digest"] = checks.rows_digest(self.report.rows, self.fingerprint)
        return results

    def sizes(self) -> dict[str, int]:
        artifacts = sum(path.stat().st_size for path in self.store.artifacts_dir.rglob("*") if path.is_file())
        return {
            "store.artifact_bytes": artifacts,
            "store.db_bytes": self.store.db_path.stat().st_size,
            "telemetry.jsonl_bytes": self.jsonl.stat().st_size,
            "telemetry.events": sum(1 for _ in summarize.iter_events(self.jsonl)),
        }

    def close(self) -> None:
        self.cache.close()
        self.store.close()


def campaign_tables(workload: Workload, seed: int, workdir: Path) -> list[CampaignTable]:
    seeds = workload.call_seeds(seed)[0]
    return [CampaignTable(scenario, workload.scale, seeds, workdir) for _, scenario in sorted(builtin_scenarios().items())]


# -- Running -------------------------------------------------------------------


#: What :func:`reference_s` takes on an unloaded 2-vCPU Xeon VM.
REFERENCE_S = 0.035
_REFERENCE_VALUES = numpy.arange(65_536, dtype=numpy.float64)


def reference_s() -> float:
    """Time a fixed mix of interpreter loops and numpy array work.

    The kernel runs between the timed calls, never inside them; the time
    it takes says how fast the host is at that moment (see ``scale``).
    """
    start = time.perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i
    values = _REFERENCE_VALUES.copy()
    for _ in range(30):
        values[values % 7.0 < 3.0] *= 0.5
    return time.perf_counter() - start


def run_tables(tables: list[Any], tracer: tracing.Tracer | None) -> dict[str, Any]:
    """Run every table back to back; only the entry-point calls are timed.

    Each row's ``scale`` is ``REFERENCE_S`` over the reference kernel's
    time right before and right after the table, and ``setup_scale`` the
    same ratio for the kernel right after set-up: a time multiplied by its
    scale is the time on a host that runs the kernel in ``REFERENCE_S``.
    """
    out: dict[str, Any] = {"t_first": time.monotonic(), "wall_s": 0.0, "slots": 0, "tables": []}
    extra: dict[str, float] = {"live_slots": 0}
    before = reference_s()
    out["setup_scale"] = REFERENCE_S / before
    for table in tables:
        row: dict[str, Any] = {"table": table.name, "problems": [], "digest": None, "shape_failures": 0}
        start = time.perf_counter()
        try:
            table.run()
        except Exception as exc:  # a failing table is counted; the rest still run
            row["problems"].append(_failure(exc))
        row["wall_s"] = time.perf_counter() - start
        after = reference_s()
        row["scale"] = 2 * REFERENCE_S / (before + after)
        before = after
        out["wall_s"] += row["wall_s"]
        if not row["problems"]:
            results = table.check(row)
            out["slots"] += sum(result.num_slots for result in results)
            for key, value in table.sizes().items():
                extra[key] = extra.get(key, 0) + value
        table.close()
        if tracer is not None:
            extra["live_slots"] += checks.live_packet_slots(tracer.vector_results)
            tracer.vector_results.clear()
        out["tables"].append(row)
    out["extra"] = extra
    return out


def layer_figures(tracer: tracing.Tracer, extra: dict[str, float], describes: list[dict[str, Any]]) -> dict[str, float]:
    spans, hot, counts = tracer.spans, tracer.hot, tracer.counts
    selfs = tracing.self_times(spans, hot)
    total = lambda name: tracing.outermost_total(spans, name)  # noqa: E731
    vector = {"vectorized_jobs": 0, "fallback_jobs": 0, "mega_batches": 0}
    cache = {"hits": 0, "misses": 0}
    for description in describes:
        for key in vector:
            vector[key] += description.get(key, 0)
        for key in cache:
            cache[key] += description.get(key, 0)
    lookups = cache["hits"] + cache["misses"]
    coins = tracing.hot_total(hot, "vector.coins")
    protocol = tracing.hot_total(hot, "vector.protocol")
    adversary = tracing.hot_total(hot, "vector.adversary")
    return {
        "experiments.plan_s": total("experiments.plan"),
        "experiments.specs": counts["experiments.specs"],
        "experiments.report_s": tracing.self_total(spans, selfs, "experiments.report"),
        "exec.partition_s": tracing.self_total(spans, selfs, "exec.partition"),
        "exec.vectorized_jobs": vector["vectorized_jobs"],
        "exec.fallback_jobs": vector["fallback_jobs"],
        "exec.mega_batches": vector["mega_batches"],
        "exec.support_probes": counts["exec.support_probes"],
        "cache.hits": cache["hits"],
        "cache.misses": cache["misses"],
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "vector.build_s": total("vector.build"),
        "vector.run_s": total("vector.run"),
        "vector.launches": counts["vector.launches"],
        "vector.replications": counts["vector.replications"],
        "vector.coins_s": coins,
        "vector.coin_cells": counts["vector.coin_cells"],
        "vector.protocol_s": protocol,
        "vector.adversary_s": adversary,
        "vector.engine_self_s": tracing.self_total(spans, selfs, "vector.run"),
        "vector.live_cell_share": checks.live_cell_share(int(extra["live_slots"]), counts["vector.coin_cells"]),
        "sim.run_s": total("sim.run"),
        "sim.runs": counts["sim.runs"],
        "sim.slots": counts["sim.slots"],
        "metrics.aggregate_s": total("metrics.aggregate"),
        "store.put_s": total("store.put"),
        "store.puts": len(tracing.outermost(spans, "store.put")),
        "store.get_s": total("store.get"),
        "store.gets": len(tracing.outermost(spans, "store.get")),
        "store.fingerprint_s": total("store.fingerprint"),
        "store.artifact_bytes": extra.get("store.artifact_bytes", 0),
        "store.db_bytes": extra.get("store.db_bytes", 0),
        "campaigns.start_s": total("campaigns.start"),
        "campaigns.resume_s": total("campaigns.resume"),
        "campaigns.rerun_s": total("cache.run"),
        "campaigns.report_s": total("campaigns.report"),
        "campaigns.units_run": counts["campaigns.units_run"],
        "campaigns.units_skipped": counts["campaigns.units_skipped"],
        "telemetry.events": extra.get("telemetry.events", 0),
        "telemetry.jsonl_bytes": extra.get("telemetry.jsonl_bytes", 0),
        "observe.fold_s": total("observe.fold"),
    }


def host_facts() -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("full", "traced", "speedup"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    if args.mode == "speedup":
        print(json.dumps(speedup(args.seed)))
        return

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if workload.kind == "campaign":
        tables = campaign_tables(workload, args.seed, args.workdir)
        backend = None
    else:
        backend = Collecting(VectorBackend())
        tables = experiment_tables(workload, args.seed, backend)
    out = run_tables(tables, tracer)
    describes = [backend.describe()] if backend is not None else [table.cache.describe() for table in tables]
    out.update(describe=describes, host=host_facts(), rss_mb=peak_rss_mb())
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = layer_figures(tracer, out["extra"], describes)
        spans = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text(json.dumps(tracer.dump()))
        out["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps(out))


def speedup(seed: int) -> dict[str, Any]:
    """Serial and vector wall-clock of every grid experiment (same plan, same seeds)."""
    out: dict[str, Any] = {"tables": [], "speedup": {}}
    for exp_id in GRID:
        owner = owner_of(exp_id)
        times = {}
        for name, make in (("serial", SerialBackend), ("vector", VectorBackend)):
            sub = dataclasses.replace(owner, ids=(exp_id,))
            run = run_tables(experiment_tables(sub, seed, Collecting(make()), f"{name}:"), None)
            out["tables"] += run["tables"]
            times[name] = run["wall_s"]
        out["speedup"][exp_id] = times
    return out


if __name__ == "__main__":
    main()

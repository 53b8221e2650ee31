"""Shared infrastructure for the benchmark suite.

Each benchmark regenerates one of the paper-claim experiments (see the
README's "Experiments" section).  The experiment functions are deterministic given their seed
list, so every benchmark runs its experiment exactly once
(``benchmark.pedantic(rounds=1)``): the interesting output is the table of
measurements, not the wall-clock time, although pytest-benchmark still
records the latter.

Every benchmark writes its rendered report to ``benchmarks/results/<id>.txt``
so that every table can be refreshed from an actual run.
"""

from __future__ import annotations

import pathlib
import time

import pytest

from repro.experiments.bench import record_bench
from repro.experiments.reporting import render_report
from repro.experiments.spec import ExperimentReport

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Repo root, where headline BENCH artifacts are mirrored so the perf
#: trajectory is visible where tooling looks for ``BENCH_*.json`` (the
#: canonical history stays under ``benchmarks/results/``).
REPO_ROOT = pathlib.Path(__file__).parent.parent


def mirror_path(path: pathlib.Path) -> pathlib.Path:
    """The repo-root mirror of a ``benchmarks/results/BENCH_*.json`` file."""
    return REPO_ROOT / path.name


#: Wall-clock-per-experiment artifact.  Each benchmark run *merges* its
#: timing into the file (per-experiment history accumulates; see
#: :mod:`repro.experiments.bench`), so the pipeline's speedup trajectory
#: builds up across runs and PRs instead of being overwritten.
BENCH_PIPELINE_PATH = RESULTS_DIR / "BENCH_pipeline.json"

#: Scale used by the benchmark suite.  "default" reproduces the shapes the
#: paper claims at laptop scale; switch to "full" for a slower, larger sweep.
BENCH_SCALE = "default"


def save_report(report: ExperimentReport) -> str:
    """Render ``report``, persist it under ``benchmarks/results/``, return it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rendered = render_report(report)
    path = RESULTS_DIR / f"{report.spec.exp_id.lower()}.txt"
    path.write_text(rendered + "\n", encoding="utf-8")
    return rendered


def record_wall_clock(exp_id: str, seconds: float, scale: str) -> None:
    """Merge one experiment's wall-clock time into ``BENCH_pipeline.json``."""
    record_bench(
        BENCH_PIPELINE_PATH,
        exp_id,
        seconds=seconds,
        scale=scale,
        mirror=mirror_path(BENCH_PIPELINE_PATH),
    )


def run_experiment_benchmark(benchmark, experiment, scale: str = BENCH_SCALE):
    """Run ``experiment`` once under pytest-benchmark and persist its report."""
    started = time.perf_counter()
    report = benchmark.pedantic(
        lambda: experiment(scale=scale), rounds=1, iterations=1, warmup_rounds=0
    )
    record_wall_clock(report.spec.exp_id, time.perf_counter() - started, scale)
    rendered = save_report(report)
    print()
    print(rendered)
    return report


@pytest.fixture
def bench_scale() -> str:
    return BENCH_SCALE

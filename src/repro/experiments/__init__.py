"""Paper-experiment harness.

Each of the paper's main claims is reproduced by one experiment (E1–E9 plus
the ablation A1; the README's "Experiments" section is the index).  An experiment is a plain
function that runs a parameter sweep with replication and returns an
:class:`~repro.experiments.spec.ExperimentReport` containing the table rows
that the benchmarks write to ``benchmarks/results/``.  The benchmark suite calls the same functions,
so `pytest benchmarks/ --benchmark-only` regenerates every table.
"""

from repro.experiments.experiments import (
    ALL_EXPERIMENTS,
    run_a1_ablation,
    run_e1_throughput_batch,
    run_e2_implicit_throughput,
    run_e3_backlog,
    run_e4_energy_finite,
    run_e5_energy_queueing,
    run_e6_reactive,
    run_e7_jamming_throughput,
    run_e8_energy_throughput_tradeoff,
    run_e9_potential_drift,
)
from repro.experiments.plan import (
    Factory,
    PlanResults,
    RunSpec,
    SweepPlan,
    aggregate_replicate_row,
    factory,
)
from repro.experiments.reporting import render_report, report_to_dict
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import ExperimentReport, ExperimentSpec

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentReport",
    "ExperimentSpec",
    "Factory",
    "PlanResults",
    "RunSpec",
    "SweepPlan",
    "SweepRunner",
    "aggregate_replicate_row",
    "factory",
    "render_report",
    "report_to_dict",
    "run_a1_ablation",
    "run_e1_throughput_batch",
    "run_e2_implicit_throughput",
    "run_e3_backlog",
    "run_e4_energy_finite",
    "run_e5_energy_queueing",
    "run_e6_reactive",
    "run_e7_jamming_throughput",
    "run_e8_energy_throughput_tradeoff",
    "run_e9_potential_drift",
]

"""The benchmark's workloads and metric catalog.

This module is imported by the orchestrating process as well as by each
repetition process, so it imports nothing from ``repro``: the orchestrator
never loads the program it measures.

Every workload is one offline batch job driven closed-loop by a single
client: the entry-point calls run one after another in one process, with no
pool and no threads beyond the program's own.  The benchmark seed reaches the
program only as the ``seeds=`` list of those calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: The paper grid, in report order.
GRID = ("A1", "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``experiments`` workloads call ``ALL_EXPERIMENTS[id]`` on the vector
    backend, ``calls_per_id`` times per experiment with one seed each; the
    ``campaign`` workload runs every catalog scenario as a campaign on the
    serial backend with one seed.
    """

    name: str
    kind: str  # "experiments" or "campaign"
    scale: str
    ids: tuple[str, ...] = ()
    calls_per_id: int = 1

    def call_seeds(self, seed: int) -> list[list[int]]:
        """The ``seeds=`` list of every call, derived from the benchmark seed."""
        rng = random.Random(f"{self.name}:{seed}")
        return [[rng.randrange(1, 2**31 - 1)] for _ in range(self.calls_per_id)]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Default scale with one seed: long adversarial-queueing horizons
        # with few live cells, where vector is slower than serial today.
        Workload("queueing-vector", "experiments", "default", ("E2", "E3", "E5")),
        # Batch arrivals and jammers stacked into mega-batches; the control
        # for live-set changes.  How long a batch takes to drain depends on
        # the seed: one default-scale seed of these six plans moves the
        # slot count by +-15% between seeds and takes 6-11 s, so a run held
        # only two or three repetitions of one seed.  Many smoke-scale
        # single-seed calls sum to a steadier amount of work (six calls per
        # experiment still left wall_s spreading 0.06-0.09 between seeds)
        # and give every run three repetitions or more.
        Workload(
            "batch-vector",
            "experiments",
            "smoke",
            ("A1", "E1", "E4", "E6", "E7", "E8"),
            calls_per_id=8,
        ),
        # E9 alone.  One default-scale seed takes ~30 s on vector and its
        # cost swings by a quarter between seeds, so the workload sums many
        # smoke-scale single-seed calls instead (one call's cost varies by
        # a fifth between seeds): the sum of independent seeds is steady,
        # and each call still runs the potential-term path.
        Workload("potential-vector", "experiments", "smoke", ("E9",), calls_per_id=24),
        # Every catalog scenario as an interrupted, resumed, cache-rerun
        # campaign on the serial backend.
        Workload("catalog-campaign", "campaign", "smoke"),
    )
}


def owner_of(exp_id: str) -> Workload:
    """The vector workload that runs ``exp_id`` (and so fixes its size)."""
    for workload in WORKLOADS.values():
        if exp_id in workload.ids:
            return workload
    raise KeyError(exp_id)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str


#: Measured with tracing off, one fresh process per repetition.
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("wall_s", "s", "lower"),
    Metric("slots_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB", "lower"),
)

_LAYER_METRICS = [
    ("experiments.plan_s", "s", "lower"),
    ("experiments.specs", "count", "lower"),
    ("experiments.report_s", "s", "lower"),
    ("exec.partition_s", "s", "lower"),
    ("exec.vectorized_jobs", "count", "higher"),
    ("exec.fallback_jobs", "count", "lower"),
    ("exec.mega_batches", "count", "lower"),
    ("exec.support_probes", "count", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("vector.build_s", "s", "lower"),
    ("vector.run_s", "s", "lower"),
    ("vector.launches", "count", "lower"),
    ("vector.replications", "count", "higher"),
    ("vector.coins_s", "s", "lower"),
    ("vector.coin_cells", "count", "lower"),
    ("vector.protocol_s", "s", "lower"),
    ("vector.adversary_s", "s", "lower"),
    ("vector.engine_self_s", "s", "lower"),
    ("vector.live_cell_share", "ratio", "higher"),
    ("sim.run_s", "s", "lower"),
    ("sim.runs", "count", "higher"),
    ("sim.slots", "count", "higher"),
    ("metrics.aggregate_s", "s", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.puts", "count", "lower"),
    ("store.get_s", "s", "lower"),
    ("store.gets", "count", "lower"),
    ("store.fingerprint_s", "s", "lower"),
    ("store.artifact_bytes", "bytes", "lower"),
    ("store.db_bytes", "bytes", "lower"),
    ("campaigns.start_s", "s", "lower"),
    ("campaigns.resume_s", "s", "lower"),
    ("campaigns.rerun_s", "s", "lower"),
    ("campaigns.report_s", "s", "lower"),
    ("campaigns.units_run", "count", "higher"),
    ("campaigns.units_skipped", "count", "higher"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.jsonl_bytes", "bytes", "lower"),
    ("observe.fold_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    *[(f"speedup.{exp_id}", "x", "higher") for exp_id in GRID],
    ("speedup.below_1x", "count", "lower"),
    ("paper.shape_failures", "count", "lower"),
    ("fail_share", "ratio", "lower"),
]

#: Measured in the traced run.
PER_LAYER = tuple(Metric(*entry) for entry in _LAYER_METRICS)

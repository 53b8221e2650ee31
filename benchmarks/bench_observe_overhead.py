"""Benchmark: the full observe stack must cost <= 1.05x on the E1 core.

Runs the same vectorizable E1 batch-arrival workload as
``bench_telemetry_overhead.py`` twice — once bare (NULL session) and once
with everything ``repro.observe`` adds on top of telemetry active at the
same time: a JSONL sink and a :class:`ResourceSampler` polling ``/proc``
on a tight interval.  The enabled/disabled wall-clock ratio lands in
``benchmarks/results/BENCH_observe.json``.

The aggregation layer inherits telemetry's contract: it only ever *reads*
monotonic clocks, ``/proc``, and already-emitted events, so stacking it on
must stay inside the same <= 1.05x bar the base instrumentation meets.
On contended CI hardware the bar can be relaxed via
``BENCH_OBSERVE_OVERHEAD_TARGET``.  The JSON artifact records the measured
ratio, the 1.05x target and the bar actually asserted as separate fields,
plus the counters of the backend that ran, so the acceptance number stays
auditable.
"""

from __future__ import annotations

import os
import time

from conftest import RESULTS_DIR, mirror_path

from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.exec import VectorBackend
from repro.experiments.bench import record_bench
from repro.experiments.plan import SweepPlan, factory
from repro.observe import ResourceSampler
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.telemetry import JsonlSink, TelemetrySession, activated

BENCH_OBSERVE_PATH = RESULTS_DIR / "BENCH_observe.json"

REPLICATIONS = 24

BATCH_SIZES = (100, 200)

#: Enabled/disabled wall-clock ratio the aggregation layer may cost.
OVERHEAD_TARGET = 1.05

#: The bar actually asserted: the target, unless relaxed for contended CI
#: hardware via ``BENCH_OBSERVE_OVERHEAD_TARGET``.
OVERHEAD_BAR = float(os.environ.get("BENCH_OBSERVE_OVERHEAD_TARGET", OVERHEAD_TARGET))

#: Resource-sampler poll interval; deliberately much tighter than the
#: 0.25s default so the bar covers a worst-case sampling cadence.
SAMPLE_INTERVAL = 0.05

#: Timed rounds per mode; the minimum is reported to shed scheduler noise.
ROUNDS = 3


def build_plan() -> SweepPlan:
    seeds = list(range(1, REPLICATIONS + 1))
    plan = SweepPlan()
    for n in BATCH_SIZES:
        for protocol in (
            BinaryExponentialBackoff(),
            PolynomialBackoff(),
            FixedProbabilityProtocol.tuned_for(n),
        ):
            plan.add_group(
                protocol,
                factory(CompositeAdversary, factory(BatchArrivals, n)),
                seeds,
                columns={"n": n},
            )
    return plan


def _time_disabled(plan: SweepPlan) -> tuple[float, VectorBackend]:
    """Best of ``ROUNDS`` runs, and the backend of the last (to describe)."""
    best = float("inf")
    for _ in range(ROUNDS):
        backend = VectorBackend()
        started = time.perf_counter()
        with activated(None):
            plan.run(backend)
        best = min(best, time.perf_counter() - started)
    return best, backend


def _time_observed(plan: SweepPlan, jsonl_path) -> tuple[float, VectorBackend]:
    """Best of ``ROUNDS`` observed runs, and the backend of the last."""
    best = float("inf")
    for _ in range(ROUNDS):
        backend = VectorBackend()
        session = TelemetrySession([JsonlSink(jsonl_path)])
        started = time.perf_counter()
        with activated(session):
            with ResourceSampler(session, interval=SAMPLE_INTERVAL):
                plan.run(backend)
        best = min(best, time.perf_counter() - started)
    return best, backend


def test_observe_overhead(benchmark, tmp_path):
    plan = build_plan()
    jsonl = tmp_path / "bench-observe.jsonl"

    # Warm both paths once so imports/allocator state don't bias either side.
    warm = SweepPlan()
    warm.add_group(
        BinaryExponentialBackoff(),
        factory(CompositeAdversary, factory(BatchArrivals, 50)),
        [1, 2],
    )
    _time_disabled(warm)
    _time_observed(warm, tmp_path / "warm.jsonl")

    disabled_seconds, backend = benchmark.pedantic(
        lambda: _time_disabled(plan),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    enabled_seconds, _ = _time_observed(plan, jsonl)

    ratio = enabled_seconds / disabled_seconds
    record_bench(
        BENCH_OBSERVE_PATH,
        "E1_vector_core_observe_overhead",
        seconds=disabled_seconds,
        scale="default",
        backend=backend.describe(),
        mirror=mirror_path(BENCH_OBSERVE_PATH),
        extra={
            "enabled_seconds": round(enabled_seconds, 4),
            "disabled_seconds": round(disabled_seconds, 4),
            "overhead_ratio": round(ratio, 4),
            "overhead_target": OVERHEAD_TARGET,
            "overhead_bar": OVERHEAD_BAR,
            "sample_interval": SAMPLE_INTERVAL,
            "rounds": ROUNDS,
            "replications": REPLICATIONS,
            "batch_sizes": list(BATCH_SIZES),
        },
    )
    print(
        f"\nobserve stack enabled {enabled_seconds:.3f}s vs disabled "
        f"{disabled_seconds:.3f}s -> {ratio:.3f}x "
        f"(bar <= {OVERHEAD_BAR}x, target {OVERHEAD_TARGET}x) [{len(plan)} runs]"
    )
    assert ratio <= OVERHEAD_BAR, (
        f"observe overhead ratio {ratio:.3f}x exceeded the "
        f"{OVERHEAD_BAR}x acceptance bar"
    )

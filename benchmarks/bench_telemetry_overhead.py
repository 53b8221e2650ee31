"""Benchmark: telemetry overhead on the E1 vector core must be near-zero.

Runs the same vectorizable E1 batch-arrival workload as
``bench_vector_backend.py`` twice — once with telemetry disabled (the
default NULL session) and once with an active :class:`TelemetrySession`
feeding a JSONL sink — and records the enabled/disabled wall-clock ratio
in ``benchmarks/results/BENCH_telemetry.json``.

The observability contract is that instrumentation samples *outside* the
per-slot hot loop, so enabling it must cost almost nothing: the asserted
bar is a ratio <= 1.05x.  On contended CI hardware the bar can be relaxed
via ``BENCH_TELEMETRY_OVERHEAD_TARGET``.  The JSON artifact records the
measured ratio, the 1.05x target and the bar actually asserted as separate
fields, plus the counters of the backend that ran, so the acceptance number
stays auditable.
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
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.telemetry import JsonlSink, TelemetrySession, activated

BENCH_TELEMETRY_PATH = RESULTS_DIR / "BENCH_telemetry.json"

REPLICATIONS = 24

BATCH_SIZES = (100, 200)

#: Enabled/disabled wall-clock ratio the disabled-path contract allows.
OVERHEAD_TARGET = 1.05

#: The bar actually asserted: the target, unless relaxed for contended CI
#: hardware via ``BENCH_TELEMETRY_OVERHEAD_TARGET``.
OVERHEAD_BAR = float(os.environ.get("BENCH_TELEMETRY_OVERHEAD_TARGET", OVERHEAD_TARGET))

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


def _time_plan(plan: SweepPlan, session_factory) -> tuple[float, VectorBackend]:
    """Best of ``ROUNDS`` runs, and the backend of the last (to describe)."""
    best = float("inf")
    for _ in range(ROUNDS):
        backend = VectorBackend()
        started = time.perf_counter()
        with activated(session_factory()):
            plan.run(backend)
        best = min(best, time.perf_counter() - started)
    return best, backend


def test_telemetry_overhead(benchmark, tmp_path):
    plan = build_plan()
    jsonl = tmp_path / "bench-telemetry.jsonl"

    # Warm both paths once so imports/allocator state don't bias either side.
    warm = SweepPlan()
    warm.add_group(
        BinaryExponentialBackoff(),
        factory(CompositeAdversary, factory(BatchArrivals, 50)),
        [1, 2],
    )
    _time_plan(warm, lambda: None)
    _time_plan(warm, lambda: TelemetrySession([JsonlSink(jsonl)]))

    disabled_seconds, backend = benchmark.pedantic(
        lambda: _time_plan(plan, lambda: None),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    enabled_seconds, _ = _time_plan(
        plan, lambda: TelemetrySession([JsonlSink(jsonl)])
    )

    ratio = enabled_seconds / disabled_seconds
    record_bench(
        BENCH_TELEMETRY_PATH,
        "E1_vector_core_telemetry_overhead",
        seconds=disabled_seconds,
        scale="default",
        backend=backend.describe(),
        mirror=mirror_path(BENCH_TELEMETRY_PATH),
        extra={
            "enabled_seconds": round(enabled_seconds, 4),
            "disabled_seconds": round(disabled_seconds, 4),
            "overhead_ratio": round(ratio, 4),
            "overhead_target": OVERHEAD_TARGET,
            "overhead_bar": OVERHEAD_BAR,
            "rounds": ROUNDS,
            "replications": REPLICATIONS,
            "batch_sizes": list(BATCH_SIZES),
        },
    )
    print(
        f"\ntelemetry enabled {enabled_seconds:.3f}s vs disabled "
        f"{disabled_seconds:.3f}s -> {ratio:.3f}x "
        f"(bar <= {OVERHEAD_BAR}x, target {OVERHEAD_TARGET}x) [{len(plan)} runs]"
    )
    assert ratio <= OVERHEAD_BAR, (
        f"telemetry overhead ratio {ratio:.3f}x exceeded the "
        f"{OVERHEAD_BAR}x acceptance bar"
    )

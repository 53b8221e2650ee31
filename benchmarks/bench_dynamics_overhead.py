"""Benchmark: dynamics sampling overhead on the E1 vector core.

Runs the same vectorizable E1 batch-arrival workload as
``bench_vector_backend.py`` twice — once with dynamics off
(``dynamics_window=0``, the default) and once sampling a windowed
trajectory per run — and records the enabled/disabled wall-clock ratio
in ``benchmarks/results/BENCH_dynamics.json``.

The dynamics contract mirrors telemetry's: sampling happens *outside*
the per-slot hot loop (a cheap accumulator on the scalar engine, a
post-loop materialisation on the vector engine), so enabling it must
cost almost nothing and the disabled path must cost exactly nothing.
The asserted bar is a ratio <= 1.05x; on contended CI hardware it can
be relaxed via ``BENCH_DYNAMICS_OVERHEAD_TARGET``.  The JSON artifact
records the measured ratio, the 1.05x target and the bar actually asserted
as separate fields, plus the counters of the backend that ran, so the
acceptance number stays auditable.
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

BENCH_DYNAMICS_PATH = RESULTS_DIR / "BENCH_dynamics.json"

REPLICATIONS = 24

BATCH_SIZES = (100, 200)

#: Sampling interval for the enabled side of the comparison.
DYNAMICS_WINDOW = 500

#: Enabled/disabled wall-clock ratio the off-hot-path contract allows.
OVERHEAD_TARGET = 1.05

#: The bar actually asserted: the target, unless relaxed for contended CI
#: hardware via ``BENCH_DYNAMICS_OVERHEAD_TARGET``.
OVERHEAD_BAR = float(os.environ.get("BENCH_DYNAMICS_OVERHEAD_TARGET", OVERHEAD_TARGET))

#: Timed rounds per mode; the minimum is reported to shed scheduler noise.
ROUNDS = 3


def build_plan(dynamics_window: int) -> SweepPlan:
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
                dynamics_window=dynamics_window,
            )
    return plan


def _time_plan(plan: SweepPlan) -> tuple[float, VectorBackend]:
    """Best of ``ROUNDS`` runs, and the backend of the last (to describe)."""
    best = float("inf")
    for _ in range(ROUNDS):
        backend = VectorBackend()
        started = time.perf_counter()
        plan.run(backend)
        best = min(best, time.perf_counter() - started)
    return best, backend


def test_dynamics_overhead(benchmark):
    disabled_plan = build_plan(0)
    enabled_plan = build_plan(DYNAMICS_WINDOW)

    # Warm both paths once so imports/allocator state don't bias either side.
    warm_off = SweepPlan()
    warm_off.add_group(
        BinaryExponentialBackoff(),
        factory(CompositeAdversary, factory(BatchArrivals, 50)),
        [1, 2],
    )
    warm_on = SweepPlan()
    warm_on.add_group(
        BinaryExponentialBackoff(),
        factory(CompositeAdversary, factory(BatchArrivals, 50)),
        [1, 2],
        dynamics_window=DYNAMICS_WINDOW,
    )
    _time_plan(warm_off)
    _time_plan(warm_on)

    disabled_seconds, backend = benchmark.pedantic(
        lambda: _time_plan(disabled_plan),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    enabled_seconds, _ = _time_plan(enabled_plan)

    ratio = enabled_seconds / disabled_seconds
    record_bench(
        BENCH_DYNAMICS_PATH,
        "E1_vector_core_dynamics_overhead",
        seconds=disabled_seconds,
        scale="default",
        backend=backend.describe(),
        mirror=mirror_path(BENCH_DYNAMICS_PATH),
        extra={
            "enabled_seconds": round(enabled_seconds, 4),
            "disabled_seconds": round(disabled_seconds, 4),
            "overhead_ratio": round(ratio, 4),
            "overhead_target": OVERHEAD_TARGET,
            "overhead_bar": OVERHEAD_BAR,
            "dynamics_window": DYNAMICS_WINDOW,
            "rounds": ROUNDS,
            "replications": REPLICATIONS,
            "batch_sizes": list(BATCH_SIZES),
        },
    )
    print(
        f"\ndynamics enabled {enabled_seconds:.3f}s vs disabled "
        f"{disabled_seconds:.3f}s -> {ratio:.3f}x "
        f"(bar <= {OVERHEAD_BAR}x, target {OVERHEAD_TARGET}x) [{len(disabled_plan)} runs]"
    )
    assert ratio <= OVERHEAD_BAR, (
        f"dynamics overhead ratio {ratio:.3f}x exceeded the "
        f"{OVERHEAD_BAR}x acceptance bar"
    )

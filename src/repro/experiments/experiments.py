"""Definitions of the paper-claim experiments E1–E9 and the ablation A1.

Every experiment function takes a ``scale`` ("smoke" for tests, "default"
for the benchmark suite, "full" for slower high-precision runs), a seed
list, and an optional execution ``backend`` (see :mod:`repro.exec`), and
returns an :class:`~repro.experiments.spec.ExperimentReport` whose rows are
the table the README's "Experiments" section indexes.  The functions only *measure*; the
pass/fail reasoning lives in the verdict strings and in the test-suite's
assertions.

Each experiment is expressed declaratively: it first lays out its whole
protocol × adversary × seed grid as a :class:`~repro.experiments.plan.SweepPlan`
(adversaries as picklable :func:`~repro.experiments.plan.factory` calls, not
closures), then executes the plan on the chosen backend, then post-processes
the aligned results into rows and verdicts.  The same plan therefore runs
serially, across a process pool, or against a result cache — with identical
tables.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.adversary.arrivals import (
    AdversarialQueueingArrivals,
    BatchArrivals,
    PeriodicBurstArrivals,
)
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BudgetedRandomJamming,
    BurstJamming,
    NoJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.analysis.fitting import fit_linear, fit_log_power, fit_power_law
from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.core.parameters import LowSensingParameters
from repro.exec.backends import ExecutionBackend
from repro.experiments.plan import Factory, SweepPlan, factory
from repro.experiments.spec import ExperimentReport, ExperimentSpec, check_scale
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff

DEFAULT_SEEDS = (11, 23, 47)
SMOKE_SEEDS = (11,)


def _seeds(scale: str, seeds: Sequence[int] | None) -> Sequence[int]:
    if seeds is not None:
        return seeds
    return SMOKE_SEEDS if scale == "smoke" else DEFAULT_SEEDS


def _batch_sizes(scale: str) -> list[int]:
    if scale == "smoke":
        return [50, 100]
    if scale == "default":
        return [100, 200, 400, 800]
    return [100, 200, 400, 800, 1600]


def _batch_adversary(n: int) -> Factory:
    return factory(CompositeAdversary, factory(BatchArrivals, n))


def _queueing_adversary(
    rate: float, granularity: int, placement: str, horizon: int
) -> Factory:
    return factory(
        CompositeAdversary,
        factory(
            AdversarialQueueingArrivals,
            rate=rate,
            granularity=granularity,
            placement=placement,
            horizon=horizon,
        ),
    )


# ---------------------------------------------------------------------------
# E1 — Overall throughput on finite (batch) streams.
# ---------------------------------------------------------------------------

E1_SPEC = ExperimentSpec(
    exp_id="E1",
    title="Throughput on batch arrivals",
    claim=(
        "Corollary 1.4: LOW-SENSING BACKOFF delivers Θ(1) overall throughput "
        "on finite streams, whereas binary exponential backoff degrades as "
        "O(1/ln N) [23]."
    ),
    bench_target="benchmarks/bench_e1_throughput_batch.py",
)


def build_e1_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E1 grid: batch size N × every protocol, replicated over seeds."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    sizes = _batch_sizes(scale)
    protocols: list = [
        LowSensingBackoff(),
        FullSensingMultiplicativeWeights(),
        SawtoothBackoff(),
        BinaryExponentialBackoff(),
        PolynomialBackoff(),
    ]
    plan = SweepPlan()
    for n in sizes:
        for protocol in protocols + [FixedProbabilityProtocol.tuned_for(n)]:
            plan.add_group(
                protocol, _batch_adversary(n), seeds, columns={"n": n}
            )
    return plan


def run_e1_throughput_batch(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Sweep batch size N for every protocol and record overall throughput."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E1_SPEC)
    plan = build_e1_plan(scale, seeds)
    for row in plan.run(backend).group_rows():
        report.add_row(row)
    # Verdict: is low-sensing throughput flat while BEB's declines?
    lsb = [r for r in report.rows if r["protocol"] == "low-sensing"]
    beb = [r for r in report.rows if r["protocol"] == "binary-exponential"]
    if len(lsb) >= 2 and len(beb) >= 2:
        report.verdicts["low_sensing_ratio_last_to_first"] = (
            f"{lsb[-1]['throughput'] / lsb[0]['throughput']:.3f}"
        )
        report.verdicts["beb_ratio_last_to_first"] = (
            f"{beb[-1]['throughput'] / beb[0]['throughput']:.3f}"
        )
    return report


# ---------------------------------------------------------------------------
# E2 — Implicit throughput on (effectively) infinite streams.
# ---------------------------------------------------------------------------

E2_SPEC = ExperimentSpec(
    exp_id="E2",
    title="Implicit throughput under adversarial-queuing arrivals",
    claim=(
        "Theorem 1.3: the implicit throughput (N_t + J_t)/S_t is Ω(1) at "
        "every active slot, for arbitrarily long executions."
    ),
    bench_target="benchmarks/bench_e2_implicit_throughput.py",
)


def _e2_horizon(scale: str) -> int:
    return {"smoke": 2_000, "default": 15_000, "full": 60_000}[scale]


def build_e2_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E2 grid: adversarial-queuing configurations at a long horizon."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    horizon = _e2_horizon(scale)
    configs = [
        (0.1, 100, "front"),
        (0.2, 200, "front"),
        (0.2, 200, "random"),
        (0.3, 400, "front"),
    ]
    if scale == "smoke":
        configs = configs[:2]
    plan = SweepPlan()
    for rate, granularity, placement in configs:
        plan.add_group(
            LowSensingBackoff(),
            _queueing_adversary(rate, granularity, placement, horizon),
            seeds,
            columns={"rate": rate, "granularity": granularity, "placement": placement},
            max_slots=horizon * 4,
        )
    return plan


def run_e2_implicit_throughput(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Long queueing runs; record the minimum implicit throughput over time."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E2_SPEC)
    horizon = _e2_horizon(scale)
    plan = build_e2_plan(scale, seeds)
    results = plan.run(backend)
    for group in plan.groups:
        columns = dict(group.columns)
        granularity = columns["granularity"]
        for seed, result in results.seeded_group(group.group_id):
            series = result.implicit_throughput_series()
            # Ignore the warm-up prefix: implicit throughput is trivially high
            # before the first burst has been processed.
            start = min(len(series) - 1, granularity)
            tail = series[start:] or series
            report.add_row(
                {
                    "protocol": "low-sensing",
                    **columns,
                    "seed": seed,
                    "horizon": horizon,
                    "arrivals": result.num_arrivals,
                    "min_implicit_throughput": min(tail),
                    "final_implicit_throughput": series[-1],
                    "final_throughput": result.throughput,
                    "drained": result.drained,
                }
            )
    minima = report.column("min_implicit_throughput")
    report.verdicts["worst_min_implicit_throughput"] = f"{min(minima):.3f}"
    return report


# ---------------------------------------------------------------------------
# E3 — Bounded backlog under adversarial-queuing arrivals.
# ---------------------------------------------------------------------------

E3_SPEC = ExperimentSpec(
    exp_id="E3",
    title="Backlog under adversarial-queuing arrivals",
    claim=(
        "Corollary 1.5: with (λ, S) arrivals and small constant λ, the number "
        "of packets in the system is O(S) at all times."
    ),
    bench_target="benchmarks/bench_e3_backlog.py",
)


def build_e3_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E3 grid: queueing granularity sweep at fixed rate."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    granularities = {"smoke": [100], "default": [100, 200, 400], "full": [100, 200, 400, 800]}[
        scale
    ]
    windows = {"smoke": 10, "default": 30, "full": 60}[scale]
    rate = 0.2
    plan = SweepPlan()
    for granularity in granularities:
        horizon = granularity * windows
        plan.add_group(
            LowSensingBackoff(),
            _queueing_adversary(rate, granularity, "front", horizon),
            seeds,
            columns={"granularity": granularity, "rate": rate, "horizon": horizon},
            max_slots=horizon * 4,
        )
    return plan


def run_e3_backlog(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Sweep the granularity S and record max backlog relative to S."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E3_SPEC)
    plan = build_e3_plan(scale, seeds)
    for row in plan.run(backend).group_rows():
        row["max_backlog_over_s"] = row["max_backlog"] / row["granularity"]
        report.add_row(row)
    ratios = report.column("max_backlog_over_s")
    report.verdicts["largest_backlog_over_s"] = f"{max(ratios):.3f}"
    if len(report.rows) >= 2:
        fit = fit_linear(report.column("granularity"), report.column("max_backlog"))
        report.verdicts["backlog_vs_s_linear_fit"] = str(fit)
    return report


# ---------------------------------------------------------------------------
# E4 — Energy (channel accesses) on finite streams, adaptive adversary.
# ---------------------------------------------------------------------------

E4_SPEC = ExperimentSpec(
    exp_id="E4",
    title="Channel accesses per packet on finite streams",
    claim=(
        "Theorem 1.6: every packet makes O(polylog(N+J)) channel accesses "
        "w.h.p. against an adaptive (non-reactive) adversary."
    ),
    bench_target="benchmarks/bench_e4_energy_finite.py",
)


def build_e4_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E4 grid: batch size × jamming-budget fraction."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    sizes = _batch_sizes(scale)
    jam_fractions = [0.0, 0.5] if scale != "smoke" else [0.0]
    plan = SweepPlan()
    for n in sizes:
        for jam_fraction in jam_fractions:
            budget = int(n * jam_fraction)
            jammer = (
                factory(BudgetedRandomJamming, budget=budget, horizon=8 * n)
                if budget
                else factory(NoJamming)
            )
            plan.add_group(
                LowSensingBackoff(),
                factory(CompositeAdversary, factory(BatchArrivals, n), jammer),
                seeds,
                columns={"n": n, "jam_budget": budget},
            )
    return plan


def run_e4_energy_finite(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Sweep N (and a jamming budget proportional to N); fit access scaling."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E4_SPEC)
    plan = build_e4_plan(scale, seeds)
    for row in plan.run(backend).group_rows():
        row["n_plus_j"] = row["n"] + row["jam_budget"]
        report.add_row(row)
    unjammed = report.rows_where(jam_budget=0)
    xs = [row["n"] for row in unjammed]
    ys = [row["mean_accesses"] for row in unjammed]
    if len(xs) >= 3:
        log_fit = fit_log_power(xs, ys)
        power_fit = fit_power_law(xs, ys)
        linear_fit = fit_linear(xs, ys)
        report.verdicts["mean_accesses_log_power_fit"] = str(log_fit)
        report.verdicts["mean_accesses_power_fit"] = str(power_fit)
        report.verdicts["mean_accesses_linear_fit"] = str(linear_fit)
        report.verdicts["accesses_growth_factor"] = (
            f"N x{xs[-1] / xs[0]:.0f} -> accesses x{ys[-1] / ys[0]:.2f}"
        )
    return report


# ---------------------------------------------------------------------------
# E5 — Energy under adversarial-queuing arrivals.
# ---------------------------------------------------------------------------

E5_SPEC = ExperimentSpec(
    exp_id="E5",
    title="Channel accesses per packet under adversarial queuing",
    claim=(
        "Theorem 1.7: with (λ, S) arrivals and small constant λ, every packet "
        "makes O(polylog S) channel accesses w.h.p."
    ),
    bench_target="benchmarks/bench_e5_energy_queueing.py",
)


def build_e5_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E5 grid: queueing granularity sweep for energy statistics."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    granularities = {"smoke": [100], "default": [100, 200, 400, 800], "full": [100, 200, 400, 800, 1600]}[
        scale
    ]
    windows = {"smoke": 10, "default": 25, "full": 50}[scale]
    rate = 0.2
    plan = SweepPlan()
    for granularity in granularities:
        horizon = granularity * windows
        plan.add_group(
            LowSensingBackoff(),
            _queueing_adversary(rate, granularity, "front", horizon),
            seeds,
            columns={"granularity": granularity, "rate": rate, "horizon": horizon},
            max_slots=horizon * 4,
        )
    return plan


def run_e5_energy_queueing(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Sweep granularity S; record per-packet access statistics."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E5_SPEC)
    plan = build_e5_plan(scale, seeds)
    for row in plan.run(backend).group_rows():
        report.add_row(row)
    xs = report.column("granularity")
    ys = report.column("mean_accesses")
    if len(xs) >= 3:
        report.verdicts["mean_accesses_log_power_fit"] = str(fit_log_power(xs, ys))
        report.verdicts["mean_accesses_power_fit"] = str(fit_power_law(xs, ys))
        report.verdicts["accesses_growth_factor"] = (
            f"S x{xs[-1] / xs[0]:.0f} -> accesses x{ys[-1] / ys[0]:.2f}"
        )
    return report


# ---------------------------------------------------------------------------
# E6 — Reactive adversary: worst-case vs average energy.
# ---------------------------------------------------------------------------

E6_SPEC = ExperimentSpec(
    exp_id="E6",
    title="Energy against a reactive adversary",
    claim=(
        "Theorem 1.9: against a reactive adversary a targeted packet may pay "
        "O((J+1)·polylog(N)) accesses, but the average over packets stays "
        "O((J/N+1)·polylog(N+J))."
    ),
    bench_target="benchmarks/bench_e6_reactive.py",
)


def build_e6_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E6 grid: reactive jamming budgets aimed at one victim packet."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    n = 100 if scale == "smoke" else 200
    budgets = [0, 25, 100, 400] if scale != "smoke" else [0, 25]
    plan = SweepPlan()
    for budget in budgets:
        plan.add_group(
            LowSensingBackoff(),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, n),
                factory(ReactiveTargetedJammer, budget=budget, target_index=0),
            ),
            seeds,
            columns={"n": n, "jam_budget": budget},
            max_slots=500_000,
        )
    return plan


def run_e6_reactive(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Sweep the reactive jamming budget aimed at one victim packet."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E6_SPEC)
    plan = build_e6_plan(scale, seeds)
    results = plan.run(backend)
    for group in plan.groups:
        columns = dict(group.columns)
        for seed, result in results.seeded_group(group.group_id):
            energy = result.energy_statistics()
            victim = next(p for p in result.packets if p.packet_id == 0)
            report.add_row(
                {
                    "protocol": "low-sensing",
                    **columns,
                    "seed": seed,
                    "victim_accesses": victim.channel_accesses,
                    "mean_accesses": energy.mean_accesses,
                    "max_accesses": energy.max_accesses,
                    "jammed_active": result.num_jammed_active,
                    "throughput": result.throughput,
                    "drained": result.drained,
                }
            )
    by_budget: dict[int, list[float]] = {}
    avg_by_budget: dict[int, list[float]] = {}
    for row in report.rows:
        by_budget.setdefault(row["jam_budget"], []).append(row["victim_accesses"])
        avg_by_budget.setdefault(row["jam_budget"], []).append(row["mean_accesses"])
    for budget, values in sorted(by_budget.items()):
        mean_victim = sum(values) / len(values)
        mean_avg = sum(avg_by_budget[budget]) / len(avg_by_budget[budget])
        report.verdicts[f"victim_accesses_at_J={budget}"] = f"{mean_victim:.1f}"
        report.verdicts[f"mean_accesses_at_J={budget}"] = f"{mean_avg:.1f}"
    return report


# ---------------------------------------------------------------------------
# E7 — Throughput robustness to jamming.
# ---------------------------------------------------------------------------

E7_SPEC = ExperimentSpec(
    exp_id="E7",
    title="Throughput with adversarial jamming",
    claim=(
        "Corollary 1.4 with J > 0: throughput measured as (T+J)/S remains "
        "Θ(1) under adaptive jamming strategies."
    ),
    bench_target="benchmarks/bench_e7_jamming_throughput.py",
)


def build_e7_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E7 grid: jamming strategies × protocols on a batch workload."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    n = 100 if scale == "smoke" else 300
    jammers: list[tuple[str, Factory]] = [
        ("none", factory(NoJamming)),
        ("bernoulli-20%", factory(BernoulliJamming, probability=0.2, budget=n)),
        ("burst", factory(BurstJamming, start=20, length=n // 2)),
        (
            "adaptive-good-contention",
            factory(AdaptiveContentionJammer, budget=n, target_regime="good"),
        ),
        ("reactive-success", factory(ReactiveSuccessJammer, budget=n // 2)),
    ]
    if scale == "smoke":
        jammers = jammers[:3]
    protocols = [LowSensingBackoff(), FullSensingMultiplicativeWeights(), BinaryExponentialBackoff()]
    if scale == "smoke":
        protocols = protocols[:1]
    plan = SweepPlan()
    for jammer_name, jammer in jammers:
        for protocol in protocols:
            plan.add_group(
                protocol,
                factory(CompositeAdversary, factory(BatchArrivals, n), jammer),
                seeds,
                columns={"n": n, "jammer": jammer_name},
            )
    return plan


def run_e7_jamming_throughput(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Batch workload under several jamming strategies and protocols."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E7_SPEC)
    plan = build_e7_plan(scale, seeds)
    for row in plan.run(backend).group_rows():
        report.add_row(row)
    lsb_rows = [r for r in report.rows if r["protocol"] == "low-sensing"]
    report.verdicts["low_sensing_min_throughput_over_jammers"] = (
        f"{min(r['throughput'] for r in lsb_rows):.3f}"
    )
    return report


# ---------------------------------------------------------------------------
# E8 — Energy/throughput trade-off across protocols.
# ---------------------------------------------------------------------------

E8_SPEC = ExperimentSpec(
    exp_id="E8",
    title="Energy vs throughput across protocols",
    claim=(
        "The motivation of the paper: full-sensing protocols buy Θ(1) "
        "throughput with Θ(active slots) listens per packet; oblivious "
        "protocols are listen-free but lose constant throughput; LOW-SENSING "
        "BACKOFF achieves both constant throughput and polylog accesses."
    ),
    bench_target="benchmarks/bench_e8_energy_throughput_tradeoff.py",
)


def _e8_sizes(scale: str) -> list[int]:
    return [100] if scale == "smoke" else [200, 400]


def build_e8_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E8 grid: every protocol at each batch size."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    sizes = _e8_sizes(scale)
    protocols = [
        LowSensingBackoff(),
        FullSensingMultiplicativeWeights(),
        SawtoothBackoff(),
        BinaryExponentialBackoff(),
        PolynomialBackoff(),
    ]
    plan = SweepPlan()
    for n in sizes:
        for protocol in protocols:
            plan.add_group(
                protocol, _batch_adversary(n), seeds, columns={"n": n}
            )
    return plan


def run_e8_energy_throughput_tradeoff(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Record the (throughput, accesses/packet) pair for every protocol."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E8_SPEC)
    sizes = _e8_sizes(scale)
    plan = build_e8_plan(scale, seeds)
    for row in plan.run(backend).group_rows():
        report.add_row(row)
    for n in sizes:
        rows = report.rows_where(n=n)
        lsb = next(r for r in rows if r["protocol"] == "low-sensing")
        mw = next(r for r in rows if r["protocol"] == "full-sensing-mw")
        beb = next(r for r in rows if r["protocol"] == "binary-exponential")
        report.verdicts[f"n={n}_mw_over_lsb_accesses"] = (
            f"{mw['mean_accesses'] / lsb['mean_accesses']:.2f}"
        )
        report.verdicts[f"n={n}_lsb_over_beb_throughput"] = (
            f"{lsb['throughput'] / beb['throughput']:.2f}"
        )
    return report


# ---------------------------------------------------------------------------
# E9 — Potential-function drift (Theorem 5.18).
# ---------------------------------------------------------------------------

E9_SPEC = ExperimentSpec(
    exp_id="E9",
    title="Potential-function drift over analysis intervals",
    claim=(
        "Theorem 5.18: over intervals of length τ = (1/c_int)·max(w_max/ln² "
        "w_max, √N), the potential Φ decreases by Ω(τ) − O(A+J) w.h.p.; the "
        "maximum potential stays O(N+J) (Corollary 5.22)."
    ),
    bench_target="benchmarks/bench_e9_potential_drift.py",
)


def build_e9_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The E9 grid: batch and bursty workloads with potential tracking."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    n = 100 if scale == "smoke" else 400
    workloads: list[tuple[str, Factory]] = [
        ("batch", _batch_adversary(n)),
        (
            "bursty",
            factory(
                CompositeAdversary,
                factory(
                    PeriodicBurstArrivals,
                    burst_size=n // 10,
                    period=50,
                    num_bursts=10,
                ),
                factory(BernoulliJamming, probability=0.05, budget=n // 4),
            ),
        ),
    ]
    plan = SweepPlan()
    for workload_name, adversary in workloads:
        plan.add_group(
            LowSensingBackoff(),
            adversary,
            seeds,
            columns={"workload": workload_name},
            max_slots=500_000,
            collect_potential=True,
        )
    return plan


def run_e9_potential_drift(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Track Φ(t) on batch and bursty workloads; report drift statistics."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=E9_SPEC)
    plan = build_e9_plan(scale, seeds)
    results = plan.run(backend)
    for group in plan.groups:
        columns = dict(group.columns)
        for seed, result in results.seeded_group(group.group_id):
            tracker = result.potential
            assert tracker is not None
            drifts = tracker.interval_drifts()
            negative_fraction = tracker.fraction_negative_drift()
            jam_plus_arrivals = result.num_arrivals + result.num_jammed_active
            report.add_row(
                {
                    "protocol": "low-sensing",
                    **columns,
                    "seed": seed,
                    "n_plus_j": jam_plus_arrivals,
                    "num_intervals": len(drifts),
                    "fraction_negative_drift": negative_fraction,
                    "max_potential": tracker.max_potential(),
                    "max_potential_over_n_plus_j": (
                        tracker.max_potential() / jam_plus_arrivals
                        if jam_plus_arrivals
                        else 0.0
                    ),
                    "throughput": result.throughput,
                    "drained": result.drained,
                }
            )
    fractions = report.column("fraction_negative_drift")
    report.verdicts["min_fraction_negative_drift"] = f"{min(fractions):.3f}"
    ratios = report.column("max_potential_over_n_plus_j")
    report.verdicts["max_potential_over_n_plus_j"] = f"{max(ratios):.3f}"
    return report


# ---------------------------------------------------------------------------
# A1 — Ablation of design choices.
# ---------------------------------------------------------------------------

A1_SPEC = ExperimentSpec(
    exp_id="A1",
    title="Ablation: algorithm constants and listen/send coupling",
    claim=(
        "Design choices of Section 3: the coupled listen-then-send structure "
        "and the c / w_min constants trade energy against convergence speed "
        "without affecting the constant-throughput behaviour."
    ),
    bench_target="benchmarks/bench_a1_ablation.py",
)


def build_a1_plan(
    scale: str = "default", seeds: Sequence[int] | None = None
) -> SweepPlan:
    """The A1 grid: LOW-SENSING parameter and coupling variants."""
    scale = check_scale(scale)
    seeds = _seeds(scale, seeds)
    n = 100 if scale == "smoke" else 300
    variants: list[tuple[str, object]] = [
        ("default (c=0.5, w_min=32)", LowSensingBackoff()),
        (
            "larger constants (c=1, w_min=100)",
            LowSensingBackoff(params=LowSensingParameters(c=1.0, w_min=100.0)),
        ),
        (
            "gentler updates (c=1.4, w_min=256)",
            LowSensingBackoff(params=LowSensingParameters(c=1.4, w_min=256.0)),
        ),
        ("decoupled listen/send coins", DecoupledLowSensingBackoff()),
    ]
    if scale == "smoke":
        variants = variants[:2]
    plan = SweepPlan()
    for label, protocol in variants:
        plan.add_group(
            protocol,
            _batch_adversary(n),
            seeds,
            columns={"variant": label, "n": n},
        )
    return plan


def run_a1_ablation(
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Compare LOW-SENSING variants (constants, decoupled coins) on a batch."""
    scale = check_scale(scale)
    report = ExperimentReport(spec=A1_SPEC)
    plan = build_a1_plan(scale, seeds)
    for row in plan.run(backend).group_rows():
        report.add_row(row)
    throughputs = {row["variant"]: row["throughput"] for row in report.rows}
    report.verdicts["throughput_spread"] = (
        f"min={min(throughputs.values()):.3f}, max={max(throughputs.values()):.3f}"
    )
    return report


#: Registry used by the benchmark suite, the CLI, and the reporting module.
ALL_EXPERIMENTS: dict[str, Callable[..., ExperimentReport]] = {
    "E1": run_e1_throughput_batch,
    "E2": run_e2_implicit_throughput,
    "E3": run_e3_backlog,
    "E4": run_e4_energy_finite,
    "E5": run_e5_energy_queueing,
    "E6": run_e6_reactive,
    "E7": run_e7_jamming_throughput,
    "E8": run_e8_energy_throughput_tradeoff,
    "E9": run_e9_potential_drift,
    "A1": run_a1_ablation,
}

#: Plan builders, one per experiment: the declarative grid *without* running
#: it.  ``run --explain`` and ``list --json`` introspect vectorization
#: coverage through these, and every ``run_*`` function above executes
#: exactly the plan its builder returns.
EXPERIMENT_PLANS: dict[str, Callable[..., SweepPlan]] = {
    "E1": build_e1_plan,
    "E2": build_e2_plan,
    "E3": build_e3_plan,
    "E4": build_e4_plan,
    "E5": build_e5_plan,
    "E6": build_e6_plan,
    "E7": build_e7_plan,
    "E8": build_e8_plan,
    "E9": build_e9_plan,
    "A1": build_a1_plan,
}

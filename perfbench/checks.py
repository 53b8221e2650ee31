"""Output checks: per-run invariants, table digests and the paper's shapes.

A table (one experiment report or one scenario campaign) fails when it
raises, when one of its runs breaks an invariant, or when its rows digest
differs from an earlier repetition of the same source tree and seed.  The
paper-shape assertions of ``benchmarks/bench_*.py`` are evaluated too, but
only counted: at one or two seeds a legitimate change of random-number
layout can flip them by chance.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Callable, Iterable


def run_problems(result: Any) -> list[str]:
    """Invariant violations of one ``SimulationResult`` (empty when sound)."""
    problems = []
    arrivals, delivered, backlog = result.num_arrivals, result.num_delivered, result.backlog
    if arrivals != delivered + backlog:
        problems.append(f"arrivals {arrivals} != delivered {delivered} + backlog {backlog}")
    if len(result.packets) != arrivals:
        problems.append(f"{len(result.packets)} packet records for {arrivals} arrivals")
    sends = sum(packet.sends for packet in result.packets)
    accesses = sum(packet.channel_accesses for packet in result.packets)
    if accesses < sends:
        problems.append(f"channel accesses {accesses} < sends {sends}")
    return problems


def results_problems(results: Iterable[Any]) -> list[str]:
    problems = []
    for result in results:
        problems.extend(f"seed {result.seed}: {problem}" for problem in run_problems(result))
    return problems


def rows_digest(*parts: Any) -> str:
    """SHA-256 of rows (and any other parts) with floats at full precision."""
    payload = json.dumps(parts, sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def live_packet_slots(results: Iterable[Any]) -> int:
    """Packet-slots spent live: a packet is live from its arrival slot through
    its departure slot, or to the end of the run if it never departs."""
    total = 0
    for result in results:
        for packet in result.packets:
            end = packet.departure_slot + 1 if packet.departure_slot is not None else result.num_slots
            total += end - packet.arrival_slot
    return total


def live_cell_share(live_slots: int, coin_cells: int) -> float:
    """Live packet-slots per coin cell drawn (0 when no coins were drawn)."""
    return live_slots / coin_cells if coin_cells else 0.0


# -- Paper shapes (from benchmarks/bench_*.py) --------------------------------


def _e1(report: Any) -> list[bool]:
    lsb = [r for r in report.rows if r["protocol"] == "low-sensing"]
    beb = [r for r in report.rows if r["protocol"] == "binary-exponential"]
    lsb_ratio = lsb[-1]["throughput"] / lsb[0]["throughput"]
    beb_ratio = beb[-1]["throughput"] / beb[0]["throughput"]
    return [
        min(r["throughput"] for r in lsb) > 0.15,
        lsb_ratio >= 0.6,
        beb_ratio < 0.85,
        beb_ratio < lsb_ratio,
        min(r["throughput"] for r in lsb) > max(r["throughput"] for r in beb),
    ]


def _e2(report: Any) -> list[bool]:
    return [
        all(row["min_implicit_throughput"] > 0.05 for row in report.rows),
        all(row["final_throughput"] > 0.1 for row in report.rows),
    ]


def _e3(report: Any) -> list[bool]:
    ratios = report.column("max_backlog_over_s")
    return [max(ratios) < 2.0, ratios[-1] < 3.0 * ratios[0]]


def _e4(report: Any) -> list[bool]:
    unjammed = report.rows_where(jam_budget=0)
    sizes = [row["n"] for row in unjammed]
    accesses = [row["mean_accesses"] for row in unjammed]
    checks = [value < 3.0 * math.log(n) ** 3 for n, value in zip(sizes, accesses)]
    checks.append(accesses[-1] / accesses[0] < 0.6 * sizes[-1] / sizes[0])
    return checks


def _e5(report: Any) -> list[bool]:
    checks = [row["mean_accesses"] < 3.0 * math.log(row["granularity"]) ** 3 for row in report.rows]
    accesses = report.column("mean_accesses")
    granularities = report.column("granularity")
    checks.append(accesses[-1] / accesses[0] < 0.6 * granularities[-1] / granularities[0])
    return checks


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values)


def _e6(report: Any) -> list[bool]:
    budgets = sorted({row["jam_budget"] for row in report.rows})
    victim = {b: _mean(r["victim_accesses"] for r in report.rows_where(jam_budget=b)) for b in budgets}
    average = {b: _mean(r["mean_accesses"] for r in report.rows_where(jam_budget=b)) for b in budgets}
    largest = budgets[-1]
    return [
        victim[largest] >= largest,
        average[largest] < 4.0 * average[0],
        victim[largest] > 3.0 * average[largest],
    ]


def _e7(report: Any) -> list[bool]:
    lsb_rows = [r for r in report.rows if r["protocol"] == "low-sensing"]
    adaptive_rows = [r for r in lsb_rows if r["jammer"] != "reactive-success"]
    checks = [
        all(row["drained"] for row in lsb_rows),
        min(row["throughput"] for row in adaptive_rows) > 0.12,
    ]
    for jammer in sorted({row["jammer"] for row in report.rows}):
        lsb = next(r for r in lsb_rows if r["jammer"] == jammer)
        beb = next(
            r for r in report.rows if r["protocol"] == "binary-exponential" and r["jammer"] == jammer
        )
        checks.append(lsb["throughput"] > beb["throughput"])
    return checks


def _e8(report: Any) -> list[bool]:
    checks = []
    for n in sorted({row["n"] for row in report.rows}):
        rows = {row["protocol"]: row for row in report.rows_where(n=n)}
        lsb, mw, beb = rows["low-sensing"], rows["full-sensing-mw"], rows["binary-exponential"]
        checks += [
            mw["mean_accesses"] > 1.5 * lsb["mean_accesses"],
            mw["throughput"] < 3.0 * lsb["throughput"],
            beb["mean_accesses"] < lsb["mean_accesses"],
            lsb["throughput"] > 2.0 * beb["throughput"],
        ]
    return checks


def _e9(report: Any) -> list[bool]:
    return [
        all(row["fraction_negative_drift"] > 0.3 for row in report.rows),
        all(row["max_potential_over_n_plus_j"] < 20.0 for row in report.rows),
        all(row["drained"] for row in report.rows),
    ]


def _a1(report: Any) -> list[bool]:
    default_row = next(r for r in report.rows if r["variant"].startswith("default"))
    decoupled_row = next(r for r in report.rows if "decoupled" in r["variant"])
    return [
        min(report.column("throughput")) > 0.05,
        all(row["drained"] for row in report.rows),
        0.5 < decoupled_row["throughput"] / default_row["throughput"] < 2.0,
    ]


SHAPES: dict[str, Callable[[Any], list[bool]]] = {
    "A1": _a1, "E1": _e1, "E2": _e2, "E3": _e3, "E4": _e4,
    "E5": _e5, "E6": _e6, "E7": _e7, "E8": _e8, "E9": _e9,
}


def shape_failures(exp_id: str, report: Any) -> int:
    """How many of the experiment's paper-shape assertions fail (1 if they raise)."""
    try:
        return sum(1 for ok in SHAPES[exp_id](report) if not ok)
    except (ArithmeticError, KeyError, LookupError, StopIteration, ValueError):
        return 1

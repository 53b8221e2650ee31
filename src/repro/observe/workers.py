"""Worker-utilization attribution for pool-backed execution.

:class:`~repro.exec.backends.ProcessPoolBackend` emits one ``simulate``
phase span per job with ``worker_pid`` and ``queue_wait`` attributes,
stamped with the worker's own end time.  This module renders the
fold's (:func:`~repro.observe.registry.fold_events`) worker share:

* per-pid busy seconds, job count, and busy fraction of the pool's
  wall-clock window;
* the queue-wait distribution (p50/p95/max) — how long jobs sat between
  submission and a worker picking them up;
* an **imbalance index**: max per-pid busy time over mean per-pid busy
  time.  1.0 is a perfectly level pool; 2.0 means the slowest worker
  carried twice the average load (stragglers, skewed job sizes, or an
  oversubscribed host).

The same index over campaign checkpoint units (max/mean unit wall-clock)
is computed by :func:`unit_imbalance` and surfaced in
``campaign status``.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.statistics import quantile, running_total
from repro.observe.registry import TelemetryFold


def worker_utilization(fold: TelemetryFold) -> dict[str, Any] | None:
    """Per-worker utilization rows of a fold's pool-attributed spans.

    Returns ``None`` when the fold holds no ``worker_pid`` spans (the
    run never touched a process pool).  The wall-clock window is the
    envelope of all attributed spans — from the earliest job start
    (``ts - dur``) to the latest job end (``ts``) — which is exactly the
    interval during which the pool had work in flight.
    """
    if fold.window is None:
        return None
    wall = max(fold.window[1] - fold.window[0], 0.0)
    rows = [
        {
            "pid": pid,
            "jobs": jobs,
            "busy_seconds": round(busy, 6),
            "busy_fraction": round(round(busy, 6) / wall, 4) if wall > 0 else None,
        }
        for pid, (jobs, busy) in fold.workers.items()
    ]
    busy_values = [busy for _jobs, busy in fold.workers.values()]
    mean_busy = running_total(busy_values) / len(busy_values)
    summary: dict[str, Any] = {
        "workers": sorted(rows, key=lambda row: -row["busy_seconds"]),
        "jobs": sum(row["jobs"] for row in rows),
        "wall_seconds": round(wall, 6),
        "imbalance": (
            round(max(busy_values) / mean_busy, 4) if mean_busy > 0 else None
        ),
    }
    waits = fold.queue_waits
    if waits:
        summary["queue_wait"] = {
            "count": len(waits),
            "p50": round(quantile(waits, 0.5), 6),
            "p95": round(quantile(waits, 0.95), 6),
            "max": round(max(waits), 6),
        }
    return summary


def unit_imbalance(unit_seconds: Sequence[float]) -> float | None:
    """Max/mean imbalance index over campaign unit wall-clocks.

    ``None`` when fewer than two units have timing (one unit is trivially
    "balanced") or the mean is zero.
    """
    values = [float(value) for value in unit_seconds if value is not None]
    if len(values) < 2:
        return None
    mean = sum(values) / len(values)
    if mean <= 0:
        return None
    return round(max(values) / mean, 4)


def worker_caption(summary: dict[str, Any]) -> str:
    """``N job(s) over M worker(s) in Ws``, plus the imbalance when defined."""
    imbalance = summary.get("imbalance")
    return (
        f"{summary['jobs']} job(s) over {len(summary['workers'])} worker(s) "
        f"in {summary['wall_seconds']:.4f}s"
        + (f"; imbalance {imbalance:.2f}x (max/mean busy)" if imbalance else "")
    )


def render_worker_table(summary: dict[str, Any]) -> str:
    """Aligned text block for ``telemetry summarize``'s workers section."""
    header = f"  {'pid':<10} {'jobs':>6} {'busy_s':>10} {'busy_frac':>10}"
    lines = ["workers (process-pool attribution)", header, "  " + "-" * (len(header) - 2)]
    for row in summary["workers"]:
        fraction = row.get("busy_fraction")
        lines.append(
            f"  {row['pid']:<10} {row['jobs']:>6} {row['busy_seconds']:>10.4f} "
            + (f"{fraction:10.1%}" if fraction is not None else f"{'-':>10}")
        )
    lines.append("  " + worker_caption(summary))
    wait = summary.get("queue_wait")
    if wait:
        lines.append(
            f"  queue wait: p50 {wait['p50']:.4f}s, p95 {wait['p95']:.4f}s, "
            f"max {wait['max']:.4f}s over {wait['count']} job(s)"
        )
    return "\n".join(lines)

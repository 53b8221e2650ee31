"""Read a telemetry JSONL file and render its per-phase/per-backend tables.

The reader tolerates a truncated final line (the expected artifact of a
SIGKILL mid-write, see :class:`repro.telemetry.sinks.JsonlSink`) and
skips any malformed interior line rather than failing the whole file.
The tables render one :func:`repro.observe.registry.fold_events` pass —
the same fold every other observability view renders.

The summary decomposes wall-clock by span kind:

* ``root`` spans (sweep / scenario / campaign) define total wall clock.
* ``phase`` spans (build / simulate / finalize / commit) decompose it;
  their share of root time is the ``coverage`` figure the acceptance
  bar cares about (≥95% means the breakdown explains the run).
* ``unit`` spans (campaign checkpoint units) are reported separately
  and excluded from coverage — the phases inside them already count.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from repro.analysis.statistics import quantile, running_total

if TYPE_CHECKING:  # the views live in repro.observe, imported on use
    from repro.observe.registry import TelemetryFold

#: The span table each span kind lands in (any other kind is a phase).
_SPAN_TABLES = {"root": "roots", "unit": "units"}


def iter_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Stream a telemetry JSONL file one parsed event at a time.

    Memory stays flat however large the file grows.  A truncated final
    line (a SIGKILL mid-write, see :class:`repro.telemetry.sinks.JsonlSink`)
    and malformed interior lines are skipped.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse a telemetry JSONL file, tolerating a truncated final line."""
    return list(iter_events(path))


def filter_events(
    events: Iterable[dict[str, Any]],
    *,
    runs: Iterable[str] | None = None,
    last: bool = False,
) -> list[dict[str, Any]]:
    """Select the events of specific sessions.

    ``runs`` are run-id *prefixes* (like git object names: any
    unambiguous prefix of the id ``session_start`` printed); ``last``
    keeps only the file's most recent session.  With neither, the events
    come back unchanged.  A prefix matching more than one run id raises
    :class:`ValueError` naming them; a prefix matching none selects
    nothing.
    """
    events = list(events)
    if not runs and not last:
        return events
    order: list[Any] = []
    for record in events:
        if record.get("run") and record["run"] not in order:
            order.append(record["run"])
    selected = order[-1:] if last else []
    for prefix in runs or ():
        matches = [run for run in order if str(run).startswith(prefix)]
        if prefix in matches:
            matches = [prefix]
        elif len(matches) > 1:
            raise ValueError(
                f"run prefix {prefix!r} is ambiguous: it matches "
                + ", ".join(sorted(map(str, matches)))
            )
        selected += matches
    return [record for record in events if record.get("run") in selected]


def summarize_fold(fold: TelemetryFold) -> dict[str, Any]:
    """The ``telemetry summarize --json`` document of one fold: ``runs``,
    ``phases``/``roots``/``units`` span tables by ``(name, backend)``,
    ``counters``, ``events`` by ``name[reason]``, ``coverage`` (phase /
    root seconds, ``None`` without roots) and, for pool runs, ``workers``.
    """
    tables: dict[str, dict[tuple[str, str], list[float]]] = {
        "phases": {}, "roots": {}, "units": {}
    }
    for (name, kind, backend), durations in fold.spans.items():
        table = tables[_SPAN_TABLES.get(kind, "phases")]
        table.setdefault((name, backend), []).extend(durations)
    rows = {
        title: [
            {
                "name": name,
                "backend": backend,
                "count": len(durations),
                "total": running_total(durations),
                "max": max(durations),
                "mean": running_total(durations) / len(durations),
                # Same quantile definition the Prometheus export uses
                # (linear interpolation, repro.analysis.statistics).
                "p50": quantile(durations, 0.5),
                "p95": quantile(durations, 0.95),
            }
            for (name, backend), durations in table.items()
        ]
        for title, table in tables.items()
    }
    counters: dict[str, float] = {}
    for (name, _backend), value in fold.counters.items():
        counters[name] = counters.get(name, 0.0) + value
    events: dict[str, int] = {}
    event_specs: dict[str, set[str]] = {}
    for (name, reason), count in fold.events.items():
        label = f"{name}[{reason}]" if reason else name
        events[label] = events.get(label, 0) + count
        if (name, reason) in fold.event_specs:
            event_specs.setdefault(label, set()).update(fold.event_specs[name, reason])

    # Pool jobs run concurrently, so their summed busy time can exceed the
    # wall clock it spans; coverage counts them by the union of their
    # intervals instead (the phase table keeps the summed busy time).
    pool_busy = running_total(busy for _jobs, busy in fold.workers.values())
    phase_total = running_total(row["total"] for row in rows["phases"])
    phase_total += fold.pool_seconds - pool_busy
    root_total = running_total(row["total"] for row in rows["roots"])
    summary: dict[str, Any] = {
        "runs": list(fold.runs),
        **{title: sorted(table, key=lambda r: -r["total"]) for title, table in rows.items()},
        "counters": dict(sorted(counters.items())),
        "events": dict(sorted(events.items())),
        "event_specs": {
            label: sorted(specs) for label, specs in sorted(event_specs.items())
        },
        "phase_seconds": phase_total,
        "root_seconds": root_total,
        "coverage": phase_total / root_total if root_total > 0 else None,
    }
    from repro.observe.workers import worker_utilization

    workers = worker_utilization(fold)
    if workers is not None:
        summary["workers"] = workers
    return summary


def summarize_events(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold ``events`` once and return :func:`summarize_fold`'s document."""
    from repro.observe.registry import fold_events

    return summarize_fold(fold_events(events))


def summarize_file(path: str | Path) -> dict[str, Any]:
    """The ``telemetry summarize --json`` document of a JSONL file."""
    return summarize_events(iter_events(path))


def render_summary(summary: dict[str, Any]) -> str:
    """Render :func:`summarize_fold` output as aligned text tables."""
    runs, denom = summary["runs"], summary["root_seconds"]
    lines = [f"telemetry summary — {len(runs)} session(s): {', '.join(runs) or '-'}", ""]
    header = (
        f"  {'name':<18} {'backend':<22} {'count':>6} {'total_s':>10} "
        f"{'mean_s':>10} {'p50_s':>10} {'p95_s':>10} {'max_s':>10} {'share':>7}"
    )
    for title, key in (
        ("roots (total wall-clock)", "roots"),
        ("phases (per-phase / per-backend breakdown)", "phases"),
        ("campaign units", "units"),
    ):
        if not summary[key]:
            continue
        lines += [title, header, "  " + "-" * (len(header) - 2)]
        for row in summary[key]:
            share = f"{row['total'] / denom:6.1%}" if denom > 0 else "     -"
            lines.append(
                f"  {row['name']:<18} {row['backend']:<22} {row['count']:>6} "
                f"{row['total']:>10.4f} {row['mean']:>10.4f} {row['p50']:>10.4f} "
                f"{row['p95']:>10.4f} {row['max']:>10.4f} {share:>7}"
            )
        lines.append("")
    if summary["counters"]:
        lines.append("counters")
        for name, value in summary["counters"].items():
            rendered = f"{int(value)}" if float(value).is_integer() else f"{value:.4f}"
            lines.append(f"  {name:<42} {rendered:>14}")
        lines.append("")
    if summary["events"]:
        lines.append("events")
        for name, count in summary["events"].items():
            lines.append(f"  {name:<42} {count:>14}")
            specs = summary.get("event_specs", {}).get(name)
            if specs:
                extra = f" +{len(specs) - 4} more" if len(specs) > 4 else ""
                lines.append(f"    specs: {', '.join(specs[:4])}{extra}")
        lines.append("")
    if summary["coverage"] is not None:
        lines.append(
            f"coverage: phases explain {summary['coverage']:.1%} of {denom:.4f}s root wall-clock"
        )
    else:
        lines.append("coverage: no root spans in file")
    if "workers" in summary:
        from repro.observe.workers import render_worker_table

        lines += ["", render_worker_table(summary["workers"])]
    return "\n".join(lines)

"""The one fold of a telemetry event stream.

:func:`fold_events` reads a stream (a list, a JSONL file's
:func:`~repro.telemetry.summarize.iter_events`, any one-shot iterator)
once into a frozen :class:`TelemetryFold`.  Every observability view
renders that model and nothing else: ``telemetry summarize`` text and
``--json`` (:func:`repro.telemetry.summarize.summarize_fold`), the
worker table (:mod:`repro.observe.workers`), ``report metrics``
(:mod:`repro.observe.export`) and the ``report html`` telemetry sections
(:mod:`repro.observe.report`).  ``progress`` events are live-rendering
state and fold to nothing.

A record whose ``dur``, ``value`` or ``elapsed_seconds`` is not a finite
number is skipped whole, as a malformed line is: a view of most of a
file beats no view.  Sums run left to right in record order on every
Python version.  The fold only *reads* already-emitted events, so it
cannot move a store fingerprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.analysis.statistics import running_total

#: Resource-sample attributes folded into last-value gauges.
RESOURCE_ATTRS = ("rss_bytes", "cpu_seconds", "fds")

#: The numeric field a record of each kind must carry to be folded.
_NUMERIC_FIELD = {"span": "dur", "counter": "value", "session_end": "elapsed_seconds"}

Process = tuple[str, str]  # (pid, source)


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by at least one of ``intervals``."""
    covered, reached = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reached:
            covered += end - max(start, reached)
            reached = end
    return covered


def _number(raw: Any) -> float | None:
    """``raw`` as a finite float, or ``None`` when it is not one."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class TelemetryFold:
    """Everything the observability views show; mappings keep first-seen order."""

    runs: tuple[str, ...]
    #: ``(name, kind, backend)`` → span durations in record order.
    spans: Mapping[tuple[str, str, str], tuple[float, ...]]
    #: ``(name, backend)`` → counter total.
    counters: Mapping[tuple[str, str], float]
    #: ``(name, reason)`` → event count (``reason`` is ``None`` when absent).
    events: Mapping[tuple[str, str | None], int]
    #: ``(name, reason)`` → the spec-hash prefixes those events named.
    event_specs: Mapping[tuple[str, str | None], frozenset[str]]
    #: ``"start"``/``"end"`` → session count.
    sessions: Mapping[str, int]
    #: ``session_end`` lifetimes in record order.
    session_seconds: tuple[float, ...]
    #: resource attribute → ``(pid, source)`` → last sampled value.
    resources: Mapping[str, Mapping[Process, float]]
    #: ``(pid, source)`` → highest sampled RSS.
    rss_peak: Mapping[Process, float]
    #: The parent process's RSS samples in record order.
    parent_rss: tuple[float, ...]
    #: worker pid → ``(jobs, busy seconds)`` of its ``worker_pid`` spans.
    workers: Mapping[str, tuple[int, float]]
    #: Pool queue waits (submission → worker start) in record order.
    queue_waits: tuple[float, ...]
    #: Earliest worker span start and latest end (``None`` without workers).
    window: tuple[float, float] | None
    #: Seconds in which at least one worker ran: the union of the
    #: ``[ts - dur, ts]`` intervals of each session's worker spans (``ts``
    #: restarts at 0 per session), summed over sessions.
    pool_seconds: float


def fold_events(events: Iterable[dict[str, Any]]) -> TelemetryFold:
    """Fold a telemetry event stream into a :class:`TelemetryFold`, once."""
    runs: list[str] = []
    spans: dict[tuple[str, str, str], list[float]] = {}
    counters: dict[tuple[str, str], float] = {}
    counts: dict[tuple[str, str | None], int] = {}
    specs: dict[tuple[str, str | None], set[str]] = {}
    sessions: dict[str, int] = {}
    lifetimes: list[float] = []
    resources: dict[str, dict[Process, float]] = {attr: {} for attr in RESOURCE_ATTRS}
    rss_peak: dict[Process, float] = {}
    parent_rss: list[float] = []
    workers: dict[str, tuple[int, float]] = {}
    queue_waits: list[float] = []
    window: tuple[float, float] | None = None
    pool: dict[str, list[tuple[float, float]]] = {}
    for record in events:
        kind = record.get("ev")
        field = _NUMERIC_FIELD.get(kind)
        number = _number(record.get(field, 0.0)) if field else None
        if field and number is None:
            continue
        run = record.get("run")
        if run and run not in runs:
            runs.append(run)
        attrs = record.get("attrs")
        attrs = attrs if isinstance(attrs, dict) else {}
        name = str(record.get("name"))
        if kind == "span":
            span_kind = str(attrs.get("kind", "phase"))
            key = (name, span_kind, str(attrs.get("backend", "-")))
            spans.setdefault(key, []).append(number)
            pid = attrs.get("worker_pid")
            if pid is not None:
                jobs, busy = workers.get(str(pid), (0, 0.0))
                workers[str(pid)] = (jobs + 1, busy + number)
                wait = _number(attrs.get("queue_wait"))
                if wait is not None:
                    queue_waits.append(wait)
                ended = _number(record.get("ts")) or 0.0
                started = ended - number
                pool.setdefault(str(run), []).append((started, ended))
                window = (started, ended) if window is None else (
                    min(window[0], started), max(window[1], ended)
                )
        elif kind == "counter":
            key = (name, str(attrs.get("backend", "-")))
            counters[key] = counters.get(key, 0.0) + number
        elif kind == "event":
            reason = attrs.get("reason")
            key = (name, None if reason is None else str(reason))
            counts[key] = counts.get(key, 0) + 1
            # Spec-hash prefixes (vector_fallback carries them) name *which*
            # configurations an event row covers, not just how many times.
            if attrs.get("spec"):
                specs.setdefault(key, set()).add(str(attrs["spec"]))
            if name == "resource_sample":
                process = (str(attrs.get("pid", "-")), str(attrs.get("source", "-")))
                for attr in RESOURCE_ATTRS:
                    value = _number(attrs.get(attr))
                    if value is not None:
                        resources[attr][process] = value
                rss = _number(attrs.get("rss_bytes"))
                if rss is not None:
                    # The high-water mark is what capacity planning needs;
                    # a last-value gauge read after the run would miss it.
                    rss_peak[process] = max(rss, rss_peak.get(process, rss))
                    if attrs.get("source") == "parent":
                        parent_rss.append(rss)
        elif kind == "session_start":
            sessions["start"] = sessions.get("start", 0) + 1
        elif kind == "session_end":
            sessions["end"] = sessions.get("end", 0) + 1
            lifetimes.append(number)
    return TelemetryFold(
        runs=tuple(runs),
        spans={key: tuple(values) for key, values in spans.items()},
        counters=counters,
        events=counts,
        event_specs={key: frozenset(values) for key, values in specs.items()},
        sessions=sessions,
        session_seconds=tuple(lifetimes),
        resources=resources,
        rss_peak=rss_peak,
        parent_rss=tuple(parent_rss),
        workers=workers,
        queue_waits=tuple(queue_waits),
        window=window,
        pool_seconds=running_total(map(_union_length, pool.values())),
    )

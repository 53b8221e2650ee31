"""Zero-dependency exporters of a fold: Prometheus text format and JSON.

``to_prometheus`` renders a :class:`~repro.observe.registry.TelemetryFold`
in the Prometheus text exposition format (version 0.0.4), the document
``report metrics`` prints: one ``# HELP``/``# TYPE`` pair per family,
names matching ``[a-zA-Z_:][a-zA-Z0-9_:]*``, label values escaping
backslash, double-quote and newline, and distributions exported as
``summary`` families (``{quantile="0.5"}`` … plus ``_sum``/``_count``)
because the fold keeps exact observations rather than buckets.  The span,
counter, event and session-count families always appear; session
lifetimes and resource gauges appear when the stream holds them.
``to_json`` is the same content as a structured document.
"""

from __future__ import annotations

import json
import re
from typing import Any

from repro.analysis.statistics import quantile, running_total
from repro.observe.registry import TelemetryFold

#: Prometheus metric-name grammar.
METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Quantiles every distribution exports, in export order.
HISTOGRAM_QUANTILES = (0.5, 0.95, 0.99)

#: Resource gauge families: (name, help, fold attribute or ``None`` for the peak).
_RESOURCE_GAUGES = (
    ("repro_resource_cpu_seconds", "Cumulative process CPU time", "cpu_seconds"),
    ("repro_resource_open_fds", "Open file descriptors", "fds"),
    ("repro_resource_rss_bytes", "Resident set size", "rss_bytes"),
    ("repro_resource_rss_peak_bytes", "High-water resident set size", None),
)

# A sample's value is a number, or a tuple of observations for a distribution.
Family = tuple[str, str, str, list[tuple[dict[str, str], Any]]]


def _families(fold: TelemetryFold) -> list[Family]:
    """``(name, type, help, [(labels, value)])`` per metric family, by name."""
    families: list[Family] = [
        ("repro_counter_total", "counter", "Telemetry counter totals by name/backend", [
            ({"backend": backend, "name": name}, value)
            for (name, backend), value in fold.counters.items()
        ]),
        ("repro_events_total", "counter", "Telemetry point events by name/reason", [
            ({"name": name, "reason": "-" if reason is None else reason}, float(count))
            for (name, reason), count in fold.events.items()
            if name != "resource_sample"  # those feed the resource gauges
        ]),
        ("repro_sessions_total", "counter", "Telemetry sessions opened/closed", [
            ({"phase": phase}, float(count)) for phase, count in fold.sessions.items()
        ]),
        ("repro_span_seconds", "histogram", "Telemetry span durations by name/kind/backend", [
            ({"backend": backend, "kind": kind, "name": name}, durations)
            for (name, kind, backend), durations in fold.spans.items()
        ]),
    ]
    if fold.session_seconds:
        families.append(("repro_session_seconds", "histogram",
                         "Telemetry session lifetimes", [({}, fold.session_seconds)]))
    for name, help_text, attr in _RESOURCE_GAUGES:
        values = fold.resources[attr] if attr else fold.rss_peak
        if values:
            samples = [({"pid": pid, "source": source}, value)
                       for (pid, source), value in values.items()]
            families.append((name, "gauge", help_text, samples))
    return sorted(families, key=lambda family: family[0])


def _stats(values: tuple[float, ...]) -> dict[str, float]:
    """The exported shape of one distribution sample."""
    stats = {"count": float(len(values)), "sum": running_total(values)}
    for q in HISTOGRAM_QUANTILES:
        stats[f"p{int(q * 100)}"] = quantile(values, q)
    return stats


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: dict[str, str]) -> str:
    body = ",".join(
        f'{name}="{escape_label_value(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + body + "}" if body else ""


def _render_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(fold: TelemetryFold) -> str:
    """Render the fold as a text-format exposition document."""
    lines: list[str] = []
    for name, metric_type, help_text, samples in _families(fold):
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {'summary' if metric_type == 'histogram' else metric_type}")
        for labels, value in samples:
            if not isinstance(value, tuple):
                lines.append(f"{name}{_render_labels(labels)} {_render_value(value)}")
                continue
            stats = _stats(value)
            for q in HISTOGRAM_QUANTILES:
                rendered = _render_labels({**labels, "quantile": str(q)})
                lines.append(f"{name}{rendered} {_render_value(stats[f'p{int(q * 100)}'])}")
            lines.append(f"{name}_sum{_render_labels(labels)} {_render_value(stats['sum'])}")
            lines.append(f"{name}_count{_render_labels(labels)} {_render_value(stats['count'])}")
    return "\n".join(lines) + "\n"


def to_json(fold: TelemetryFold, *, indent: int | None = 2) -> str:
    """The fold as a JSON document (one entry per metric family)."""
    metrics = [
        {
            "name": name,
            "type": metric_type,
            "help": help_text,
            "samples": [
                {"labels": labels,
                 **(_stats(value) if isinstance(value, tuple) else {"value": float(value)})}
                for labels, value in samples
            ],
        }
        for name, metric_type, help_text, samples in _families(fold)
    ]
    return json.dumps({"metrics": metrics}, indent=indent)

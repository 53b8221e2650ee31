"""Cross-run observability: metrics, resources, perf history, reports.

:mod:`repro.telemetry` is the *emission* layer — cheap structured events
from inside a run.  This package is the *aggregation* layer above it:

* :mod:`~repro.observe.registry` folds an event stream, in one pass,
  into the frozen :class:`TelemetryFold` every view below renders;
* :mod:`~repro.observe.export` renders a fold as Prometheus text
  exposition or JSON;
* :mod:`~repro.observe.resources` samples ``/proc`` (RSS, CPU, fds) into
  the telemetry stream — interval thread in the parent, job-boundary
  snapshots in pool workers;
* :mod:`~repro.observe.workers` renders a fold's pool wall-clock by
  worker pid (busy fractions, queue-wait distribution, imbalance index);
* :mod:`~repro.observe.perf` keeps a store-backed wall-clock history and
  Welch-tests for sustained drift (``perf record|history|regress``);
* :mod:`~repro.observe.report` renders a single-file HTML dashboard.

The package-wide contract, inherited from telemetry and enforced by
tests: observability is RNG- and result-inert.  Store fingerprints are
bit-identical with observe on or off, on every backend.
"""

from repro.observe.export import escape_label_value, to_json, to_prometheus
from repro.observe.perf import (
    DEFAULT_ALPHA,
    DEFAULT_BASELINE,
    DEFAULT_FACTOR,
    DEFAULT_WINDOW,
    backend_layout_name,
    detect_drift,
    host_fingerprint,
    record_scenario_perf,
    regress_groups,
)
from repro.observe.registry import TelemetryFold, fold_events
from repro.observe.report import render_html_report, svg_sparkline
from repro.observe.resources import (
    DEFAULT_INTERVAL,
    NULL_SAMPLER,
    ResourceSampler,
    make_sampler,
    sample_process,
)
from repro.observe.workers import (
    render_worker_table,
    unit_imbalance,
    worker_utilization,
)

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_BASELINE",
    "DEFAULT_FACTOR",
    "DEFAULT_INTERVAL",
    "DEFAULT_WINDOW",
    "NULL_SAMPLER",
    "ResourceSampler",
    "TelemetryFold",
    "backend_layout_name",
    "detect_drift",
    "escape_label_value",
    "fold_events",
    "host_fingerprint",
    "make_sampler",
    "record_scenario_perf",
    "regress_groups",
    "render_html_report",
    "render_worker_table",
    "sample_process",
    "svg_sparkline",
    "to_json",
    "to_prometheus",
    "unit_imbalance",
    "worker_utilization",
]

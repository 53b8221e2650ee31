"""Spans around the package's public calls, for the traced run only.

The benchmark never instruments inside ``src/``: :func:`install` replaces
public functions and methods *in this process* with wrappers that record a
span per call, and the untraced repetitions never call it.

Two kinds of span are kept in memory:

* coarse spans (plan builds, backend runs, engine launches, store calls),
  one record per call with a parent link: ``[id, parent, name, start, end]``;
* hot spans (per-slot coin, protocol-kernel and adversary-kernel calls),
  folded into ``(parent id, name) -> [calls, seconds]`` buckets so memory
  stays bounded on long horizons.  A hot call made while another hot call
  is open is not timed separately: its time belongs to the outer call.

A span's self time is its duration minus the time its child spans and hot
buckets cover; calls in one thread are sequential, so that is their sum.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list[Any]] = []
        self.hot: dict[tuple[int | None, str], list[float]] = {}
        self.counts: Counter[str] = Counter()
        #: Results of every vector launch, drained by the caller between
        #: tables (for the live-cell share).
        self.vector_results: list[Any] = []
        self._stack: list[int] = []
        self._in_hot = False
        self._patches: list[tuple[Any, Any, Any]] = []
        self._wrapped: dict[int, Callable[..., Any]] = {}

    # -- Wrappers ------------------------------------------------------------

    def span(
        self, name: str, fn: Callable[..., Any], after: Callable[[Any, tuple, dict], None] | None = None
    ) -> Callable[..., Any]:
        """Wrap ``fn`` so every call records one coarse span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            record = [len(self.spans), self._stack[-1] if self._stack else None, name, self.clock(), None]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = self.clock()
                self._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def hot_span(
        self, name: str, fn: Callable[..., Any], after: Callable[[Any, tuple, dict], None] | None = None
    ) -> Callable[..., Any]:
        """Wrap a per-slot ``fn``; calls fold into a bucket under the open span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if self._in_hot:
                return fn(*args, **kwargs)
            self._in_hot = True
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._in_hot = False
                key = (self._stack[-1] if self._stack else None, name)
                bucket = self.hot.setdefault(key, [0, 0.0])
                bucket[0] += 1
                bucket[1] += elapsed
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap ``fn`` to count its calls, untimed."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- Installation --------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` (a module, class or dict entry) with ``make(original)``.

        Class-level ``classmethod``/``staticmethod`` descriptors are
        unwrapped and rewrapped; one original function reached through two
        owners (a module global and a registry dict) gets one wrapper.
        """
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        descriptor = None
        function = original
        if isinstance(original, (classmethod, staticmethod)):
            descriptor = type(original)
            function = original.__func__
        wrapped = self._wrapped.get(id(function))
        if wrapped is None:
            wrapped = make(function)
            self._wrapped[id(function)] = wrapped
        replacement = descriptor(wrapped) if descriptor is not None else wrapped
        self._patches.append((owner, attr, original))
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def patch_family(
        self, base: type, names: Iterable[str], make: Callable[[Callable[..., Any]], Callable[..., Any]]
    ) -> None:
        """Patch every method in ``names`` that ``base`` or a subclass defines."""
        names = tuple(names)
        for cls in _with_subclasses(base):
            for attr in names:
                if attr in cls.__dict__:
                    self.patch(cls, attr, make)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        self._wrapped.clear()

    def dump(self) -> dict[str, Any]:
        return {
            "spans": self.spans,
            "hot": [[parent, name, calls, seconds] for (parent, name), (calls, seconds) in self.hot.items()],
            "counts": dict(self.counts),
        }


def _with_subclasses(base: type) -> list[type]:
    found = [base]
    for cls in found:
        found.extend(sub for sub in cls.__subclasses__() if sub not in found)
    return found


# -- Span arithmetic -----------------------------------------------------------


def self_times(spans: list[list[Any]], hot: dict[tuple[int | None, str], list[float]]) -> dict[int, float]:
    """Self time of every coarse span: its duration minus its children's."""
    covered: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    for (parent, _), (_, seconds) in hot.items():
        if parent is not None:
            covered[parent] += seconds
    return {span_id: (end - start) - covered[span_id] for span_id, _, _, start, end in spans}


def outermost(spans: list[list[Any]], name: str) -> list[list[Any]]:
    """The ``name`` spans not nested in another ``name`` span."""
    by_id = {record[0]: record for record in spans}
    found = []
    for record in spans:
        if record[2] != name:
            continue
        parent = record[1]
        while parent is not None and by_id[parent][2] != name:
            parent = by_id[parent][1]
        if parent is None:
            found.append(record)
    return found


def outermost_total(spans: list[list[Any]], name: str) -> float:
    return sum(end - start for _, _, _, start, end in outermost(spans, name))


def self_total(spans: list[list[Any]], selfs: dict[int, float], name: str) -> float:
    return sum(selfs[record[0]] for record in spans if record[2] == name)


def hot_total(hot: dict[tuple[int | None, str], list[float]], name: str) -> float:
    return sum(seconds for (_, bucket_name), (_, seconds) in hot.items() if bucket_name == name)


# -- The program's public calls ------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the workloads reach."""
    import repro.campaigns.runner as campaigns
    import repro.experiments.experiments as experiments
    import repro.observe.export as observe_export
    import repro.observe.registry as observe_registry
    import repro.scenarios.runner as scenarios
    import repro.telemetry.summarize as summarize
    from repro.exec.cache import ResultCacheBackend
    from repro.exec.vector_backend import VectorBackend
    from repro.experiments.plan import PlanResults, RunSpec
    from repro.sim.engine import Simulator
    from repro.sim.vector.adversaries import VectorArrivals, VectorJammer
    from repro.sim.vector.engine import VectorSimulator
    from repro.sim.vector.protocols import VectorProtocolKernel
    from repro.sim.vector.rng import CoinBlocks
    from repro.store.store import ResultsStore

    span, hot, counted = tracer.span, tracer.hot_span, tracer.counted
    counts = tracer.counts

    def count_specs(plan: Any, args: tuple, kwargs: dict) -> None:
        counts["experiments.specs"] += len(plan)

    # experiments: plan builders are module globals (what run_<id> calls)
    # and registry entries (what callers use); run_<id> via ALL_EXPERIMENTS.
    def plan_span(fn: Callable[..., Any]) -> Callable[..., Any]:
        return span("experiments.plan", fn, count_specs)

    for exp_id, builder in list(experiments.EXPERIMENT_PLANS.items()):
        tracer.patch(experiments, builder.__name__, plan_span)
        tracer.patch(experiments.EXPERIMENT_PLANS, exp_id, plan_span)
    tracer.patch(scenarios, "build_plan", plan_span)
    for exp_id in list(experiments.ALL_EXPERIMENTS):
        tracer.patch(experiments.ALL_EXPERIMENTS, exp_id, lambda fn: span("experiments.report", fn))

    # exec
    tracer.patch(VectorBackend, "run", lambda fn: span("exec.partition", fn))
    tracer.patch(RunSpec, "vector_support", lambda fn: counted("exec.support_probes", fn))
    tracer.patch(ResultCacheBackend, "run", lambda fn: span("cache.run", fn))

    # sim.vector
    def keep_results(results: Any, args: tuple, kwargs: dict) -> None:
        counts["vector.launches"] += 1
        counts["vector.replications"] += len(results)
        tracer.vector_results.extend(results)

    def count_cells(coins: Any, args: tuple, kwargs: dict) -> None:
        counts["vector.coin_cells"] += int(coins.size)

    tracer.patch(VectorSimulator, "from_specs", lambda fn: span("vector.build", fn))
    tracer.patch(VectorSimulator, "from_spec_groups", lambda fn: span("vector.build", fn))
    tracer.patch(VectorSimulator, "run", lambda fn: span("vector.run", fn, keep_results))
    tracer.patch(CoinBlocks, "coins", lambda fn: hot("vector.coins", fn, count_cells))
    tracer.patch_family(
        VectorProtocolKernel,
        ("init_packets", "decide", "on_feedback", "on_unsuccessful_send"),
        lambda fn: hot("vector.protocol", fn),
    )
    tracer.patch_family(VectorArrivals, ("chunk", "arrivals_now"), lambda fn: hot("vector.adversary", fn))
    tracer.patch_family(
        VectorJammer, ("begin_chunk", "jam", "reactive_jam"), lambda fn: hot("vector.adversary", fn)
    )

    # sim
    def count_run(result: Any, args: tuple, kwargs: dict) -> None:
        counts["sim.runs"] += 1
        counts["sim.slots"] += result.num_slots

    tracer.patch(Simulator, "run", lambda fn: span("sim.run", fn, count_run))

    # metrics
    tracer.patch(PlanResults, "group_rows", lambda fn: span("metrics.aggregate", fn))

    # store
    def count_unit(result: Any, args: tuple, kwargs: dict) -> None:
        executed = kwargs.get("unit_index") is not None
        counts["campaigns.units_run" if executed else "campaigns.units_skipped"] += 1

    tracer.patch(ResultsStore, "put_run", lambda fn: span("store.put", fn))
    for attr in ("get_run", "get_result", "has_run"):
        tracer.patch(ResultsStore, attr, lambda fn: span("store.get", fn))
    tracer.patch(ResultsStore, "fingerprint", lambda fn: span("store.fingerprint", fn))
    tracer.patch(ResultsStore, "record_campaign_unit", lambda fn: span("store.unit", fn, count_unit))

    # campaigns
    tracer.patch(campaigns, "start_campaign", lambda fn: span("campaigns.start", fn))
    tracer.patch(campaigns, "resume_campaign", lambda fn: span("campaigns.resume", fn))
    tracer.patch(campaigns, "campaign_report", lambda fn: span("campaigns.report", fn))

    # telemetry / observe
    tracer.patch(summarize, "summarize_file", lambda fn: span("observe.fold", fn))
    tracer.patch(observe_registry, "fold_events", lambda fn: span("observe.fold", fn))
    tracer.patch(observe_export, "to_prometheus", lambda fn: span("observe.fold", fn))


"""The lockstep batch simulation engine.

:class:`VectorSimulator` runs *every replication of one configuration at
once*: packet protocol state, send decisions, channel resolution, ternary
feedback, and metric accumulation are all held as ``(replications ×
columns)`` numpy arrays, and one pass over the slot loop advances the whole
batch.  The per-slot cost is a fixed number of array operations, so the
interpreter overhead that dominates the scalar engine is paid once per slot
instead of once per packet per replication.  Columns hold only *live*
packets (see :class:`_LiveCells`), so that cost follows the backlog rather
than the total number of arrivals.

Two slot paths share the loop:

* **send-only protocols** compare one coin matrix against the kernel's
  probability matrix — nothing else ever feeds back into protocol state
  except an unsuccessful send;
* **sensing protocols** (LOW-SENSING BACKOFF, Sawtooth, full-sensing MW)
  additionally produce listener masks, and their state updates consume the
  engine's per-replication ternary feedback arrays — the ``(R,)`` idle /
  success / noise row masks derived from the sender counts and the jamming
  decisions, i.e. exactly what a scalar packet's ``FeedbackReport`` would
  say about its replication's channel.  Per-packet listen counters feed the
  energy metrics.

The engine also supports **mega-batches**: several configurations that
share one protocol/arrival/jammer kernel family (parameters promoted to
per-row arrays) stacked into a single ragged lockstep batch via
:meth:`VectorSimulator.from_spec_groups`.  Each configuration keeps its own
*segment* (its arrival schedule), and every replication draws one coin per
live packet per slot, in ascending packet-id order, from its own stream
(:mod:`repro.sim.vector.rng`) — so a replication's result is a function of
(spec, seed) alone, bit-identical alone, in any batch, and in any
mega-batch (enforced by tests).  Only the per-slot Python dispatch is
shared, which is where the speedup lives.  Traces and potential samples
are materialised per row, so groups that collect them stack like any
other; only a backlog-coupled adversary, which the loop drives from a
single segment, keeps a batch to itself.

The engine reproduces the scalar engine's slot semantics exactly (same
decision order, same channel rules, same metric definitions, same
stop-when-drained condition) but draws its randomness from per-replication
Philox streams instead of per-packet ``random.Random`` streams.  Vector
results therefore agree with scalar results *statistically* — same Markov
chain, different coins (see ``repro.analysis.equivalence`` for the
checking harness).

Outcome codes used internally: 0 empty, 1 success, 2 collision, 3 jammed.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.telemetry import current as current_telemetry

from repro.adversary.adaptive import BacklogCouplingAdversary
from repro.adversary.arrivals import ArrivalProcess
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import Jammer
from repro.channel.feedback import SlotOutcome
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.core.potential import (
    PotentialCoefficients,
    PotentialSample,
    PotentialTracker,
)
from repro.metrics.collectors import MetricsCollector
from repro.protocols.base import BackoffProtocol
from repro.sim.results import PacketRecord, SimulationResult
from repro.sim.vector.adversaries import (
    CHUNK_SLOTS,
    make_arrivals_kernel,
    make_row_jammer_kernel,
)
from repro.sim.vector.protocols import make_protocol_row_kernel
from repro.sim.vector.rng import CoinBlocks, VectorStreams
from repro.sim.vector.support import (
    adversary_support,
    protocol_support,
    scheduled_identity,
)

#: Outcome-code → SlotOutcome lookup for trace materialisation.
_OUTCOMES = (
    SlotOutcome.EMPTY,
    SlotOutcome.SUCCESS,
    SlotOutcome.COLLISION,
    SlotOutcome.JAMMED,
)


def _sample_dynamics_gauges(
    j: int,
    kernel: Any,
    cells: "_LiveCells",
    dyn_prob_sum: np.ndarray,
    dyn_window_sum: np.ndarray,
    dyn_listens: np.ndarray,
    dyn_has_windows: bool,
) -> None:
    """Sample the live dynamics gauges into global-boundary row ``j``.

    Post-step state only; the cumulative sums reproduce the scalar
    engine's sequential ascending-id float additions bitwise (inactive
    cells add +0.0, a float no-op).  Rows that drained earlier read back
    their frozen end-of-run values — empty active mask, listens no longer
    growing — which is exactly what the scalar accumulator recorded for
    them.
    """
    active = cells.active
    probabilities = kernel.sending_probabilities()
    dyn_prob_sum[j] = np.where(active, probabilities, 0.0).cumsum(axis=1)[:, -1]
    if dyn_has_windows:
        windows = kernel.window_matrix()
        dyn_window_sum[j] = (
            np.where(active, windows, 0.0).cumsum(axis=1)[:, -1]
        )
    if cells.listens is not None:
        dyn_listens[j] = cells.listens_per_row()


class _WindowTermCache:
    """Memoised per-window potential terms, computed with ``math.log``.

    The scalar :class:`PotentialTracker` computes ``1 / math.log(w)`` and
    ``w / math.log(w) ** 2`` per window; ``np.log`` can differ from
    ``math.log`` by an ulp on rare inputs, so bit-for-bit parity requires
    routing every distinct window value through the exact same Python
    float operations.  Each call looks up only its own values: dict hits,
    plus ``math.log`` for the misses.
    """

    def __init__(self) -> None:
        self._terms: dict[float, tuple[float, float]] = {}

    def _lookup(self, values: np.ndarray, which: int) -> np.ndarray:
        terms = self._terms
        found = []
        for value in values.tolist():
            term = terms.get(value)
            if term is None:
                if value <= 1.0:
                    # Same contract as the scalar PotentialSample.h_term.
                    raise ValueError("potential tracking requires windows > 1")
                log = math.log(value)
                term = terms[value] = (1.0 / log, value / log**2)
            found.append(term[which])
        return np.array(found)

    def inverse_log(self, values: np.ndarray) -> np.ndarray:
        """``1 / math.log(v)`` for each value (the H(t) contribution)."""
        return self._lookup(values, 0)

    def l_term(self, values: np.ndarray) -> np.ndarray:
        """``v / math.log(v) ** 2`` for each value (the L(t) term)."""
        return self._lookup(values, 1)


class _SlotRecorder:
    """Growable ``(slots × replications)`` per-slot observation buffers.

    The base buffers feed metric finalisation; the optional trace buffers
    (per-slot winner column and pre-injection contention) and potential
    buffers (H, L, Σ1/w, Φ) are only allocated when the batch collects the
    corresponding vectorized outputs.
    """

    _BASE_FIELDS = (
        ("outcome", np.int8, 0),
        ("arrivals", np.int32, 0),
        ("active_after", np.int32, 0),
        ("num_senders", np.int32, 0),
    )
    _TRACE_FIELDS = (
        ("winner", np.int64, -1),
        ("contention", np.float64, 0.0),
    )
    _POTENTIAL_FIELDS = (
        ("h_term", np.float64, 0.0),
        ("l_term", np.float64, 0.0),
        ("inverse_window_sum", np.float64, 0.0),
        ("potential", np.float64, 0.0),
    )

    def __init__(
        self,
        replications: int,
        initial_slots: int = 1024,
        *,
        trace: bool = False,
        potential: bool = False,
    ) -> None:
        self._replications = replications
        self._capacity = max(1, initial_slots)
        self._fields = list(self._BASE_FIELDS)
        if trace:
            self._fields += list(self._TRACE_FIELDS)
        if potential:
            self._fields += list(self._POTENTIAL_FIELDS)
        for name, dtype, fill in self._fields:
            setattr(self, name, self._alloc(self._capacity, dtype, fill))

    def _alloc(self, capacity: int, dtype, fill) -> np.ndarray:
        buffer = np.full((capacity, self._replications), fill, dtype=dtype)
        return buffer

    def _grow(self, needed: int) -> None:
        new_capacity = max(needed, self._capacity * 2)
        for name, dtype, fill in self._fields:
            old = getattr(self, name)
            grown = self._alloc(new_capacity, dtype, fill)
            grown[: self._capacity] = old
            setattr(self, name, grown)
        self._capacity = new_capacity

    def record(
        self,
        slot: int,
        outcome: np.ndarray,
        arrivals: np.ndarray,
        active_after: np.ndarray,
        num_senders: np.ndarray,
    ) -> None:
        if slot >= self._capacity:
            self._grow(slot + 1)
        self.outcome[slot] = outcome
        self.arrivals[slot] = arrivals
        self.active_after[slot] = active_after
        self.num_senders[slot] = num_senders

    def columns(self, index: int, slots: int) -> tuple[np.ndarray, ...]:
        """Row ``index``'s ``(outcome, jammed, arrivals, active_before,
        active_after, num_senders)`` series over its first ``slots`` slots."""
        outcome = self.outcome[:slots, index]
        active_after = self.active_after[:slots, index]
        return (
            outcome,
            outcome == 3,
            self.arrivals[:slots, index],
            # Only a success (code 1) removes a packet within a slot.
            active_after + (outcome == 1),
            active_after,
            self.num_senders[:slots, index],
        )

    def record_trace(self, slot: int, winner: np.ndarray, contention: np.ndarray) -> None:
        self.winner[slot] = winner
        self.contention[slot] = contention

    def record_potential(
        self,
        slot: int,
        h_term: np.ndarray,
        l_term: np.ndarray,
        inverse_window_sum: np.ndarray,
        potential: np.ndarray,
    ) -> None:
        self.h_term[slot] = h_term
        self.l_term[slot] = l_term
        self.inverse_window_sum[slot] = inverse_window_sum
        self.potential[slot] = potential


class _GroupConfig:
    """One configuration replicated over seeds: a (mega-)batch building block."""

    __slots__ = ("protocol", "arrival_process", "jammer", "seeds", "descriptions")

    def __init__(
        self,
        protocol: BackoffProtocol,
        arrival_process: ArrivalProcess,
        jammer: Jammer,
        seeds: list[int],
        descriptions: list[dict[str, Any]],
    ) -> None:
        self.protocol = protocol
        self.arrival_process = arrival_process
        self.jammer = jammer
        self.seeds = seeds
        self.descriptions = descriptions


class _Segment:
    """One group's rows inside a (mega-)batch and its arrival schedule."""

    __slots__ = ("rows", "streams", "arrivals", "exhausted", "live")

    def __init__(self, rows: slice, streams: Any, arrivals: Any) -> None:
        self.rows = rows
        self.streams = streams
        self.arrivals = arrivals
        self.exhausted = False
        self.live = True


#: Live-set compaction policy.  Results never depend on it (coins follow
#: packet ids, not columns); it only trades gather work against width.
#: Every ``_COMPACT_CHECK_SLOTS`` slots, and whenever arrivals overflow the
#: width, the batch is squeezed if holes exceed this share of the width.
_COMPACT_CHECK_SLOTS = 64
_COMPACT_HOLE_SHARE = 0.5


class _LiveCells:
    """The engine's per-cell arrays: one row per replication, live packets only.

    Row ``r`` holds its packets in ascending id order in columns
    ``[0, used[r])``: arrivals append on the right, departures leave holes
    (``active`` False), and a stable compaction squeezes the holes out.  A
    row's live cells therefore always read in ascending packet-id order,
    which keeps the engine's cumulative sums bitwise equal to the scalar
    ascending-id additions.  A packet's by-id record (departure slot,
    sends, listens) is retired when compaction drops its hole or the run
    ends.  The set starts one column wide, like ``kernel``.
    """

    def __init__(self, replications: int, kernel: Any) -> None:
        shape = (replications, 1)
        self.kernel = kernel
        self.active = np.zeros(shape, dtype=bool)
        self.packet_id = np.full(shape, -1, dtype=np.int64)
        self.departure = np.full(shape, -1, dtype=np.int64)
        self.sends = np.zeros(shape, dtype=np.int64)
        self.listens = np.zeros(shape, dtype=np.int64) if kernel.listens else None
        self.used = np.zeros(replications, dtype=np.int64)
        self.retired: list[tuple[Any, ...]] = []
        self.retired_listens = np.zeros(replications, dtype=np.int64)
        self.compactions = 0
        self.peak_width = 0
        self._buffers(1)

    @property
    def width(self) -> int:
        return self.active.shape[1]

    def _fields(self) -> tuple[str, ...]:
        names = ("active", "packet_id", "departure", "sends")
        return names + ("listens",) if self.listens is not None else names

    def relayout(self, width: int, *, compact: bool) -> None:
        """Resize to ``width`` columns, squeezing out holes when ``compact``."""
        replications, old = self.active.shape
        if compact:
            self._retire(~self.active & (self.packet_id >= 0))
            order = np.argsort(~self.active, axis=1, kind="stable")
            self.used = np.count_nonzero(self.active, axis=1)
            self.compactions += 1
        else:
            order = np.broadcast_to(np.arange(old), (replications, old))
        if width > old:
            # Fresh columns gather column 0; they are reset below.
            order = np.pad(order, ((0, 0), (0, width - old)))
        order = np.ascontiguousarray(order[:, :width])
        for name in self._fields():
            setattr(self, name, np.take_along_axis(getattr(self, name), order, axis=1))
        self.kernel.take_columns(order)
        self._buffers(width)
        fresh = self.columns >= self.used[:, None]
        self.active[fresh] = False
        self.packet_id[fresh] = -1
        self.departure[fresh] = -1
        self.sends[fresh] = 0
        if self.listens is not None:
            self.listens[fresh] = 0

    def _buffers(self, width: int) -> None:
        shape = (len(self.used), width)
        self.columns = np.arange(width)
        self.send_buffer = np.empty(shape, dtype=bool)
        self.listen_buffer = np.empty(shape, dtype=bool)
        self.coin_buffer = np.zeros(shape)
        self.peak_width = max(self.peak_width, width)

    def squeeze(self, peak: int, needed: int = 0) -> None:
        """Make room for ``needed`` columns given ``peak`` live cells per row.

        Compacts to twice the peak when holes dominate the width, and
        otherwise doubles the width (only when ``needed`` exceeds it).
        """
        width = self.width
        if width - peak > _COMPACT_HOLE_SHARE * width:
            self.relayout(max(1, 2 * peak), compact=True)
        elif needed > width:
            self.relayout(max(needed, 2 * width), compact=False)

    def inject(self, arriving: np.ndarray, injected: np.ndarray) -> None:
        """Append ``arriving[r]`` packets with ids from ``injected[r]`` on."""
        end = self.used + arriving
        if int(end.max()) > self.width:
            live = np.count_nonzero(self.active, axis=1)
            self.squeeze(int((live + arriving).max()), int(end.max()))
            end = self.used + arriving
        columns = self.columns
        newly = (columns >= self.used[:, None]) & (columns < end[:, None])
        self.active |= newly
        np.copyto(
            self.packet_id, columns + (injected - self.used)[:, None], where=newly
        )
        self.used = end
        self.kernel.init_packets(newly)

    def _retire(self, mask: np.ndarray) -> None:
        rows, cols = np.nonzero(mask)
        if not rows.size:
            return
        listens = self.listens[rows, cols] if self.listens is not None else None
        self.retired.append(
            (rows, self.packet_id[rows, cols], self.departure[rows, cols],
             self.sends[rows, cols], listens)
        )
        if listens is not None:
            np.add.at(self.retired_listens, rows, listens)

    def listens_per_row(self) -> np.ndarray:
        """Cumulative listens of every packet of each row so far."""
        assert self.listens is not None
        return self.retired_listens + self.listens.sum(axis=1)

    def records(
        self, injected: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """By-id ``(departure, sends, listens)`` arrays; ends the run's layout."""
        self._retire(self.packet_id >= 0)
        shape = (len(injected), max(1, int(injected.max())))
        departure = np.full(shape, -1, dtype=np.int64)
        sends = np.zeros(shape, dtype=np.int64)
        listens = np.zeros(shape, dtype=np.int64) if self.listens is not None else None
        for rows, ids, departed, sent, listened in self.retired:
            departure[rows, ids] = departed
            sends[rows, ids] = sent
            if listens is not None:
                listens[rows, ids] = listened
        return departure, sends, listens


class VectorSimulator:
    """Runs a batch of replications of one configuration in lockstep.

    Parameters
    ----------
    protocol, arrival_process, jammer:
        One supported configuration (see :mod:`repro.sim.vector.support`);
        the instances are read for their parameters only and never mutated.
    seeds:
        One master seed per replication.  Replications are independent; a
        batch's output is a deterministic function of this list.
    max_slots, stop_when_drained:
        Same meaning as on :class:`~repro.sim.config.SimulationConfig`.
    config_descriptions:
        Optional per-replication ``config_description`` dicts to embed in
        the results (defaults to a description assembled from the parts).

    Mega-batches are built through :meth:`from_spec_groups`, which stacks
    several such configurations into one ragged lockstep batch.
    """

    def __init__(
        self,
        protocol: BackoffProtocol,
        arrival_process: ArrivalProcess,
        jammer: Jammer,
        seeds: Sequence[int],
        *,
        max_slots: int = 200_000,
        stop_when_drained: bool = True,
        collect_trace: bool = False,
        collect_potential: bool = False,
        potential_coefficients: PotentialCoefficients | None = None,
        config_descriptions: Sequence[dict[str, Any]] | None = None,
        dynamics_window: int = 0,
    ) -> None:
        if not seeds:
            raise ValueError("at least one replication seed is required")
        if max_slots <= 0:
            raise ValueError("max_slots must be positive")
        if dynamics_window < 0:
            raise ValueError("dynamics_window must be >= 0")
        reason = protocol_support(protocol)
        if reason is None:
            if arrival_process is jammer and isinstance(
                arrival_process, BacklogCouplingAdversary
            ):
                # A coupled adversary occupies both roles: its injection and
                # jamming kernels share the live backlog array.
                reason = adversary_support(arrival_process)
            else:
                reason = adversary_support(CompositeAdversary(arrival_process, jammer))
        if reason is not None:
            raise ValueError(f"configuration cannot vectorize: {reason}")
        seed_list = [int(seed) for seed in seeds]
        if config_descriptions is not None:
            if len(config_descriptions) != len(seed_list):
                raise ValueError("need one config description per seed")
            descriptions = list(config_descriptions)
        else:
            descriptions = [
                self._default_description(
                    protocol,
                    arrival_process,
                    jammer,
                    seed,
                    max_slots,
                    stop_when_drained,
                    collect_trace,
                    collect_potential,
                )
                for seed in seed_list
            ]
        self._groups = [
            _GroupConfig(protocol, arrival_process, jammer, seed_list, descriptions)
        ]
        self._max_slots = max_slots
        self._stop_when_drained = stop_when_drained
        self._collect_trace = collect_trace
        self._collect_potential = collect_potential
        self._potential_coefficients = (
            potential_coefficients
            if potential_coefficients is not None
            else PotentialCoefficients()
        )
        self._dynamics_window = dynamics_window

    # -- Construction ---------------------------------------------------------

    @classmethod
    def from_specs(cls, specs: Sequence[Any]) -> "VectorSimulator":
        """Build a batch from :class:`~repro.experiments.plan.RunSpec` items.

        All specs must share everything but the seed (which is exactly what
        :meth:`~repro.exec.vector_backend.VectorBackend` groups by).
        """
        group, options = cls._group_from_specs(specs)
        simulator = cls.__new__(cls)
        simulator._groups = [group]
        simulator._apply_options(options)
        return simulator

    def _apply_options(
        self,
        options: tuple[int, bool, bool, bool, PotentialCoefficients, int],
    ) -> None:
        (
            self._max_slots,
            self._stop_when_drained,
            self._collect_trace,
            self._collect_potential,
            self._potential_coefficients,
            self._dynamics_window,
        ) = options

    @classmethod
    def from_spec_groups(cls, spec_groups: Sequence[Sequence[Any]]) -> "VectorSimulator":
        """Stack several spec groups into one ragged lockstep mega-batch.

        Each inner sequence must be a valid :meth:`from_specs` group (one
        configuration replicated over seeds); across groups the protocol,
        arrival-process, and jammer classes must match exactly (parameters
        may differ — they are promoted to per-row arrays), scheduled
        components must be identical, and the engine options must agree.
        Results come back in input order and are bit-identical to running
        each group through its own :meth:`from_specs` batch.
        """
        if not spec_groups:
            raise ValueError("at least one spec group is required")
        built = [cls._group_from_specs(specs) for specs in spec_groups]
        groups = [group for group, _ in built]
        options = built[0][1]
        first = groups[0]
        if len(groups) > 1 and isinstance(
            first.arrival_process, BacklogCouplingAdversary
        ):
            raise ValueError(
                "backlog-coupled adversaries read the live backlog each "
                "slot; such groups cannot mega-batch"
            )
        for group, group_options in built[1:]:
            if group_options != options:
                raise ValueError(
                    "mega-batched groups must share max_slots, "
                    "stop_when_drained, and collection options"
                )
            for mine, theirs, label in (
                (first.protocol, group.protocol, "protocol"),
                (first.arrival_process, group.arrival_process, "arrival process"),
                (first.jammer, group.jammer, "jammer"),
            ):
                if type(mine) is not type(theirs):
                    raise ValueError(
                        f"mega-batched groups must share one {label} class; "
                        f"got {type(mine).__name__} and {type(theirs).__name__}"
                    )
                if scheduled_identity(mine) != scheduled_identity(theirs):
                    raise ValueError(
                        f"mega-batched groups with a scheduled {label} must "
                        "share the schedule exactly"
                    )
        simulator = cls.__new__(cls)
        simulator._groups = groups
        simulator._apply_options(options)
        return simulator

    @classmethod
    def _group_from_specs(
        cls, specs: Sequence[Any]
    ) -> tuple[
        _GroupConfig, tuple[int, bool, bool, bool, PotentialCoefficients, int]
    ]:
        if not specs:
            raise ValueError("at least one spec is required")
        configs = [spec.build_config() for spec in specs]
        first = configs[0]
        adversary = first.adversary
        if isinstance(adversary, BacklogCouplingAdversary):
            # Coupled adversary: one instance fills both component roles.
            arrival_process: Any = adversary
            jammer: Any = adversary
        elif isinstance(adversary, CompositeAdversary):
            arrival_process = adversary.arrival_process
            jammer = adversary.jammer
        else:
            raise ValueError(
                "vector batches require a CompositeAdversary or a "
                "BacklogCouplingAdversary"
            )
        for config in configs[1:]:
            if (
                config.protocol != first.protocol
                or config.adversary.describe() != first.adversary.describe()
                or config.max_slots != first.max_slots
                or config.stop_when_drained != first.stop_when_drained
                or config.collect_trace != first.collect_trace
                or config.collect_potential != first.collect_potential
                or config.potential_coefficients != first.potential_coefficients
                or config.dynamics_window != first.dynamics_window
            ):
                raise ValueError(
                    "a vector batch must replicate one configuration: all "
                    "specs must share the protocol, adversary, and engine "
                    "options, differing only in seed"
                )
        reason = protocol_support(first.protocol)
        if reason is None:
            reason = adversary_support(adversary)
        if reason is not None:
            raise ValueError(f"configuration cannot vectorize: {reason}")
        group = _GroupConfig(
            first.protocol,
            arrival_process,
            jammer,
            [config.seed for config in configs],
            [config.describe() for config in configs],
        )
        options = (
            first.max_slots,
            first.stop_when_drained,
            first.collect_trace,
            first.collect_potential,
            first.potential_coefficients,
            first.dynamics_window,
        )
        return group, options

    @staticmethod
    def _default_description(
        protocol: BackoffProtocol,
        arrival_process: ArrivalProcess,
        jammer: Jammer,
        seed: int,
        max_slots: int,
        stop_when_drained: bool,
        collect_trace: bool = False,
        collect_potential: bool = False,
    ) -> dict[str, Any]:
        if arrival_process is jammer:
            adversary: Any = arrival_process
        else:
            adversary = CompositeAdversary(arrival_process, jammer)
        return {
            "protocol": protocol.describe(),
            "adversary": adversary.describe(),
            "seed": seed,
            "max_slots": max_slots,
            "stop_when_drained": stop_when_drained,
            "collect_trace": collect_trace,
            "collect_potential": collect_potential,
        }

    # -- Introspection --------------------------------------------------------

    @property
    def num_groups(self) -> int:
        """How many configurations this batch stacks (1 unless mega-batched)."""
        return len(self._groups)

    @property
    def _seeds(self) -> list[int]:
        return [seed for group in self._groups for seed in group.seeds]

    # -- Execution -----------------------------------------------------------

    def run(self) -> list[SimulationResult]:
        """Simulate every replication and return results in input order.

        The lockstep loop (:meth:`_simulate`) and result materialisation
        (:meth:`_finalize`) are timed as separate telemetry phases when a
        session is active, and the hot-loop counters (kernel invocations,
        slots simulated, feedback iterations, trace/potential
        materialisations, coin draws, compactions, peak live width) are
        all derived from post-loop state and emitted inside the finalize
        phase — nothing is sampled inside the per-slot path.
        """
        tele = current_telemetry()
        if not tele.enabled:
            finalize_args, _ = self._simulate()
            return self._finalize(*finalize_args)
        replications = len(self._seeds)
        with tele.span(
            "simulate",
            kind="phase",
            backend="vector",
            replications=replications,
            groups=self.num_groups,
        ):
            finalize_args, stats = self._simulate()
        with tele.span(
            "finalize", kind="phase", backend="vector", replications=replications
        ):
            results = self._finalize(*finalize_args)
            tele.counter("replications", replications, backend="vector")
            for name, value in stats.items():
                if value:
                    tele.counter(name, value, backend="vector")
        return results

    def _simulate(self):
        """Run the lockstep loop; return (finalize args, post-loop stats)."""
        groups = self._groups
        max_slots = self._max_slots
        stop_when_drained = self._stop_when_drained
        seeds = self._seeds
        replications = len(seeds)
        streams = VectorStreams(seeds)

        segments: list[_Segment] = []
        start = 0
        for group in groups:
            stop = start + len(group.seeds)
            arrivals = make_arrivals_kernel(group.arrival_process, len(group.seeds))
            segments.append(
                _Segment(slice(start, stop), streams.slice(start, stop), arrivals)
            )
            start = stop
        multi = len(segments) > 1

        # The live set starts one column wide and grows on demand.
        kernel = make_protocol_row_kernel(
            [(group.protocol, len(group.seeds)) for group in groups], 1
        )
        jammer = make_row_jammer_kernel(
            [(group.jammer, len(group.seeds)) for group in groups]
        )
        cells = _LiveCells(replications, kernel)
        coin_blocks = CoinBlocks(streams)
        sensing = kernel.sensing
        reactive = jammer.reactive
        needs_contention = jammer.needs_contention
        collect_trace = self._collect_trace
        collect_potential = self._collect_potential
        # The lockstep feedback loop: pre-injection contention is computed
        # when an adaptive jammer (or the trace) consumes it, mirroring the
        # scalar engine's _track_contention gating.
        want_contention = needs_contention or collect_trace
        if any(seg.arrivals.coupled for seg in segments):
            if multi:
                raise ValueError(
                    "backlog-coupled adversaries cannot share a mega-batch"
                )
            coupled_arrivals = segments[0].arrivals
        else:
            coupled_arrivals = None

        injected = np.zeros(replications, dtype=np.int64)
        backlog = np.zeros(replications, dtype=np.int64)
        running = np.ones(replications, dtype=bool)
        num_slots = np.full(replications, max_slots, dtype=np.int64)
        recorder = _SlotRecorder(
            replications, trace=collect_trace, potential=collect_potential
        )

        # Vectorized trace output: per-slot sender/listener (row, packet id)
        # pairs (materialised into SlotRecords at finalisation).
        trace_senders: list[tuple[np.ndarray, np.ndarray]] = []
        trace_listeners: list[tuple[np.ndarray, np.ndarray]] = []
        # Vectorized potential accumulator state.
        has_windows = False
        if collect_potential:
            term_cache = _WindowTermCache()
            coeffs = self._potential_coefficients
            zero_row = np.zeros(replications)
            has_windows = kernel.window_matrix() is not None

        # Windowed dynamics gauge buffers: one row per global window
        # boundary, sampled post-step at boundary slots only — the per-slot
        # kernel path is untouched.  Counts are recovered from the recorder
        # at finalisation; only live gauges (probability sum, window sum,
        # cumulative listens) need boundary snapshots.  A drained row has
        # no live cells and no injections, so a later global boundary reads
        # exactly the values the row had when it finished — no per-row
        # boundary bookkeeping is needed.
        dynamics_window = self._dynamics_window
        dyn_prob_sum = dyn_window_sum = dyn_listens = None
        dyn_has_windows = False
        if dynamics_window:
            dyn_count = -(-max_slots // dynamics_window)
            dyn_prob_sum = np.zeros((dyn_count, replications))
            dyn_window_sum = np.zeros((dyn_count, replications))
            dyn_listens = np.zeros((dyn_count, replications), dtype=np.int64)
            dyn_has_windows = kernel.window_matrix() is not None

        # Per-replication arrival-exhaustion mask; monotone per segment, so
        # each segment's (pure) exhausted() is queried only until it flips.
        exhausted_rows = np.zeros(replications, dtype=bool)
        any_exhausted = False
        live = replications
        if stop_when_drained:
            for seg in segments:
                if seg.arrivals.exhausted(0):
                    # Nothing will ever arrive in this segment: all of its
                    # replications drain at slot 0.
                    seg.exhausted = True
                    seg.live = False
                    exhausted_rows[seg.rows] = True
                    num_slots[seg.rows] = 0
                    running[seg.rows] = False
                    any_exhausted = True
            if any_exhausted:
                live = int(np.count_nonzero(running))

        chunk_start = 0
        chunk_end = 0
        arrivals_chunk: np.ndarray | None = None
        slot_has_arrivals: list[bool] = []
        no_arrivals = np.zeros(replications, dtype=np.int64)
        never_jams = jammer.never_jams
        check_every = _COMPACT_CHECK_SLOTS
        next_check = check_every

        slot = 0
        while slot < max_slots and live:
            if slot >= chunk_end:
                chunk_start = slot
                chunk_end = min(slot + CHUNK_SLOTS, max_slots)
                count = chunk_end - chunk_start
                if coupled_arrivals is None:
                    if multi:
                        arrivals_chunk = np.zeros((replications, count), dtype=np.int64)
                        for seg in segments:
                            if seg.live:
                                arrivals_chunk[seg.rows] = seg.arrivals.chunk(
                                    chunk_start, count, seg.streams
                                )
                    else:
                        arrivals_chunk = segments[0].arrivals.chunk(
                            chunk_start, count, segments[0].streams
                        )
                    slot_has_arrivals = arrivals_chunk.any(axis=0).tolist()
                jammer.begin_chunk(chunk_start, count, streams, running)

            backlog_pre = backlog
            injected_pre = injected
            if want_contention:
                # Pre-injection contention with the *current* protocol state
                # — exactly the scalar SystemView's C(t).  The cumulative sum
                # reproduces the scalar's sequential ascending-id additions
                # bitwise (inactive cells add +0.0, a float no-op).
                probabilities = kernel.sending_probabilities()
                contention_pre = (
                    np.where(cells.active, probabilities, 0.0).cumsum(axis=1)[:, -1]
                )
                if needs_contention:
                    jammer.set_contention(contention_pre)
            if coupled_arrivals is not None:
                arriving = coupled_arrivals.arrivals_now(slot, backlog_pre, running)
                inject = bool(arriving.any())
            elif slot_has_arrivals[slot - chunk_start]:
                assert arrivals_chunk is not None
                arriving = arrivals_chunk[:, slot - chunk_start] * running
                inject = True
            else:
                arriving = no_arrivals
                inject = False
            if inject:
                cells.inject(arriving, injected)
                injected = injected + arriving
                backlog = backlog + arriving

            jammed = jammer.jam(slot, backlog_pre, running)

            # One coin per live packet, in ascending packet-id order.
            active = cells.active
            coins = cells.coin_buffer
            np.place(coins, active, coin_blocks.coins(backlog, cells.width))
            send = cells.send_buffer
            if sensing:
                listen = cells.listen_buffer
                kernel.decide(coins, send, listen)
                send &= active
                listen &= active
            else:
                np.less(coins, kernel.probabilities, out=send)
                send &= active
            num_senders = np.add.reduce(send, axis=1)
            if reactive:
                # Step 3 of the scalar slot order: the reactive jammer sees
                # this slot's senders before the channel resolves.
                jammed = jammer.reactive_jam(
                    slot, send, num_senders, backlog_pre, running,
                    cells.packet_id, injected_pre, jammed,
                )
            if collect_trace:
                # Captured before winner removal, so the winner is included
                # among the senders — as in the scalar SlotRecord.
                trace_senders.append((np.nonzero(send)[0], cells.packet_id[send]))
                if sensing:
                    trace_listeners.append(
                        (np.nonzero(listen)[0], cells.packet_id[listen])
                    )
            # Outcome codes: stopped rows hold no packets, so a lone sender
            # wins unless its slot is jammed.
            outcome = np.minimum(num_senders, 2)
            if not never_jams:
                outcome[jammed] = 3
            winners = outcome == 1
            cells.sends += send
            if cells.listens is not None:
                cells.listens += listen

            winner_rows = np.nonzero(winners)[0]
            if winner_rows.size:
                winner_cols = np.argmax(send[winner_rows], axis=1)
                active[winner_rows, winner_cols] = False
                cells.departure[winner_rows, winner_cols] = slot
                # The remaining senders are the losers of the slot.
                send[winner_rows, winner_cols] = False
            if collect_trace:
                winner_id = np.full(replications, -1, dtype=np.int64)
                if winner_rows.size:
                    winner_id[winner_rows] = cells.packet_id[winner_rows, winner_cols]
            if sensing:
                # Per-replication ternary feedback: what every accessor of
                # that replication's channel heard this slot.  Winners are
                # already removed (they depart without a state update).
                kernel.on_feedback(outcome == 0, outcome >= 2, send, listen, active)
            elif int(num_senders.sum()) > winner_rows.size:
                kernel.on_unsuccessful_send(send)
            backlog = backlog - winners
            recorder.record(slot, outcome, arriving, backlog, num_senders)
            if collect_trace:
                recorder.record_trace(slot, winner_id, contention_pre)
            if collect_potential:
                # Scalar step 5: Φ is sampled after feedback updates and the
                # winner's departure, from post-slot windows and backlog.
                if not has_windows:
                    recorder.record_potential(slot, zero_row, zero_row, zero_row, zero_row)
                else:
                    windows = kernel.window_matrix()
                    inverse_log = np.zeros_like(windows)
                    values = windows[active]
                    if values.size:
                        inverse_log[active] = term_cache.inverse_log(values)
                    h_row = inverse_log.cumsum(axis=1)[:, -1]
                    inverse_sum = (
                        np.where(active, 1.0 / windows, 0.0).cumsum(axis=1)[:, -1]
                    )
                    occupied = backlog > 0
                    l_row = np.zeros(replications)
                    if occupied.any():
                        peak = np.where(active, windows, -np.inf).max(axis=1)
                        l_row[occupied] = term_cache.l_term(peak[occupied])
                    phi = np.where(
                        occupied,
                        coeffs.alpha1 * backlog
                        + coeffs.alpha2 * h_row
                        + coeffs.alpha3 * l_row,
                        0.0,
                    )
                    recorder.record_potential(slot, h_row, l_row, inverse_sum, phi)

            if dynamics_window and (slot + 1) % dynamics_window == 0:
                # Post-step, like the scalar accumulator: feedback applied,
                # winners departed.  The cumulative sums reproduce the scalar
                # engine's sequential ascending-id float additions bitwise.
                _sample_dynamics_gauges(
                    slot // dynamics_window, kernel, cells,
                    dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows,
                )

            slot += 1
            if slot >= next_check:
                next_check = slot + check_every
                cells.squeeze(int(backlog.max()))
            if stop_when_drained:
                # A row finishes once exhausted with an empty backlog: only
                # an exhaustion change or a departure can newly finish one.
                changed = bool(winner_rows.size)
                for seg in segments:
                    if seg.live and not seg.exhausted:
                        per_row = seg.arrivals.exhausted_rows(slot)
                        if per_row is None:
                            if seg.arrivals.exhausted(slot):
                                seg.exhausted = True
                                exhausted_rows[seg.rows] = True
                                any_exhausted = changed = True
                        elif per_row.any():
                            exhausted_rows[seg.rows] = per_row
                            any_exhausted = changed = True
                            if per_row.all():
                                seg.exhausted = True
                if any_exhausted and changed:
                    finished = running & exhausted_rows & (backlog == 0)
                    if finished.any():
                        num_slots[finished] = slot
                        running &= ~finished
                        live = int(np.count_nonzero(running))
                        if multi:
                            for seg in segments:
                                if seg.live and not running[seg.rows].any():
                                    seg.live = False

        if dynamics_window and slot % dynamics_window:
            # The loop ended mid-window (max_slots not a multiple of the
            # window, or every row drained): one final partial-window sample.
            _sample_dynamics_gauges(
                slot // dynamics_window, kernel, cells,
                dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows,
            )

        # Post-loop telemetry stats: `slot` is exactly how many lockstep
        # kernel rounds ran, and every round of a reactive/adaptive batch
        # is one feedback-loop iteration (senders/contention handed back
        # to the jammer kernels).
        stats = {
            "kernel_invocations": int(slot),
            "slots_simulated": int(num_slots.sum()),
            "feedback_iterations": int(slot) if (reactive or needs_contention) else 0,
            "mega_batch_segments": len(segments),
            "trace_materialisations": replications if collect_trace else 0,
            "potential_materialisations": replications if collect_potential else 0,
            "dynamics_materialisations": replications if dynamics_window else 0,
            "coin_draws": coin_blocks.draws,
            "compactions": cells.compactions,
            "peak_live_width": cells.peak_width,
        }
        dynamics_buffers = (
            (dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows)
            if dynamics_window
            else None
        )
        finalize_args = (
            recorder, num_slots, backlog, segments, injected, cells.records(injected),
            trace_senders, trace_listeners, has_windows, dynamics_buffers,
        )
        return finalize_args, stats

    # -- Finalisation --------------------------------------------------------

    def _finalize(
        self,
        recorder: _SlotRecorder,
        num_slots: np.ndarray,
        backlog: np.ndarray,
        segments: list[_Segment],
        injected: np.ndarray,
        records: tuple[np.ndarray, np.ndarray, np.ndarray | None],
        trace_senders: list[tuple[np.ndarray, np.ndarray]],
        trace_listeners: list[tuple[np.ndarray, np.ndarray]],
        has_windows: bool,
        dynamics_buffers: tuple | None,
    ) -> list[SimulationResult]:
        descriptions = [
            description for group in self._groups for description in group.descriptions
        ]
        protocol_names = [
            group.protocol.name for group in self._groups for _ in group.seeds
        ]
        seeds = self._seeds
        if dynamics_buffers is not None:
            from repro.dynamics.trajectory import jammer_budget
        departure_slot, sends, listens = records
        results = []
        for group, seg in zip(self._groups, segments):
            group_budget = (
                jammer_budget(group.jammer)
                if dynamics_buffers is not None
                else None
            )
            for index in range(seg.rows.start, seg.rows.stop):
                slots = int(num_slots[index])
                (
                    outcome, jammed, arriving, active_before, active_after, num_senders,
                ) = recorder.columns(index, slots)
                was_active = active_before > 0

                collector = MetricsCollector(collect_series=True)
                collector.num_slots = slots
                collector.num_arrivals = int(arriving.sum())
                collector.num_successes = int((outcome == 1).sum())
                collector.num_collisions = int((outcome == 2).sum())
                collector.num_empty_active = int(((outcome == 0) & was_active).sum())
                collector.num_jammed = int(jammed.sum())
                collector.num_jammed_active = int((jammed & was_active).sum())
                collector.num_active_slots = int(was_active.sum())
                collector.total_sends = int(num_senders.sum())
                collector.total_listens = (
                    int(listens[index].sum()) if listens is not None else 0
                )
                collector.backlog_series = active_after.tolist()
                collector.cumulative_arrivals = np.cumsum(arriving).tolist()
                collector.cumulative_successes = np.cumsum(outcome == 1).tolist()
                collector.cumulative_jammed_active = np.cumsum(
                    jammed & was_active
                ).tolist()
                collector.cumulative_active_slots = np.cumsum(was_active).tolist()

                # Ids are assigned in arrival order.
                arrival_slot = np.repeat(np.arange(slots), arriving).tolist()
                packets = []
                for packet_id in range(int(injected[index])):
                    departed_at = int(departure_slot[index, packet_id])
                    packets.append(
                        PacketRecord(
                            packet_id=packet_id,
                            arrival_slot=arrival_slot[packet_id],
                            departure_slot=None if departed_at < 0 else departed_at,
                            sends=int(sends[index, packet_id]),
                            listens=(
                                int(listens[index, packet_id])
                                if listens is not None
                                else 0
                            ),
                        )
                    )

                trace = None
                if self._collect_trace:
                    trace = self._materialize_trace(
                        recorder,
                        index,
                        slots,
                        trace_senders,
                        trace_listeners,
                    )
                potential = None
                if self._collect_potential:
                    potential = self._materialize_potential(
                        recorder, index, slots, active_after, has_windows
                    )
                dynamics = None
                if dynamics_buffers is not None:
                    dynamics = self._materialize_dynamics(
                        recorder, index, slots, dynamics_buffers, group_budget
                    )

                per_row_exhausted = seg.arrivals.exhausted_rows(slots)
                if per_row_exhausted is None:
                    arrivals_done = seg.arrivals.exhausted(slots)
                else:
                    arrivals_done = bool(
                        per_row_exhausted[index - seg.rows.start]
                    )
                results.append(
                    SimulationResult(
                        config_description=descriptions[index],
                        protocol_name=protocol_names[index],
                        seed=seeds[index],
                        num_slots=slots,
                        drained=bool(backlog[index] == 0) and arrivals_done,
                        collector=collector,
                        packets=packets,
                        trace=trace,
                        potential=potential,
                        dynamics=dynamics,
                    )
                )
        return results

    def _materialize_dynamics(
        self,
        recorder: _SlotRecorder,
        index: int,
        slots: int,
        dynamics_buffers: tuple,
        budget: float | None,
    ):
        """Expand one row's recorder columns + gauge buffers into a trajectory.

        Counts come from cumulative sums of the per-slot recorder columns at
        each window end; the gauges come from the global boundary buffers,
        whose row values are frozen once a replication drains — so every
        snapshot matches what the scalar accumulator would have sampled at
        that row's own boundaries.  The snapshots then flow through the same
        :func:`~repro.dynamics.trajectory.build_trajectory` the scalar
        engine uses, making equal snapshots bit-identical trajectories.
        """
        from repro.dynamics.trajectory import WindowSnapshot, build_trajectory

        window = self._dynamics_window
        dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows = (
            dynamics_buffers
        )
        snapshots = []
        if slots:
            outcome = recorder.outcome[:slots, index]
            cumulative_arrivals = np.cumsum(recorder.arrivals[:slots, index])
            cumulative_successes = np.cumsum(outcome == 1)
            cumulative_collisions = np.cumsum(outcome == 2)
            cumulative_jammed = np.cumsum(outcome == 3)
            cumulative_sends = np.cumsum(recorder.num_senders[:slots, index])
            active_after = recorder.active_after[:slots, index]
            for j in range(-(-slots // window)):
                end = min((j + 1) * window, slots) - 1
                backlog = int(active_after[end])
                snapshots.append(
                    WindowSnapshot(
                        num_slots=end + 1,
                        arrivals=int(cumulative_arrivals[end]),
                        successes=int(cumulative_successes[end]),
                        collisions=int(cumulative_collisions[end]),
                        jammed=int(cumulative_jammed[end]),
                        sends=int(cumulative_sends[end]),
                        listens=int(dyn_listens[j, index]),
                        backlog=backlog,
                        window_sum=(
                            float(dyn_window_sum[j, index])
                            if dyn_has_windows
                            else 0.0
                        ),
                        window_count=backlog if dyn_has_windows else 0,
                        probability_sum=float(dyn_prob_sum[j, index]),
                    )
                )
        return build_trajectory(window, slots, snapshots, budget=budget)

    def _materialize_trace(
        self,
        recorder: _SlotRecorder,
        index: int,
        slots: int,
        trace_senders: list[tuple[np.ndarray, np.ndarray]],
        trace_listeners: list[tuple[np.ndarray, np.ndarray]],
    ) -> ExecutionTrace:
        """Expand per-slot event arrays into the scalar engine's trace form.

        Packet ids are assigned in injection order (as the scalar engine
        does), and sender/listener tuples come out in ascending packet-id
        order, which matches the scalar engine's iteration over its active
        dict.
        """
        outcome, jammed, arrivals, active_before, active_after, _ = recorder.columns(
            index, slots
        )
        winner = recorder.winner[:slots, index]
        contention = recorder.contention[:slots, index]
        potential = (
            recorder.potential[:slots, index] if self._collect_potential else None
        )
        records = []
        next_packet_id = 0
        bounds = (index, index + 1)
        for s in range(slots):
            count = int(arrivals[s])
            arrival_ids = tuple(range(next_packet_id, next_packet_id + count))
            next_packet_id += count
            # Event rows come out of np.nonzero in ascending order, so this
            # row's events are one contiguous slice.
            rows_idx, cols_idx = trace_senders[s]
            lo, hi = np.searchsorted(rows_idx, bounds)
            senders = tuple(cols_idx[lo:hi].tolist())
            if trace_listeners:
                rows_idx, cols_idx = trace_listeners[s]
                lo, hi = np.searchsorted(rows_idx, bounds)
                listeners = tuple(cols_idx[lo:hi].tolist())
            else:
                listeners = ()
            winner_id = int(winner[s])
            records.append(
                SlotRecord(
                    slot=s,
                    outcome=_OUTCOMES[int(outcome[s])],
                    jammed=bool(jammed[s]),
                    arrivals=arrival_ids,
                    senders=senders,
                    listeners=listeners,
                    winner=None if winner_id < 0 else winner_id,
                    active_before=int(active_before[s]),
                    active_after=int(active_after[s]),
                    contention=float(contention[s]),
                    potential=(
                        float(potential[s]) if potential is not None else None
                    ),
                )
            )
        return ExecutionTrace(records=records)

    def _materialize_potential(
        self,
        recorder: _SlotRecorder,
        index: int,
        slots: int,
        active_after: np.ndarray,
        has_windows: bool,
    ) -> PotentialTracker:
        """Expand the vectorized Φ accumulator into a scalar tracker."""
        tracker = PotentialTracker(self._potential_coefficients)
        h_col = recorder.h_term[:slots, index]
        l_col = recorder.l_term[:slots, index]
        inverse_col = recorder.inverse_window_sum[:slots, index]
        phi_col = recorder.potential[:slots, index]
        tracker.samples = [
            PotentialSample(
                slot=s,
                num_packets=int(active_after[s]) if has_windows else 0,
                h_term=float(h_col[s]),
                l_term=float(l_col[s]),
                contention=float(inverse_col[s]),
                potential=float(phi_col[s]),
            )
            for s in range(slots)
        ]
        return tracker

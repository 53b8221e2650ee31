"""Batched protocol kernels.

A kernel holds the protocol state of *every* packet of *every* replication
in ``(replications × packets)`` arrays.  Two slot interfaces exist:

* **send-only kernels** (``sensing = False``) expose ``probabilities`` — the
  per-packet sending probability matrix, maintained incrementally — and
  ``on_unsuccessful_send``, the only feedback a send-only protocol reacts
  to;
* **sensing kernels** (``sensing = True``) expose ``decide``, which turns
  one uniform coin matrix into disjoint send/listen masks, and
  ``on_feedback``, which consumes the engine's per-replication ternary
  feedback arrays (idle / success / noise rows) exactly the way the scalar
  protocol's ``observe`` consumes its :class:`FeedbackReport`.

The scalar sensing protocols draw *two* coins per access decision (listen
first, then send-given-access); the kernels collapse each trichotomy onto a
single uniform — ``u < T_send`` sends, ``T_send ≤ u < T_access`` listens,
the rest sleeps — which is the same joint distribution with half the
randomness.  Vector results are therefore statistically (not bitwise)
equivalent to scalar results, which is already the vector engine's
contract.

Every kernel is built from a list of ``(protocol, replications)`` pairs so
that a mega-batch can stack configurations that share a kernel family but
differ in parameters: parameters are promoted to per-row columns.  All
per-cell state updates are elementwise, so a packet's state is bit-identical
whatever row, batch or column it occupies.  Kernels declare their per-cell
arrays in ``cell_state``; the engine moves packets between columns (growth,
compaction) with one generic gather over them.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.protocols.base import BackoffProtocol
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff

#: One kernel-family slice of a (mega-)batch: a protocol instance and the
#: number of consecutive replication rows it governs.
ProtocolRows = Sequence[tuple[BackoffProtocol, int]]


def _rows(pairs: ProtocolRows) -> int:
    return sum(count for _, count in pairs)


def _param_column(
    pairs: ProtocolRows, getter: Callable[[Any], float], none_as: float | None = None
) -> float | np.ndarray:
    """Promote a per-protocol parameter to a per-row column.

    Returns a plain float when the parameter is uniform across all rows (the
    single-group case, and the common mega case) so the kernels keep their
    scalar fast paths; otherwise a read-only ``(R, 1)`` float column that
    broadcasts against the ``(R, P)`` state matrices.  Elementwise numpy
    arithmetic yields bit-identical cell values either way.
    """
    values = []
    for protocol, _ in pairs:
        value = getter(protocol)
        values.append(none_as if value is None else float(value))
    if all(value == values[0] for value in values):
        return values[0]
    column = np.repeat(
        np.asarray(values, dtype=np.float64), [count for _, count in pairs]
    )[:, None]
    column.setflags(write=False)
    return column


def _cells(param: float | np.ndarray, mask: np.ndarray) -> float | np.ndarray:
    """The parameter's value at each True cell of ``mask`` (scalar or 1-D)."""
    if isinstance(param, np.ndarray):
        return np.broadcast_to(param, mask.shape)[mask]
    return param


class VectorProtocolKernel(abc.ABC):
    """Lockstep protocol state for one batch."""

    #: True for kernels that consume the per-replication feedback arrays
    #: (``on_feedback``) instead of the send-only ``on_unsuccessful_send``.
    sensing = False

    #: True when ``decide`` can mark packets as listeners (the engine then
    #: maintains per-packet listen counters; send-only kernels skip them).
    listens = False

    #: Names of the ``(replications × capacity)`` per-cell state arrays.
    cell_state: tuple[str, ...] = ()

    def __init__(self, replications: int, capacity: int) -> None:
        self.replications = replications
        self.capacity = capacity

    def take_columns(self, order: np.ndarray) -> None:
        """Rebuild every per-cell array as ``state[r, order[r, j]]``.

        ``order`` is ``(replications × new capacity)``; columns gathered
        for cells that hold no packet carry stale state until
        :meth:`init_packets` initialises them.
        """
        for name in self.cell_state:
            setattr(self, name, np.take_along_axis(getattr(self, name), order, axis=1))
        self.capacity = order.shape[1]

    @abc.abstractmethod
    def init_packets(self, newly: np.ndarray) -> None:
        """Initialise state for freshly injected packets (boolean mask)."""

    # -- Introspection (contention and potential accounting) -----------------

    def sending_probabilities(self) -> np.ndarray | float:
        """Per-packet sending probabilities, for contention accounting.

        Matches the scalar states' ``sending_probability()`` exactly;
        defaults to :attr:`probabilities` (correct for send-only kernels),
        sensing kernels override with their send thresholds.
        """
        return self.probabilities

    def window_matrix(self) -> np.ndarray | None:
        """Per-packet backoff windows, ``None`` for windowless protocols.

        Mirrors the scalar states' optional ``window`` attribute, which
        feeds the potential tracker; kernels without a window (fixed
        probability, multiplicative weights) return ``None`` and the
        potential degrades to empty samples, as on the scalar engine.
        """
        return None

    # -- Send-only interface -------------------------------------------------

    @property
    def probabilities(self) -> np.ndarray | float:
        """Per-packet sending probabilities (matrix, or a scalar broadcast)."""
        raise NotImplementedError

    def on_unsuccessful_send(self, losers: np.ndarray) -> None:
        """Feedback update for packets that sent and did not succeed."""

    # -- Sensing interface ---------------------------------------------------

    def decide(
        self, coins: np.ndarray, send_out: np.ndarray, listen_out: np.ndarray
    ) -> None:
        """Fill disjoint raw send/listen masks from one uniform coin matrix.

        The engine masks both outputs by the active-packet matrix afterwards,
        so kernels need not care about inactive cells.
        """
        raise NotImplementedError

    def on_feedback(
        self,
        empty_rows: np.ndarray,
        noise_rows: np.ndarray,
        send: np.ndarray,
        listen: np.ndarray,
        active: np.ndarray,
    ) -> None:
        """Consume one slot's per-replication ternary feedback.

        ``empty_rows`` / ``noise_rows`` are ``(R,)`` masks of replications
        whose channel was idle / noisy this slot (the success rows are the
        remainder); ``send`` is the sender matrix with this slot's winners
        already removed (winners depart without a state update, exactly as
        the scalar engine's ``observe``-then-depart order produces), and
        ``listen``/``active`` are the listener and post-departure active
        matrices.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Send-only kernels
# ---------------------------------------------------------------------------


class FixedProbabilityKernel(VectorProtocolKernel):
    """Constant sending probability; feedback never changes it."""

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs), capacity)
        self._probability = _param_column(pairs, lambda p: p.probability)

    def init_packets(self, newly: np.ndarray) -> None:
        return None

    @property
    def probabilities(self) -> float | np.ndarray:
        return self._probability


class BinaryExponentialKernel(VectorProtocolKernel):
    """Window per packet; doubles (up to a cap) on every unsuccessful send."""

    cell_state = ("_window", "_inverse")

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs), capacity)
        self._initial_window = _param_column(pairs, lambda p: p.initial_window)
        self._backoff_factor = _param_column(pairs, lambda p: p.backoff_factor)
        # ``None`` (uncapped) promotes to +inf: min(w, inf) == w bitwise.
        self._max_window = _param_column(
            pairs, lambda p: p.max_window, none_as=np.inf
        )
        shape = (self.replications, capacity)
        self._window = np.empty(shape)
        self._window[:] = self._initial_window
        self._inverse = np.reciprocal(self._window)

    def init_packets(self, newly: np.ndarray) -> None:
        initial = _cells(self._initial_window, newly)
        self._window[newly] = initial
        self._inverse[newly] = 1.0 / initial

    @property
    def probabilities(self) -> np.ndarray:
        return self._inverse

    def window_matrix(self) -> np.ndarray:
        return self._window

    def on_unsuccessful_send(self, losers: np.ndarray) -> None:
        grown = self._window[losers] * _cells(self._backoff_factor, losers)
        cap = self._max_window
        if isinstance(cap, np.ndarray):
            grown = np.minimum(grown, _cells(cap, losers))
        elif cap != np.inf:
            np.minimum(grown, cap, out=grown)
        self._window[losers] = grown
        self._inverse[losers] = 1.0 / grown


class PolynomialKernel(VectorProtocolKernel):
    """Collision count per packet; window is ``w0 * (collisions+1)**degree``."""

    cell_state = ("_collisions", "_inverse")

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs), capacity)
        self._initial_window = _param_column(pairs, lambda p: p.initial_window)
        self._degree = _param_column(pairs, lambda p: p.degree)
        shape = (self.replications, capacity)
        self._collisions = np.zeros(shape, dtype=np.int64)
        self._inverse = np.empty(shape)
        self._inverse[:] = 1.0 / self._initial_window

    def init_packets(self, newly: np.ndarray) -> None:
        self._collisions[newly] = 0
        self._inverse[newly] = 1.0 / _cells(self._initial_window, newly)

    @property
    def probabilities(self) -> np.ndarray:
        return self._inverse

    def window_matrix(self) -> np.ndarray:
        # The scalar state computes ``initial * (collisions + 1) ** degree``
        # on demand; reproduce the same float operations.
        return self._initial_window * (self._collisions + 1.0) ** self._degree

    def on_unsuccessful_send(self, losers: np.ndarray) -> None:
        bumped = self._collisions[losers] + 1
        self._collisions[losers] = bumped
        self._inverse[losers] = 1.0 / (
            _cells(self._initial_window, losers)
            * (bumped + 1.0) ** _cells(self._degree, losers)
        )


class SawtoothKernel(VectorProtocolKernel):
    """Truncated sawtooth: deterministic per-slot clock, no channel feedback.

    Sawtooth never listens, but unlike the send-only kernels its state
    advances on *every* slot a packet is active (including sleeping slots),
    so it runs on the sensing slot path where the engine hands over the full
    active matrix each slot.
    """

    sensing = True
    listens = False
    cell_state = ("_phase", "_window", "_count", "_inverse")

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs), capacity)
        # The scalar state clamps the starting phase at 2.0; the protocol
        # validates initial_window >= 2, so the clamp is a no-op kept for
        # parity with SawtoothPacketState.
        self._initial_window = _param_column(
            pairs, lambda p: max(2.0, float(p.initial_window))
        )
        shape = (self.replications, capacity)
        self._phase = np.empty(shape)
        self._phase[:] = self._initial_window
        self._window = self._phase.copy()
        self._count = np.zeros(shape, dtype=np.int64)
        self._inverse = np.reciprocal(self._window)

    def sending_probabilities(self) -> np.ndarray:
        return self._inverse

    def window_matrix(self) -> np.ndarray:
        return self._window

    def init_packets(self, newly: np.ndarray) -> None:
        initial = _cells(self._initial_window, newly)
        self._phase[newly] = initial
        self._window[newly] = initial
        self._count[newly] = 0
        self._inverse[newly] = 1.0 / initial

    def decide(
        self, coins: np.ndarray, send_out: np.ndarray, listen_out: np.ndarray
    ) -> None:
        np.less(coins, self._inverse, out=send_out)
        listen_out[:] = False

    def on_feedback(
        self,
        empty_rows: np.ndarray,
        noise_rows: np.ndarray,
        send: np.ndarray,
        listen: np.ndarray,
        active: np.ndarray,
    ) -> None:
        # Every active packet that did not just succeed spends one slot at
        # its current window, regardless of what the channel carried.
        count = self._count
        np.add(count, 1, out=count, where=active)
        due = active & (count >= self._window)
        if not due.any():
            return
        count[due] = 0
        window = self._window[due] / 2.0
        phase = self._phase[due]
        ended = window < 2.0
        if ended.any():
            phase = np.where(ended, phase * 2.0, phase)
            window = np.where(ended, phase, window)
            self._phase[due] = phase
        self._window[due] = window
        self._inverse[due] = 1.0 / window


class FullSensingMWKernel(VectorProtocolKernel):
    """Multiplicative-weights probability per packet; listens every slot."""

    sensing = True
    listens = True
    cell_state = ("_probability",)

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs), capacity)
        self._initial = _param_column(pairs, lambda p: p.initial_probability)
        self._increase = _param_column(pairs, lambda p: p.increase)
        self._decrease = _param_column(pairs, lambda p: p.decrease)
        self._p_min = _param_column(pairs, lambda p: p.p_min)
        self._p_max = _param_column(pairs, lambda p: p.p_max)
        shape = (self.replications, capacity)
        self._probability = np.empty(shape)
        self._probability[:] = self._initial

    def sending_probabilities(self) -> np.ndarray:
        return self._probability

    def init_packets(self, newly: np.ndarray) -> None:
        self._probability[newly] = _cells(self._initial, newly)

    def decide(
        self, coins: np.ndarray, send_out: np.ndarray, listen_out: np.ndarray
    ) -> None:
        np.less(coins, self._probability, out=send_out)
        np.logical_not(send_out, out=listen_out)

    def on_feedback(
        self,
        empty_rows: np.ndarray,
        noise_rows: np.ndarray,
        send: np.ndarray,
        listen: np.ndarray,
        active: np.ndarray,
    ) -> None:
        probability = self._probability
        if empty_rows.any():
            mask = (send | listen) & empty_rows[:, None]
            if mask.any():
                probability[mask] = np.minimum(
                    probability[mask] * _cells(self._increase, mask),
                    _cells(self._p_max, mask),
                )
        if noise_rows.any():
            mask = (send | listen) & noise_rows[:, None]
            if mask.any():
                probability[mask] = np.maximum(
                    probability[mask] / _cells(self._decrease, mask),
                    _cells(self._p_min, mask),
                )
        # SUCCESS heard from another packet: no change.


class LowSensingKernel(VectorProtocolKernel):
    """LOW-SENSING BACKOFF: window per packet, updated from ternary feedback.

    The send/listen thresholds are maintained incrementally (they involve
    logarithms, so only the cells whose window changed are recomputed) —
    the same optimisation :class:`LowSensingPacketState` applies per packet.
    ``decoupled=True`` gives the A1 ablation variant, whose thresholds come
    from independent send/listen coins: ``T_send = s`` and
    ``T_listen = s + (1 − s)·a`` instead of ``a·s`` and ``a``.
    """

    sensing = True
    listens = True
    cell_state = ("_window", "_send_threshold", "_listen_threshold")

    def __init__(
        self, pairs: ProtocolRows, capacity: int, *, decoupled: bool = False
    ) -> None:
        super().__init__(_rows(pairs), capacity)
        self._decoupled = decoupled
        self._c = _param_column(pairs, lambda p: p.params.c)
        self._w_min = _param_column(pairs, lambda p: p.params.w_min)
        shape = (self.replications, capacity)
        self._window = np.empty(shape)
        self._window[:] = self._w_min
        self._send_threshold = np.empty(shape)
        self._listen_threshold = np.empty(shape)
        full = np.ones(shape, dtype=bool)
        self._set_thresholds(full)

    def sending_probabilities(self) -> np.ndarray:
        # access · send-given-access for both variants (the decoupled
        # trichotomy keeps the same marginal send probability).
        return self._send_threshold

    def window_matrix(self) -> np.ndarray:
        return self._window

    def _set_thresholds(self, mask: np.ndarray) -> None:
        """Recompute both thresholds at each True cell of ``mask``."""
        window = self._window[mask]
        c_log_cubed = _cells(self._c, mask) * np.log(window) ** 3
        access = np.minimum(1.0, c_log_cubed / window)
        send_given_access = np.minimum(1.0, 1.0 / c_log_cubed)
        send = access * send_given_access
        if self._decoupled:
            self._send_threshold[mask] = send
            self._listen_threshold[mask] = send + (1.0 - send) * access
        else:
            self._send_threshold[mask] = send
            self._listen_threshold[mask] = access

    def init_packets(self, newly: np.ndarray) -> None:
        self._window[newly] = _cells(self._w_min, newly)
        self._set_thresholds(newly)

    def decide(
        self, coins: np.ndarray, send_out: np.ndarray, listen_out: np.ndarray
    ) -> None:
        np.less(coins, self._send_threshold, out=send_out)
        np.less(coins, self._listen_threshold, out=listen_out)
        # T_send <= T_listen, so the senders are a subset: xor leaves the
        # listen-only cells.
        np.logical_xor(listen_out, send_out, out=listen_out)

    def on_feedback(
        self,
        empty_rows: np.ndarray,
        noise_rows: np.ndarray,
        send: np.ndarray,
        listen: np.ndarray,
        active: np.ndarray,
    ) -> None:
        # Only packets that accessed the channel learn anything; a slot's
        # surviving senders are exactly the accessors in noise rows (a lone
        # unjammed sender wins and departs), and listeners hear whatever
        # the row's feedback was.  SUCCESS rows leave windows unchanged.
        # Listeners in idle rows back on, accessors in noisy rows back off;
        # no row is both, so one pass updates both sets.
        backon = listen & empty_rows[:, None]
        mask = (send | listen) & noise_rows[:, None]
        mask |= backon
        if not mask.any():
            return
        window = self._window[mask]
        factor = 1.0 + 1.0 / (_cells(self._c, mask) * np.log(window))
        self._window[mask] = np.where(
            backon[mask],
            np.maximum(window / factor, _cells(self._w_min, mask)),
            window * factor,
        )
        self._set_thresholds(mask)


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------


def make_protocol_row_kernel(
    pairs: ProtocolRows, capacity: int
) -> VectorProtocolKernel:
    """Build one kernel covering every ``(protocol, rows)`` pair in order.

    All pairs must share one exact protocol type (the mega-batch
    compatibility rule); parameters may differ and are promoted to per-row
    columns.
    """
    if not pairs:
        raise ValueError("at least one protocol row block is required")
    kinds = {type(protocol) for protocol, _ in pairs}
    if len(kinds) > 1:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"cannot stack different protocol types: {names}")
    protocol = pairs[0][0]
    # Exact-type dispatch, mirroring the support registry: a subclass must
    # not silently inherit a kernel that may no longer describe it.
    kind = type(protocol)
    if kind is BinaryExponentialBackoff:
        return BinaryExponentialKernel(pairs, capacity)
    if kind is PolynomialBackoff:
        return PolynomialKernel(pairs, capacity)
    if kind is SawtoothBackoff:
        return SawtoothKernel(pairs, capacity)
    if kind is FullSensingMultiplicativeWeights:
        return FullSensingMWKernel(pairs, capacity)
    if kind is LowSensingBackoff:
        return LowSensingKernel(pairs, capacity)
    if kind is DecoupledLowSensingBackoff:
        return LowSensingKernel(pairs, capacity, decoupled=True)
    if isinstance(protocol, FixedProbabilityProtocol):
        # FixedProbability and its SlottedAloha alias share one kernel (the
        # subclass only pins the default probability).
        return FixedProbabilityKernel(pairs, capacity)
    raise TypeError(f"no vector kernel for protocol {kind.__name__}")


def make_protocol_kernel(
    protocol: BackoffProtocol, replications: int, capacity: int
) -> VectorProtocolKernel:
    """Build the kernel for one protocol batch (see ``support.py``)."""
    return make_protocol_row_kernel([(protocol, replications)], capacity)

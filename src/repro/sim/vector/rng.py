"""Per-replication Philox streams for the vector engine.

Each replication in a batch owns two counter-based Philox streams — one for
its packets' coins, one for its adversary's coins — keyed off the
replication's own master seed via the same SHA-256 derivation the scalar
engine uses (:func:`repro.sim.rng.derive_seed`).

The coin contract: **each slot, a replication draws exactly one uniform per
live packet, in ascending packet-id order, from its own packet stream** — so
its coins, and its result, are a function of (spec, seed) alone, whatever
batch, batch order, mega-batch partners or column layout it runs in.

The scalar engine instead hands every *packet* its own ``random.Random``;
the two layouts produce different (but identically distributed) coin
sequences, which is why vector results match scalar results statistically
rather than bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.rng import derive_seed

#: Upper bound on the coin buffer of a whole batch, in float64 entries
#: (~16 MiB), and the per-replication buffer length below it.
_MAX_BUFFER_ENTRIES = 2_000_000
_ROW_BUFFER = 4096


class VectorStreams:
    """The per-replication random streams of one vector batch."""

    def __init__(self, seeds: Sequence[int]) -> None:
        self.seeds = [int(seed) for seed in seeds]
        self.packet_generators = [
            np.random.Generator(np.random.Philox(key=derive_seed(seed, "vector", "packets")))
            for seed in self.seeds
        ]
        self.adversary_generators = [
            np.random.Generator(
                np.random.Philox(key=derive_seed(seed, "vector", "adversary"))
            )
            for seed in self.seeds
        ]

    def __len__(self) -> int:
        return len(self.seeds)

    def slice(self, start: int, stop: int) -> "StreamView":
        """A view of the replication range ``[start, stop)`` (shared generators)."""
        return StreamView(
            self.seeds[start:stop],
            self.packet_generators[start:stop],
            self.adversary_generators[start:stop],
        )


class StreamView:
    """A contiguous slice of a :class:`VectorStreams` (shared generators)."""

    __slots__ = ("seeds", "packet_generators", "adversary_generators")

    def __init__(
        self,
        seeds: list[int],
        packet_generators: list[np.random.Generator],
        adversary_generators: list[np.random.Generator],
    ) -> None:
        self.seeds = seeds
        self.packet_generators = packet_generators
        self.adversary_generators = adversary_generators

    def __len__(self) -> int:
        return len(self.seeds)


class CoinBlocks:
    """Per-replication cursors over buffered packet-coin streams.

    Row ``r`` of an ``(R, size)`` buffer holds replication ``r``'s next
    unread uniforms; a row down to half its buffer moves its remainder to
    the front and tops up from its generator.  Philox's ``Generator.random`` is
    chunk-invariant, so neither the buffer size nor the refill points
    change which uniform a replication reads next.
    """

    def __init__(self, streams: "VectorStreams | StreamView") -> None:
        self._generators = streams.packet_generators
        self._size = 0
        self._buffer = np.empty((len(self._generators), 0))
        self._flat = self._buffer.reshape(-1)
        self._row_start = np.zeros(len(self._generators), dtype=np.int64)
        self._head = self._row_start.copy()
        #: A lower bound on every row's unread uniforms.
        self._room = 0
        #: Total uniforms handed out so far.
        self.draws = 0

    def coins(self, counts: np.ndarray, most: int) -> np.ndarray:
        """Each row's next ``counts[r]`` uniforms, concatenated in row order.

        ``most`` bounds every ``counts[r]``.
        """
        if most > self._room:
            self._refill(most)
        self._room -= most
        cumulative = counts.cumsum()
        total = int(cumulative[-1])
        end = self._head + counts
        # Row r's k-th coin sits at flat offset head[r] + k.
        index = (end - cumulative).repeat(counts)
        index += np.arange(total)
        self._head = end
        self.draws += total
        return self._flat.take(index)

    def _refill(self, most: int) -> None:
        """Top up every row that is down to half its buffer."""
        replications = len(self._generators)
        position = self._head - self._row_start
        if 4 * most > self._size:
            # Widen, keeping every row's unread tail at the right end.
            default = min(_ROW_BUFFER, _MAX_BUFFER_ENTRIES // replications)
            size = max(4 * most, 2 * self._size, default)
            widened = np.empty((replications, size))
            widened[:, size - self._size :] = self._buffer
            position += size - self._size
            self._buffer, self._size = widened, size
            self._flat = widened.reshape(-1)
            self._row_start = np.arange(replications) * size
        buffer, size = self._buffer, self._size
        for row in np.nonzero(position > size // 2)[0].tolist():
            left = size - int(position[row])
            buffer[row, :left] = buffer[row, size - left :]
            buffer[row, left:] = self._generators[row].random(size - left)
            position[row] = 0
        self._head = self._row_start + position
        self._room = size - int(position.max())

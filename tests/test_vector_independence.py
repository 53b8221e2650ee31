"""A vector replication's result is a function of (spec, seed) alone.

Every replication draws one coin per live packet per slot, in ascending
packet-id order, from its own stream, and its packets keep that order in
whatever columns they occupy.  So neither the batch it runs in (size,
order, mega-batch partners) nor the live-set compaction schedule may change
a single bit of its :class:`SimulationResult` — packets, series, trace,
potential and dynamics included.
"""

from __future__ import annotations

import pickle

import pytest

from repro.adversary.arrivals import AdversarialQueueingArrivals, BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    BernoulliJamming,
    NoJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.core.low_sensing import LowSensingBackoff
from repro.core.parameters import LowSensingParameters
from repro.experiments.plan import RunSpec, factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.sim.vector import VectorSimulator
from repro.sim.vector import engine
from repro.telemetry import MemorySink, TelemetrySession, activated


def specs(protocol, arrivals, jammer, seeds, **options):
    adversary = factory(CompositeAdversary, arrivals, jammer)
    return [
        RunSpec(protocol=protocol, adversary=adversary, seed=seed, **options)
        for seed in seeds
    ]


def queueing(seeds, rate=0.2):
    return specs(
        LowSensingBackoff(),
        factory(AdversarialQueueingArrivals, rate, 64, placement="random", horizon=1500),
        factory(NoJamming),
        seeds,
        max_slots=6000,
        dynamics_window=100,
    )


def sensing_batch(seeds, w_min=32.0, n=40):
    return specs(
        LowSensingBackoff(params=LowSensingParameters(w_min=w_min)),
        factory(BatchArrivals, n),
        factory(BernoulliJamming, 0.1, budget=30),
        seeds,
        max_slots=20_000,
    )


def reactive_targeted(seeds, budget=6, target=3, n=12):
    return specs(
        BinaryExponentialBackoff(),
        factory(BatchArrivals, n),
        factory(ReactiveTargetedJammer, budget, target_index=target),
        seeds,
        max_slots=4000,
    )


def trace_potential(seeds, budget=4, n=10):
    return specs(
        BinaryExponentialBackoff(),
        factory(BatchArrivals, n),
        factory(ReactiveSuccessJammer, budget),
        seeds,
        max_slots=4000,
        collect_trace=True,
        collect_potential=True,
        dynamics_window=50,
    )


#: (case, mega-batch partner group).
CASES = {
    "adversarial-queueing": (queueing, lambda seeds: queueing(seeds, rate=0.1)),
    "sensing-batch": (sensing_batch, lambda seeds: sensing_batch(seeds, w_min=64.0, n=25)),
    "reactive-targeted": (
        reactive_targeted,
        lambda seeds: reactive_targeted(seeds, budget=4, target=0, n=8),
    ),
    "trace-potential": (
        trace_potential,
        lambda seeds: trace_potential(seeds, budget=2, n=6),
    ),
}

SEED = 17
OTHERS = [5, 29, 101]


def payload(result):
    assert result.seed == SEED
    return pickle.dumps(result)


def alone(build):
    return payload(VectorSimulator.from_specs(build([SEED])).run()[0])


def compactions_during(run):
    sink = MemorySink()
    with activated(TelemetrySession([sink])):
        result = run()
    return result, sink.counter_total("compactions")


@pytest.mark.parametrize("case", sorted(CASES))
def test_batch_composition_and_order_do_not_matter(case):
    build, partner = CASES[case]
    reference = alone(build)
    first = VectorSimulator.from_specs(build([SEED] + OTHERS)).run()
    assert payload(first[0]) == reference
    last = VectorSimulator.from_specs(build(OTHERS[::-1] + [SEED])).run()
    assert payload(last[-1]) == reference
    mega = VectorSimulator.from_spec_groups(
        [partner(OTHERS), build([OTHERS[0], SEED])]
    )
    assert mega.num_groups == 2
    assert payload(mega.run()[-1]) == reference


@pytest.mark.parametrize("case", sorted(CASES))
def test_compaction_schedule_does_not_matter(case, monkeypatch):
    build, _ = CASES[case]
    reference = alone(build)
    # Squeeze on every slot, whatever the holes.
    monkeypatch.setattr(engine, "_COMPACT_CHECK_SLOTS", 1)
    monkeypatch.setattr(engine, "_COMPACT_HOLE_SHARE", -1.0)
    forced, count = compactions_during(lambda: alone(build))
    assert forced == reference
    assert count > 0
    # Never squeeze: the width only grows, as wide as all arrivals.
    monkeypatch.setattr(engine, "_COMPACT_HOLE_SHARE", 1.0)
    never, count = compactions_during(
        lambda: VectorSimulator.from_specs(build(OTHERS + [SEED])).run()[-1]
    )
    assert payload(never) == reference
    assert count == 0


def test_coins_and_width_follow_the_backlog():
    sink = MemorySink()
    with activated(TelemetrySession([sink])):
        results = VectorSimulator.from_specs(queueing([SEED] + OTHERS)).run()
    live_packet_slots = sum(
        (result.num_slots if packet.departure_slot is None else packet.departure_slot + 1)
        - packet.arrival_slot
        for result in results
        for packet in result.packets
    )
    assert sink.counter_total("coin_draws") == live_packet_slots
    assert sink.counter_total("compactions") > 0
    peak_backlog = max(max(result.backlog_series()) for result in results)
    assert sink.counter_total("peak_live_width") <= 4 * peak_backlog
    assert peak_backlog * 4 < max(result.num_arrivals for result in results)

"""A finished world is freed by reference counting alone.

Agents hold their world through a weak proxy, and the proxy worlds of
adversary brains and SMR slots are owned by the agent that built them, so
no reference cycle runs through a :class:`World`: dropping the last
reference frees it at once, without the cyclic collector.
"""
import gc
import weakref

import pytest

from repro.adversary.behaviors import crash_at
from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.delays import FixedDelay, UniformDelay
from repro.sim.faults import FaultPlan, ReorderJitter
from repro.sim.invariants import standard_monitors
from repro.sim.runner import World
from repro.smr import KeyValueStore, smr_factory


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _freed_without_collector(build) -> bool:
    world = build()
    result = world.run()
    assert result.all_honest_committed() and result.agreement_holds()
    ref = weakref.ref(world)
    del world
    return ref() is None


@pytest.mark.parametrize("preset", ["perf", "full"])
def test_brb_world_freed(collector_off, preset):
    def build():
        world = World(
            n=7, f=2, instrumentation=preset,
            delay_policy=UniformDelay(0.05, 1.0, seed=3, stream="counter"),
        )
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        return world

    assert _freed_without_collector(build)


def test_chaos_world_with_crash_brain_freed(collector_off):
    """Fault plan, monitor battery and a crash behavior whose brain runs
    the honest protocol behind an ``_InnerWorld``, recovering mid-run."""

    def build():
        world = World(
            n=9, f=2, instrumentation="full",
            delay_policy=UniformDelay(0.1, 0.8, seed=5),
            byzantine=frozenset({8}),
            fault_plan=FaultPlan(jitters=(ReorderJitter(0.3),), seed=5),
            monitors=standard_monitors(broadcaster=0, expected="v"),
            protocol_name="psync_vbb_5f1",
        )
        factory = PsyncVbb5f1.factory(
            broadcaster=0, input_value="v", big_delta=1.0
        )
        world.populate(
            factory, crash_at(at=0.5, recover=2.0, party_factory=factory)
        )
        return world

    assert _freed_without_collector(build)


def test_smr_world_freed(collector_off):
    """``repro smr`` at n=4: each replica owns one ``_SlotWorld`` per
    slot instance."""

    def build():
        world = World(n=4, f=1, delay_policy=FixedDelay(0.25))
        world.populate(smr_factory(
            leader=0,
            workload=[("set", f"key{i}", i) for i in range(3)],
            state_machine_factory=KeyValueStore,
        ))
        return world

    assert _freed_without_collector(build)

"""Tests for world construction and result collection."""
import gc

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.protocols.brb_2round import Brb2Round
from repro.sim.delays import FixedDelay
from repro.sim.process import Party
from repro.sim.runner import KERNEL_GC_THRESHOLD, RunResult, World


class Committer(Party):
    def __init__(self, world, pid, value="v"):
        super().__init__(world, pid)
        self.value = value

    def on_start(self):
        self.commit(self.value)


class TestWorldValidation:
    def test_byzantine_budget_enforced(self):
        with pytest.raises(ConfigurationError):
            World(
                n=4, f=1, delay_policy=FixedDelay(1.0),
                byzantine=frozenset({0, 1}),
            )

    def test_byzantine_ids_in_range(self):
        with pytest.raises(ConfigurationError):
            World(
                n=4, f=2, delay_policy=FixedDelay(1.0),
                byzantine=frozenset({7}),
            )

    def test_offsets_length_checked(self):
        with pytest.raises(ConfigurationError):
            World(
                n=4, f=1, delay_policy=FixedDelay(1.0),
                start_offsets=[0.0, 0.0],
            )

    def test_honest_ids_excludes_byzantine(self):
        world = World(
            n=4, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({2})
        )
        assert world.honest_ids == [0, 1, 3]

    def test_crash_default_for_missing_behavior_factory(self):
        world = World(
            n=3, f=1, delay_policy=FixedDelay(1.0), byzantine=frozenset({1})
        )
        world.populate(lambda w, pid: Committer(w, pid))
        result = world.run()
        assert 1 not in world.agents
        assert result.all_honest_committed()


class TestRunResult:
    def make_result(self, commits, *, n=3, byzantine=frozenset()):
        return RunResult(
            n=n,
            f=1,
            byzantine=byzantine,
            commits=commits,
            commit_global_times={p: 1.0 for p in commits},
            commit_rounds={p: 2 for p in commits},
        )

    def test_agreement_holds_on_empty(self):
        assert self.make_result({}).agreement_holds()

    def test_agreement_detects_split(self):
        assert not self.make_result({0: "a", 1: "b", 2: "a"}).agreement_holds()

    def test_committed_value_requires_unanimity(self):
        with pytest.raises(ValueError):
            self.make_result({0: "a", 1: "b"}).committed_value()
        with pytest.raises(ValueError):
            self.make_result({}).committed_value()
        assert self.make_result({0: "a", 1: "a"}).committed_value() == "a"

    def test_latency_requires_all_honest(self):
        partial = self.make_result({0: "a"})
        with pytest.raises(ValueError):
            partial.latency_from(0.0)
        full = self.make_result({0: "a", 1: "a", 2: "a"})
        assert full.latency_from(0.5) == pytest.approx(0.5)

    def test_round_latency_requires_all_honest(self):
        with pytest.raises(ValueError):
            self.make_result({0: "a"}).round_latency()
        assert self.make_result({0: "a", 1: "a", 2: "a"}).round_latency() == 2

    def test_byzantine_excluded_from_all_honest(self):
        result = self.make_result(
            {0: "a", 2: "a"}, byzantine=frozenset({1})
        )
        assert result.all_honest_committed()


class TestCommitOrder:
    def test_commit_order_recorded(self):
        world = World(n=3, f=0, delay_policy=FixedDelay(1.0))
        world.populate(lambda w, pid: Committer(w, pid))
        world.run()
        assert world.commit_order == [0, 1, 2]


class _NegativeDelay(FixedDelay):
    def delay(self, sender, recipient, payload, now):
        return -1.0

    def delays_for_multicast(self, sender, recipients, payload, now):
        return [-1.0] * len(recipients)


class _Multicaster(Party):
    """Multicasts on start and records the collector thresholds it runs
    under."""

    seen: list = []

    def on_start(self):
        _Multicaster.seen.append(gc.get_threshold())
        self.multicast(("hello", self.id))


class TestKernelGcPolicy:
    """``World.run`` raises the collector thresholds for the kernel loop
    only: the caller's thresholds are back afterwards, however the run
    ends."""

    CALLER = (900, 11, 12)

    @pytest.fixture(autouse=True)
    def caller_thresholds(self):
        saved = gc.get_threshold()
        gc.set_threshold(*self.CALLER)
        _Multicaster.seen = []
        try:
            yield
        finally:
            gc.set_threshold(*saved)

    def test_normal_run_restores(self):
        world = World(n=4, f=1, delay_policy=FixedDelay(1.0))
        world.populate(_Multicaster)
        world.run()
        assert _Multicaster.seen == [KERNEL_GC_THRESHOLD] * 4
        assert gc.get_threshold() == self.CALLER

    def test_raising_run_restores(self):
        world = World(n=4, f=1, delay_policy=_NegativeDelay(1.0))
        world.populate(_Multicaster)
        with pytest.raises(SimulationError, match="negative delay"):
            world.run()
        assert gc.get_threshold() == self.CALLER

    def test_sharded_run_restores_in_parent(self):
        world = World(
            n=8, f=2, delay_policy=FixedDelay(1.0), instrumentation="perf",
            shards=2,
        )
        world.populate(Brb2Round.factory(broadcaster=0, input_value="v"))
        result = world.run()
        assert result.shards == 2 and result.all_honest_committed()
        assert gc.get_threshold() == self.CALLER

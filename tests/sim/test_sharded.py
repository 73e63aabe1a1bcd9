"""Shard-count independence parity suite.

Sharded execution (``World(shards=k)``) is a pure performance mode: the
same configuration must yield the same ``RunResult`` outcomes — commits,
commit times, final time — and the same merged schedule-invariant
counters (``messages_sent``, ``events_processed``, ``quorum_checks``)
for every shard count and preset.  Counters that describe *how* work
was batched locally (``deliveries_batched``, ``delivery_runs_batched``)
legitimately differ: a shard only batches its local slice of a fan-out.

The suite also pins the forced-``shards=1`` rules — every feature whose
semantics need global per-copy visibility must silently fall back — and
the coordinator's zero-delay convergence (same-instant cross-shard
cascades re-step until quiescent).
"""
from dataclasses import replace

import pytest

from repro.protocols.brb_2round import Brb2Round
from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.coordinator import shard_bounds
from repro.sim.delays import FixedDelay, GstDelay, PerLinkDelay, UniformDelay
from repro.sim.faults import (
    Crash,
    DropLink,
    DuplicateLink,
    FaultPlan,
    Holdback,
    Partition,
    ReorderJitter,
)
from repro.sim.instrumentation import Instrumentation
from repro.sim.runner import COUNTERS, World, run_broadcast

CASES = {
    "brb_2round": (Brb2Round, 13, 4, {}),
    "vbb_5f1": (PsyncVbb5f1, 11, 2, {"big_delta": 1.0}),
}

#: RunResult fields that must be identical for every shard count.
INVARIANT_FIELDS = (
    "commits",
    "commit_global_times",
    "final_time",
    "messages_sent",
    "events_processed",
    "quorum_checks",
    "votes_batched",
    "equivocations_detected",
)

#: Run counters that may differ across shard counts: a shard only
#: batches its local slice of a fan-out, and the ``shard_*`` counters
#: meter the coordinator's barrier itself.
SHARD_DEPENDENT = (
    "deliveries_batched",
    "delivery_runs_batched",
    "shard_batches_exchanged",
    "shard_bytes_sent",
    "shard_barrier_rounds",
)

#: Every declared run counter that must merge to its single-process value.
MERGED_COUNTERS = tuple(
    name for name in COUNTERS if name not in SHARD_DEPENDENT
)


def _counter_plan(n: int) -> FaultPlan:
    """A rich tolerated counter-stream plan: one recovering crash, a
    healing partition, plus every link-local primitive (drop, duplicate
    echo, jitter, holdback) so the parity suite exercises each injector
    seam — and each counter merge rule — across shards.
    """
    return FaultPlan(
        crashes=(Crash(party=n - 1, at=0.5, recover=2.5),),
        drops=(DropLink(src=n - 1, prob=0.2, start=2.5, end=4.0),),
        duplicates=(
            DuplicateLink(start=0.0, end=3.0, prob=0.2, echo_delay=0.05),
        ),
        jitters=(ReorderJitter(jitter=0.3, start=0.0, end=3.0),),
        holdbacks=(
            Holdback(src=1, dst=2, start=0.0, end=2.0, flush_delay=0.1),
        ),
        partitions=(
            Partition(
                groups=(tuple(range(n // 2)), tuple(range(n // 2, n))),
                start=0.5, end=1.5, flush_delay=0.1,
            ),
        ),
        seed=21,
        stream="counter",
    )


def _outcome(result):
    """Everything a single-process run reports, but the fallback reason."""
    return (
        result.commits,
        result.commit_global_times,
        result.final_time,
        result.shards,
        result.counters(),
    )


def _run(case, *, shards, instrumentation, delay=None, **kwargs):
    protocol, n, f, extra = CASES[case]
    return run_broadcast(
        n=n,
        f=f,
        party_factory=protocol.factory(
            broadcaster=0, input_value="v", **extra
        ),
        delay_policy=delay if delay is not None else FixedDelay(1.0),
        instrumentation=instrumentation,
        shards=shards,
        **kwargs,
    )


class TestShardBounds:
    def test_partition_covers_every_party_once(self):
        for n in (2, 3, 10, 17, 10001):
            for k in (1, 2, 3, 4, 7):
                if k > n:
                    continue
                bounds = shard_bounds(n, k)
                assert len(bounds) == k
                assert bounds[0][0] == 0
                assert bounds[-1][1] == n
                for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                    assert hi == lo
                sizes = [hi - lo for lo, hi in bounds]
                assert max(sizes) - min(sizes) <= 1


class TestShardCountIndependence:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_perf_preset_parity(self, case):
        instrumentation = lambda: Instrumentation(  # noqa: E731
            name="perf", rounds=False, transcripts=False
        )
        baseline = _run(case, shards=1, instrumentation=instrumentation())
        assert baseline.shards == 1
        assert baseline.shard_batches_exchanged == 0
        assert baseline.all_honest_committed()
        for shards in (2, 4):
            result = _run(
                case, shards=shards, instrumentation=instrumentation()
            )
            assert result.shards == shards
            assert result.shard_batches_exchanged > 0
            for field in INVARIANT_FIELDS:
                assert getattr(result, field) == getattr(
                    baseline, field
                ), field

    def test_per_link_delay_parity(self):
        protocol, n, f, _ = CASES["brb_2round"]
        links = {
            (s, r): 0.5 + ((3 * s + 5 * r) % 7) * 0.25
            for s in range(n)
            for r in range(n)
            if s != r
        }
        delay = PerLinkDelay(links, default=1.0)
        results = [
            _run(
                "brb_2round", shards=k, instrumentation="perf", delay=delay
            )
            for k in (1, 2, 4)
        ]
        baseline = results[0]
        assert baseline.all_honest_committed()
        for result in results[1:]:
            for field in INVARIANT_FIELDS:
                assert getattr(result, field) == getattr(
                    baseline, field
                ), field

    def test_zero_delay_cascades_converge(self):
        # All-zero delays make every cross-shard cascade land at the
        # same instant: the coordinator must re-step t=0 to quiescence.
        # Intra-instant delivery order differs from the single-process
        # interleaving (documented), so only outcomes are pinned.
        baseline = _run(
            "brb_2round", shards=1, instrumentation="perf",
            delay=FixedDelay(0.0),
        )
        result = _run(
            "brb_2round", shards=2, instrumentation="perf",
            delay=FixedDelay(0.0),
        )
        assert result.shards == 2
        assert result.commits == baseline.commits
        assert result.commit_global_times == baseline.commit_global_times
        assert result.final_time == baseline.final_time == 0.0
        assert result.messages_sent == baseline.messages_sent

    def test_crash_from_start_byzantine_parity(self):
        byzantine = frozenset({3, 7})
        results = [
            _run(
                "brb_2round", shards=k, instrumentation="perf",
                byzantine=byzantine,
            )
            for k in (1, 2, 4)
        ]
        baseline = results[0]
        assert baseline.all_honest_committed()
        assert set(baseline.commits) == set(range(13)) - byzantine
        for result in results[1:]:
            assert result.shards > 1
            for field in INVARIANT_FIELDS:
                assert getattr(result, field) == getattr(
                    baseline, field
                ), field

    def test_until_horizon_parity(self):
        baseline = _run(
            "brb_2round", shards=1, instrumentation="perf", until=1.5
        )
        result = _run(
            "brb_2round", shards=2, instrumentation="perf", until=1.5
        )
        assert result.shards == 2
        assert baseline.final_time == result.final_time == 1.5
        assert result.commits == baseline.commits
        assert result.messages_sent == baseline.messages_sent
        assert result.events_processed == baseline.events_processed


class TestCounterStreamParity:
    """Randomized-schedule parity: counter streams across shard counts.

    Counter-stream ``UniformDelay`` (and counter-stream fault plans)
    price every copy as a pure per-link hash, so shards ∈ {1, 2, 4}
    must replay the identical schedule — and every declared run counter
    but the shard-dependent ones must merge to its single-process value,
    which pins each counter's merge rule.
    """

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("with_plan", [False, True])
    def test_counter_delay_parity(self, case, with_plan):
        _, n, _, _ = CASES[case]
        instrumentation = lambda: Instrumentation(  # noqa: E731
            name="perf", rounds=False, transcripts=False
        )
        delay = lambda: UniformDelay(  # noqa: E731
            0.05, 1.0, seed=17, stream="counter"
        )
        plan = _counter_plan(n) if with_plan else None
        baseline = _run(
            case, shards=1, instrumentation=instrumentation(),
            delay=delay(), fault_plan=plan,
        )
        assert baseline.shards == 1
        assert baseline.shard_fallback_reason is None
        if with_plan:
            assert baseline.faults_injected > 0
            assert baseline.messages_duplicated > 0
            assert baseline.messages_held > 0
            assert baseline.partition_windows == 1
        fields = ("commits", "commit_global_times", "final_time")
        for shards in (2, 4):
            result = _run(
                case, shards=shards, instrumentation=instrumentation(),
                delay=delay(), fault_plan=plan,
            )
            assert result.shards == shards
            assert result.shard_batches_exchanged > 0
            for field in fields + MERGED_COUNTERS:
                assert getattr(result, field) == getattr(
                    baseline, field
                ), field

    def test_wire_counters_meter_the_barrier(self):
        single = _run("brb_2round", shards=1, instrumentation="perf")
        assert single.shard_bytes_sent == 0
        assert single.shard_barrier_rounds == 0
        sharded = _run("brb_2round", shards=2, instrumentation="perf")
        assert sharded.shard_bytes_sent > 0
        assert sharded.shard_barrier_rounds > 0
        # Coalescing: rounds only count workers actually stepped, so the
        # round tally can never exceed one per exchanged batch plus the
        # per-instant convergence rounds — sanity-bound it loosely.
        assert sharded.shard_barrier_rounds <= (
            sharded.shard_batches_exchanged + sharded.events_processed
        )


class TestForcedSingleProcess:
    def _world(self, *, shards=4, **kwargs):
        kwargs.setdefault("n", 7)
        kwargs.setdefault("f", 2)
        kwargs.setdefault("delay_policy", FixedDelay(1.0))
        kwargs.setdefault("instrumentation", "perf")
        return World(shards=shards, **kwargs)

    def _populate(self, world, behavior_factory=None):
        world.populate(
            Brb2Round.factory(broadcaster=0, input_value="v"),
            behavior_factory,
        )
        return world.shards

    def test_requested_one_stays_one(self):
        world = self._world(shards=1)
        assert self._populate(world) == 1
        assert world.shard_fallback_reason is None
        # ``shards=1`` is the single-process path in every preset: the
        # outcome equals a run that never mentions sharding.
        protocol, n, f, extra = CASES["brb_2round"]
        for preset in ("full", "rounds", "perf"):
            one = _run("brb_2round", shards=1, instrumentation=preset)
            bare = run_broadcast(
                n=n, f=f,
                party_factory=protocol.factory(
                    broadcaster=0, input_value="v", **extra
                ),
                delay_policy=FixedDelay(1.0),
                instrumentation=preset,
            )
            assert one.commits, preset
            assert _outcome(one) == _outcome(bare), preset

    def test_sharded_when_nothing_forces(self):
        world = self._world()
        assert self._populate(world) == 4
        assert world.shard_fallback_reason is None

    def test_clamped_to_n(self):
        world = self._world(shards=100)
        assert self._populate(world) == 7
        assert world.shard_fallback_reason is None

    def test_full_instrumentation_forces_one(self):
        world = self._world(instrumentation="full")
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "rounds-accounting"

    def test_rounds_instrumentation_forces_one(self):
        world = self._world(instrumentation="rounds")
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "rounds-accounting"

    def test_unsafe_delay_policy_forces_one(self):
        world = self._world(delay_policy=UniformDelay(0.5, 1.0, seed=7))
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "delay-policy"

    def test_counter_stream_delay_policy_shards(self):
        world = self._world(
            delay_policy=UniformDelay(0.5, 1.0, seed=7, stream="counter")
        )
        assert self._populate(world) == 4
        assert world.shard_fallback_reason is None

    def test_sequential_fault_plan_forces_one(self):
        plan = FaultPlan(crashes=(Crash(party=1, at=0.5),), seed=3)
        world = self._world(fault_plan=plan)
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "fault-plan"

    def test_counter_fault_plan_shards(self):
        plan = FaultPlan(
            crashes=(Crash(party=1, at=0.5),), seed=3, stream="counter"
        )
        world = self._world(fault_plan=plan)
        assert self._populate(world) == 4
        assert world.shard_fallback_reason is None

    def test_gst_wrapping_unsafe_policy_forces_one(self):
        unsafe = GstDelay(
            gst=2.0, big_delta=1.0,
            pre_gst=UniformDelay(0.5, 1.0, seed=7),
        )
        world = self._world(delay_policy=unsafe)
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "delay-policy"

    def test_gst_wrapping_safe_policy_shards(self):
        safe = GstDelay(gst=2.0, big_delta=1.0, pre_gst=FixedDelay(0.5))
        assert self._populate(self._world(delay_policy=safe)) == 4

    def test_staggered_starts_force_one(self):
        world = self._world(
            start_offsets=[0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0]
        )
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "start-offsets"

    def test_behavior_factory_forces_one(self):
        from repro.sim.process import Agent

        class Silent(Agent):
            def __init__(self, world, pid):
                self.world, self.id = world, pid

            def start(self):
                pass

            def deliver(self, sender, payload):
                pass

        world = self._world(byzantine=frozenset({3}))
        assert self._populate(world, lambda w, p: Silent(w, p)) == 1
        assert world.shard_fallback_reason == "behavior-factory"

    def test_monitors_force_one(self):
        from repro.sim.invariants import AgreementMonitor

        world = self._world(monitors=[AgreementMonitor()])
        assert self._populate(world) == 1
        assert world.shard_fallback_reason == "monitors"

    def test_fallback_reason_surfaces_on_run_result(self):
        # A forced fallback runs the single-process schedule: its outcome
        # equals a ``shards=1`` run that names the default sequential
        # streams explicitly.
        plan = FaultPlan(crashes=(Crash(party=3, at=0.5),), seed=9)
        for reason, fault_plan in (
            ("delay-policy", None),
            ("fault-plan", plan),
        ):
            forced = _run(
                "brb_2round", shards=4, instrumentation="perf",
                delay=UniformDelay(0.5, 1.0, seed=7),
                fault_plan=fault_plan,
            )
            assert forced.shards == 1
            assert forced.shard_fallback_reason == reason
            explicit = _run(
                "brb_2round", shards=1, instrumentation="perf",
                delay=UniformDelay(0.5, 1.0, seed=7, stream="sequential"),
                fault_plan=fault_plan and replace(
                    fault_plan, stream="sequential"
                ),
            )
            assert explicit.commits
            assert _outcome(forced) == _outcome(explicit), reason
        granted = _run("brb_2round", shards=2, instrumentation="perf")
        assert granted.shards == 2
        assert granted.shard_fallback_reason is None

"""Tests for the event queue and simulation kernel."""
import random

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue
from repro.sim.scheduler import Simulator


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while (entry := queue.pop()) is not None:
            _fire(entry)
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for i in range(10):
            queue.push(1.0, lambda i=i: fired.append(i))
        while (entry := queue.pop()) is not None:
            _fire(entry)
        assert fired == list(range(10))

    def test_priority_beats_insertion_order(self):
        queue = EventQueue()
        fired = []
        queue.push(1.0, lambda: fired.append("late"), priority=1)
        queue.push(1.0, lambda: fired.append("early"), priority=0)
        while (entry := queue.pop()) is not None:
            _fire(entry)
        assert fired == ["early", "late"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        handle = queue.push(1.0, lambda: fired.append("x"))
        queue.push(2.0, lambda: fired.append("y"))
        handle.cancel()
        while (entry := queue.pop()) is not None:
            _fire(entry)
        assert fired == ["y"]

    def test_len_ignores_cancelled(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        handle.cancel()
        assert len(queue) == 1

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        handle = queue.push(5.0, lambda: None)
        assert queue.peek_time() == 5.0
        handle.cancel()
        assert queue.peek_time() is None

    def test_len_is_tracked_incrementally(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        for handle in handles[::2]:
            handle.cancel()
        assert len(queue) == 5
        queue.pop()
        assert len(queue) == 4
        for handle in handles:
            handle.cancel()  # double-cancel must not corrupt the count
        assert len(queue) == 0
        assert not queue

    def test_cancel_after_pop_does_not_corrupt_count(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped[6] is handle
        handle.cancel()  # already out of the heap: must be a no-op
        assert len(queue) == 1
        assert queue.pop() is not None
        assert queue.pop() is None
        assert len(queue) == 0

    def test_mass_cancellation_compacts_lazily(self):
        queue = EventQueue()
        handles = [queue.push(float(i), lambda: None) for i in range(500)]
        for handle in handles[:499]:
            handle.cancel()
        # Compaction kicked in: the heap no longer holds the dead entries.
        assert len(queue._heap) < 500
        assert len(queue) == 1
        entry = queue.pop()
        assert entry[6] is handles[499]
        assert queue.pop() is None

    def test_order_preserved_across_compaction(self):
        queue = EventQueue()
        fired = []
        handles = [
            queue.push(float(i), lambda i=i: fired.append(i))
            for i in range(300)
        ]
        for i, handle in enumerate(handles):
            if i % 3 != 0:
                handle.cancel()
        while (entry := queue.pop()) is not None:
            _fire(entry)
        assert fired == [i for i in range(300) if i % 3 == 0]

    def test_batch_equals_push_loop(self):
        batched = EventQueue()
        looped = EventQueue()
        batched.push(1.0, _noop, order_key=b"x")
        looped.push(1.0, _noop, order_key=b"x")
        times = [1.0, 2.0, 1.0, 1.0, 0.5]
        assert batched.push_batch(
            [(t, _noop, (r,)) for r, t in enumerate(times)], order_key=b"m",
        ) == 5
        for r, t in enumerate(times):
            looped.push(t, _noop, order_key=b"m", args=(r,))
        out = []
        for queue in (batched, looped):
            seen = []
            while (entry := queue.pop()) is not None:
                seen.append((entry[0], entry[2], entry[3], entry[5]))
            out.append(seen)
        assert out[0] == out[1]
        # Time first; at 1.0, key b"m" sorts before b"x", then seq order.
        assert [seq for _, _, seq, _ in out[0]] == [5, 1, 3, 4, 0, 2]

    @pytest.mark.parametrize("loop", ["run", "run_until", "run_before"])
    def test_push_after_mid_run_compaction_fires(self, loop):
        """An event cancels more than 64 pending timers, which compacts
        the heap mid-run, then schedules a new event: the run loop must
        still see that push (compaction rebuilds the heap in place)."""
        sim = Simulator()
        fired = []
        timers = [
            sim.schedule_at(5.0, fired.append, args=("timer",))
            for _ in range(100)
        ]

        def cancel_then_push() -> None:
            for timer in timers:
                timer.cancel()
            sim.schedule_at(2.0, fired.append, args=("pushed",))

        sim.schedule_at(1.0, cancel_then_push)
        if loop == "run":
            sim.run()
        elif loop == "run_until":
            sim.run(until=10.0)
        else:
            sim.run_before(10.0)
        assert fired == ["pushed"]
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("seed", [*range(8), *range(100, 104)])
    def test_randomized_scripts_pop_in_key_order(self, seed):
        """Seeded push/batch/cancel/pop/peek scripts against a sorted-list
        model: every pop is the smallest live ``(time, priority,
        order_key, seq)``, and ``len``/``peek_time`` track the model."""
        script = _random_script(seed)
        assert _replay_queue(script) == _replay_model(script)


class TestSimulator:
    def test_time_advances_monotonically(self):
        sim = Simulator()
        times = []
        sim.schedule_at(1.0, lambda: times.append(sim.now))
        sim.schedule_at(0.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.0]

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        seen = []

        def chain():
            seen.append(sim.now)
            if len(seen) < 3:
                sim.schedule_after(2.0, chain)

        sim.schedule_after(1.0, chain)
        sim.run()
        assert seen == [1.0, 3.0, 5.0]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        final = sim.run(until=5.0)
        assert fired == [1]
        assert final == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(-1.0, lambda: None)

    def test_run_until_before_now_rejected(self):
        """Stopping at a horizon behind ``now`` would move the clock
        backwards and let a later push land before fired events."""
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run(max_events=1)
        assert sim.now == 1.0
        with pytest.raises(SimulationError):
            sim.run(until=0.5)
        assert sim.now == 1.0
        with pytest.raises(SimulationError):
            sim.schedule_at(0.7, lambda: None)
        assert sim.run(until=1.0) == 1.0  # a horizon at ``now`` is fine
        assert sim.pending_events() == 1

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(float(i), lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_pending_events(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending_events() == 2
        sim.run(until=1.5)
        assert sim.pending_events() == 1

    def test_event_args_passed_positionally(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda a, b: seen.append((a, b)), args=(1, 2))
        sim.schedule_at(2.0, lambda: seen.append("plain"))
        sim.run()
        assert seen == [(1, 2), "plain"]

    def test_same_instant_push_during_drain_fires_in_key_order(self):
        """Self-delivery pattern: a push at ``now`` made while that
        instant drains joins the instant in ``(priority, order_key,
        seq)`` order, not behind it."""
        sim = Simulator()
        log = []

        def primary(tag: int) -> None:
            log.append(("p", tag))
            sim.schedule_at(
                sim.now, log.append, order_key=bytes([9 - tag]),
                args=(("keyed", tag),),
            )
            sim.schedule_at(sim.now, log.append, args=(("echo", tag),))

        sim.schedule_at(1.0, log.append, priority=1, args=(("late", 0),))
        for tag in range(5):
            sim.schedule_at(1.0, primary, order_key=bytes([tag]), args=(tag,))
        sim.run()
        # The empty key sorts before every primary's, so each echo fires
        # before the next primary; the keyed pushes (keys 9..5) follow
        # every primary in key order; priority 1 waits for all of it.
        assert log == (
            [entry for t in range(5) for entry in (("p", t), ("echo", t))]
            + [("keyed", t) for t in (4, 3, 2, 1, 0)]
            + [("late", 0)]
        )
        assert sim.now == 1.0

    @pytest.mark.parametrize(
        "until,max_events", [(None, None), (1.25, None), (None, 37)]
    )
    def test_cascade_replays_identically(self, until, max_events):
        first = _cascade(until=until, max_events=max_events)
        assert first == _cascade(until=until, max_events=max_events)
        log, final, pending, processed = first
        if until is not None:
            assert final == until
            assert max(t for t, _ in log) <= until
            assert pending > 0
        if max_events is not None:
            assert processed == len(log) == max_events
            assert pending > 0
        if until is None and max_events is None:
            assert pending == 0 and processed == len(log) > 100


def _noop(*args) -> None:
    pass


def _fire(entry: tuple) -> None:
    """Run a popped ``(time, priority, order_key, seq, action, args,
    handle)`` entry the way the simulator does."""
    entry[4](*entry[5])


#: A small time grid forces heavy tie-breaking on time.
_TIMES = [0.0, 0.5, 1.0, 1.0, 1.5, 2.0, 3.0]
_KEYS = [b"", b"a", b"b", b"zz"]


def _random_script(seed: int) -> list[tuple]:
    rng = random.Random(seed)
    script: list[tuple] = []
    pushes = 0
    for _ in range(400):
        roll = rng.random()
        time, priority, key = (
            rng.choice(_TIMES), rng.randrange(2), rng.choice(_KEYS)
        )
        if roll < 0.45:
            script.append(("push", time, priority, key))
            pushes += 1
        elif roll < 0.60:
            # Handle-free entries, each with its own time.
            times = [rng.choice(_TIMES) for _ in range(rng.randrange(1, 6))]
            script.append(("batch", priority, key, times))
        elif roll < 0.75 and pushes:
            script.append(("cancel", rng.randrange(pushes)))
        elif roll < 0.9:
            script.append(("pop",))
        else:
            script.append(("peek",))
    return script


def _replay_queue(script: list[tuple]) -> list[tuple]:
    queue = EventQueue()
    handles = []
    log: list[tuple] = []
    for op in script:
        if op[0] == "push":
            _, time, priority, key = op
            handles.append(
                queue.push(time, _noop, priority=priority, order_key=key)
            )
        elif op[0] == "batch":
            _, priority, key, times = op
            queue.push_batch(
                [(time, _noop, (i,)) for i, time in enumerate(times)],
                priority=priority, order_key=key,
            )
        elif op[0] == "cancel":
            handles[op[1]].cancel()
        elif op[0] == "pop":
            entry = queue.pop()
            log.append(None if entry is None else entry[:4] + entry[5:6])
        else:
            log.append(("peek", queue.peek_time(), len(queue)))
    while (entry := queue.pop()) is not None:
        log.append(entry[:4])
    log.append(("end", len(queue), queue.peek_time()))
    return log


def _replay_model(script: list[tuple]) -> list[tuple]:
    """The same script against a plain sorted list of live entries."""
    live: list[tuple] = []
    push_seqs = []
    seq = 0
    log: list[tuple] = []
    for op in script:
        if op[0] == "push":
            _, time, priority, key = op
            live.append((time, priority, key, seq, ()))
            push_seqs.append(seq)
            seq += 1
        elif op[0] == "batch":
            _, priority, key, times = op
            for i, time in enumerate(times):
                live.append((time, priority, key, seq, (i,)))
                seq += 1
        elif op[0] == "cancel":
            target = push_seqs[op[1]]
            live = [entry for entry in live if entry[3] != target]
        elif op[0] == "pop":
            live.sort()
            log.append(live.pop(0) if live else None)
        else:
            head = min(live)[0] if live else None
            log.append(("peek", head, len(live)))
    for entry in sorted(live):
        log.append(entry[:4])
    log.append(("end", 0, None))
    return log


def _cascade(*, until=None, max_events=None):
    """A seeded fan-out cascade with same-instant and batched pushes."""
    sim = Simulator()
    rng = random.Random(7)
    log = []
    spawned = [0]

    def fire(tag: int) -> None:
        log.append((sim.now, tag))
        if spawned[0] < 120:
            spawned[0] += 3
            time = sim.now + rng.choice([0.0, 0.5, 1.0])
            sim.schedule_batch(
                [(time, fire, (tag + k + 1,)) for k in range(3)],
                order_key=bytes([tag % 5]),
            )

    sim.schedule_at(0.0, fire, args=(0,))
    final = sim.run(until=until, max_events=max_events)
    return log, final, sim.pending_events(), sim.events_processed

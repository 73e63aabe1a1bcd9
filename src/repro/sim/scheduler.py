"""The simulation kernel: virtual time plus the event loop.

``Simulator`` owns the global virtual clock.  Everything else (networks,
parties, adversaries, timers) schedules callbacks on it.  Time is a float
in abstract "delay units"; the paper's ``Delta`` and ``delta`` are plain
parameters in those units.
"""
from __future__ import annotations

from heapq import heappop
from typing import Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue


class Simulator:
    """Deterministic discrete-event simulation kernel."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current global virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Logical events processed.

        Counts one per fired event, plus the extra logical deliveries a
        batched fan-out run folds into a single event (the network
        reports those via :meth:`note_logical_events`) — so the
        counter is invariant between the batched and per-copy delivery
        paths, and parity gates can keep comparing it across modes.
        """
        return self._events_processed

    def note_logical_events(self, extra: int) -> None:
        """Account ``extra`` logical events folded into the current one.

        Called by the network when one delivery-run event stands in for
        ``extra + 1`` per-copy delivery events.
        """
        self._events_processed += extra

    def schedule_at(
        self,
        time: float,
        action: Callable[..., None],
        *,
        priority: int = 0,
        order_key: bytes = b"",
        label: str = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``action(*args)`` at absolute virtual time ``time``;
        returns a cancellable handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self._now}"
            )
        return self._queue.push(
            time, action, priority=priority, order_key=order_key,
            label=label, args=args,
        )

    def schedule_batch(
        self,
        entries: list[tuple[float, Callable[..., None], tuple]],
        *,
        priority: int = 0,
        order_key: bytes = b"",
    ) -> int:
        """Schedule every ``(time, action, args)`` of ``entries`` in one
        queue call.  Equivalent to a loop of :meth:`schedule_at` — same
        sequence order, same firing order — but returns no handles, so it
        is for fire-and-forget work (message fan-outs); returns the
        number of entries scheduled.
        """
        now = self._now
        for entry in entries:
            if entry[0] < now:
                raise SimulationError(
                    f"cannot schedule event at {entry[0]} before now={now}"
                )
        return self._queue.push_batch(
            entries, priority=priority, order_key=order_key
        )

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` after a relative ``delay >= 0``."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(
            self._now + delay, action, priority=priority, label=label
        )

    def run(
        self, *, until: float | None = None, max_events: int | None = None
    ) -> float:
        """Process events in time order.

        Stops when the queue drains, when virtual time would exceed
        ``until``, or after ``max_events`` events.  Returns the final
        virtual time.  An ``until`` before ``now`` is rejected: stopping
        there would move the clock backwards.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until} before now={self._now}"
            )
        if until is None and max_events is None:
            return self._drain(None)
        self._running = True
        processed = 0
        queue = self._queue
        heap = queue._heap
        try:
            while True:
                next_time = queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                if max_events is not None and processed >= max_events:
                    break
                time, _, _, _, action, args, handle = heappop(heap)
                if handle is not None:
                    handle.queue = None
                self._now = time
                action(*args)
                processed += 1
        finally:
            self._events_processed += processed
            self._running = False
        return self._now

    def _drain(self, horizon: float | None) -> float:
        """The hot loop: fire every entry strictly before ``horizon``
        (all of them for ``None``), one heap pop per entry."""
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        processed = 0
        queue = self._queue
        # Safe to hold: compaction rebuilds this very list in place.
        heap = queue._heap
        try:
            while heap:
                if horizon is not None and heap[0][0] >= horizon:
                    break
                time, _, _, _, action, args, handle = heappop(heap)
                if handle is not None:
                    if handle.cancelled:
                        queue._cancelled -= 1
                        continue
                    handle.queue = None
                self._now = time
                action(*args)
                processed += 1
        finally:
            self._events_processed += processed
            self._running = False
        return self._now

    def advance_now(self, time: float) -> None:
        """Jump virtual time forward without processing any event.

        The sharded worker stamps a cross-shard delivery's instant with
        this before injecting the copies directly (bypassing the
        event queue): ``run(until=...)`` stops short of the horizon when
        the local queue drains first, but the handlers invoked by the
        delivery read ``now`` to price their own sends.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot move time backwards from {self._now} to {time}"
            )
        self._now = time

    def run_before(self, horizon: float) -> float:
        """Process events strictly before ``horizon``; return final time.

        The sharded worker's window step: the coordinator's lookahead
        guarantees no cross-shard traffic can land inside the window, so
        the whole span runs in one call.  Unlike ``run(until=...)``,
        ``now`` is left at the last processed event's instant — never
        advanced to the horizon itself — so the merged ``final_time``
        still reports the last real event.
        """
        return self._drain(horizon)

    def next_event_time(self) -> float | None:
        """Time of the earliest queued event, or ``None`` when empty.

        The sharded coordinator's barrier probe: each worker reports its
        local event queue's head so the coordinator can pick the global
        next instant.
        """
        return self._queue.peek_time()

    def pending_events(self) -> int:
        """Number of events still queued (excluding cancelled)."""
        return len(self._queue)

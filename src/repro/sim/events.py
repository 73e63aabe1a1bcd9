"""Event queue for the deterministic discrete-event simulator.

Events are ordered by ``(time, priority, order_key, seq)`` where ``seq`` is
the insertion sequence number.  The sequence number makes tie-breaking fully
deterministic: two events scheduled for the same instant fire in the order
they were scheduled.  Lower-bound witnesses depend on this reproducibility
to compare transcripts byte-for-byte across executions.

Cancellation is lazy: :meth:`Event.cancel` only flags the entry, and the
queue drops flagged entries when they surface at the heap top (or in a bulk
compaction once they dominate the heap).  Live-entry bookkeeping is kept
incrementally — ``len(queue)`` and ``bool(queue)`` are O(1), never a heap
scan — which matters because the scheduler polls the queue once per event.
"""
from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional


#: Compaction triggers only past this many cancelled entries (and only when
#: they outnumber live ones), so small queues never pay the rebuild.
_COMPACT_MIN_CANCELLED = 64


@dataclass(order=True, slots=True)
class Event:
    """One scheduled callback.  Ordering fields first; payload excluded.

    ``order_key`` canonicalizes ties: two events at the same instant and
    priority fire in ``order_key`` order (then insertion order).  Message
    deliveries use the payload digest, so simultaneous deliveries are
    processed in a content-determined order that is invariant across the
    paired executions of the lower-bound constructions — the model treats
    same-instant delivery order as adversary-chosen anyway.

    ``args`` are positional arguments the scheduler passes to ``action``
    when the event fires; binding them here lets high-volume callers
    (message deliveries) skip allocating a ``partial`` per event.
    """

    time: float
    priority: int
    order_key: bytes
    seq: int
    action: Callable[..., None] = field(compare=False)
    args: tuple = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    #: Back-reference to the owning queue while the event sits in its heap;
    #: cleared on pop so a late ``cancel()`` cannot corrupt the counters.
    queue: Optional["EventQueue"] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancel()


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    Heap entries are ``(time, priority, order_key, seq, event)`` tuples:
    ``seq`` is unique, so comparisons always resolve within the plain-data
    prefix and run entirely in C — the generated ``Event.__lt__`` never
    enters the heap's hot path.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, bytes, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0  # non-cancelled events currently in the heap
        self._cancelled = 0  # cancelled events awaiting lazy removal

    def push(
        self,
        time: float,
        action: Callable[..., None],
        *,
        priority: int = 0,
        order_key: bytes = b"",
        label: str = "",
        args: tuple = (),
    ) -> Event:
        """Schedule ``action(*args)`` at ``time``; returns a cancellable
        handle."""
        seq = next(self._counter)
        event = Event(
            time, priority, order_key, seq, action, args,
            label=label, queue=self,
        )
        heapq.heappush(self._heap, (time, priority, order_key, seq, event))
        self._live += 1
        return event

    def push_batch(
        self,
        time: float,
        action: Callable[..., None],
        args_seq: list[tuple],
        *,
        priority: int = 0,
        order_key: bytes = b"",
        label: str = "",
    ) -> int:
        """Schedule ``action(*args)`` at ``time`` for every tuple in
        ``args_seq``, sharing one ``(priority, order_key)`` prefix.

        Exactly equivalent to calling :meth:`push` once per tuple (same
        ``seq`` assignment, same pop order) — the batch form exists so a
        multicast fan-out crosses the queue boundary once per distinct
        delivery instant.  No handles are returned: batch pushes are for
        fire-and-forget deliveries; returns the number of events
        scheduled.
        """
        heap = self._heap
        counter = self._counter
        heappush = heapq.heappush
        for args in args_seq:
            seq = next(counter)
            event = Event(
                time, priority, order_key, seq, action, args,
                label=label, queue=self,
            )
            heappush(heap, (time, priority, order_key, seq, event))
        self._live += len(args_seq)
        return len(args_seq)

    def pop(self) -> Event | None:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[4]
            if event.cancelled:
                self._cancelled -= 1
                continue
            event.queue = None
            self._live -= 1
            return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest pending event without removing it."""
        heap = self._heap
        while heap and heap[0][4].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        if heap:
            return heap[0][0]
        return None

    def _note_cancel(self) -> None:
        """Bookkeeping callback from :meth:`Event.cancel` (in-heap only)."""
        self._live -= 1
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and self._cancelled > self._live
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (amortized O(live))."""
        self._heap = [entry for entry in self._heap if not entry[4].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0


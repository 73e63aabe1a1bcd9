"""Event queue for the deterministic discrete-event simulator.

The heap holds plain tuples::

    (time, priority, order_key, seq, action, args, handle)

ordered by ``(time, priority, order_key, seq)``, where ``seq`` is the
insertion sequence number.  ``seq`` is unique, so comparisons always
resolve within that plain-data prefix and run entirely in C.  The
sequence number also makes tie-breaking fully deterministic: two entries
scheduled for the same instant fire in the order they were scheduled.
Lower-bound witnesses depend on this reproducibility to compare
transcripts byte-for-byte across executions.  ``order_key`` canonicalizes
ties before ``seq``: message deliveries use the payload digest, so
simultaneous deliveries are processed in a content-determined order that
is invariant across the paired executions of the lower-bound
constructions — the model treats same-instant delivery order as
adversary-chosen anyway.

When an entry fires, the scheduler calls ``action(*args)``.  ``handle`` is
an :class:`Event` only for work its scheduler may cancel (timers,
behavior steps, retransmission checks, start steps — everything pushed
through :meth:`EventQueue.push`); message deliveries are pushed handle-free
through :meth:`EventQueue.push_batch`, so one delivered copy costs one heap
tuple and its argument tuple, and no per-copy object the cyclic collector
has to track beyond them.

Cancellation is lazy: :meth:`Event.cancel` only flags the handle, and the
queue drops flagged entries when they surface at the heap top (or in a
bulk compaction once they dominate the heap).  ``len(queue)`` and
``bool(queue)`` are O(1), never a heap scan.
"""
from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional


#: Compaction triggers only past this many cancelled entries (and only when
#: they outnumber live ones), so small queues never pay the rebuild.
_COMPACT_MIN_CANCELLED = 64

#: One heap entry; see the module docstring.
Entry = tuple[float, int, bytes, int, Callable[..., None], tuple, Any]


class Event:
    """Cancellable handle of one scheduled callback.

    ``time`` and ``label`` are kept for debugging; the queue orders the
    heap entry, never the handle.
    """

    __slots__ = ("time", "label", "cancelled", "queue")

    def __init__(
        self, time: float, label: str, queue: Optional["EventQueue"]
    ) -> None:
        self.time = time
        self.label = label
        self.cancelled = False
        #: The owning queue while the entry sits in its heap; cleared when
        #: the entry fires, so a late ``cancel()`` cannot corrupt counters.
        self.queue = queue

    def cancel(self) -> None:
        """Mark the event so the scheduler skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancel()


class EventQueue:
    """A deterministic min-heap of scheduled callbacks.

    Consumers that drain the heap themselves (the simulator's run loops)
    may hold on to ``_heap``: the list object is never replaced, only
    rebuilt in place, so a push made after a compaction lands in the list
    they hold.
    """

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        self._counter = itertools.count()
        self._cancelled = 0  # cancelled entries awaiting lazy removal

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
        event = Event(time, label, self)
        heapq.heappush(self._heap, (
            time, priority, order_key, next(self._counter), action, args,
            event,
        ))
        return event

    def push_batch(
        self,
        entries: list[tuple[float, Callable[..., None], tuple]],
        *,
        priority: int = 0,
        order_key: bytes = b"",
    ) -> int:
        """Schedule ``action(*args)`` at ``time`` for every
        ``(time, action, args)`` in ``entries``, sharing one
        ``(priority, order_key)``; returns the number scheduled.

        Seqs are assigned in list order, so the batch is exactly
        equivalent to one :meth:`push` per entry (same pop order).  No
        handles exist: batch entries are fire-and-forget deliveries.
        """
        heap = self._heap
        counter = self._counter
        heappush = heapq.heappush
        for time, action, args in entries:
            heappush(heap, (
                time, priority, order_key, next(counter), action, args, None,
            ))
        return len(entries)

    def pop(self) -> Entry | None:
        """Remove and return the earliest live entry, or ``None``."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            handle = entry[6]
            if handle is not None:
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                handle.queue = None
            return entry
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live entry without removing it."""
        heap = self._heap
        while heap:
            handle = heap[0][6]
            if handle is None or not handle.cancelled:
                return heap[0][0]
            heapq.heappop(heap)
            self._cancelled -= 1
        return None

    def _note_cancel(self) -> None:
        """Bookkeeping callback from :meth:`Event.cancel` (in-heap only)."""
        self._cancelled += 1
        if (
            self._cancelled > _COMPACT_MIN_CANCELLED
            and 2 * self._cancelled > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries (amortized O(live)).

        In place: the run loops hold the list object itself."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if entry[6] is None or not entry[6].cancelled
        ]
        heapq.heapify(heap)
        self._cancelled = 0

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled

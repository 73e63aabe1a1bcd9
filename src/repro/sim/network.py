"""Message transport between parties, mediated by a delay policy.

The network realizes the paper's adversarial message scheduling:

* every message's delay comes from the :class:`~repro.sim.delays.DelayPolicy`
  (the adversary's schedule); honest multicast fan-outs sample one delay
  *vector* per multicast via
  :meth:`~repro.sim.delays.DelayPolicy.delays_for_multicast` instead of n
  per-recipient calls;
* messages touching a Byzantine endpoint may additionally carry an explicit
  per-message ``delay_override`` (Byzantine parties "postpone sending or
  reading" to simulate arbitrary delays, including infinity);
* messages that arrive before the recipient has started its protocol are
  buffered and handed over at the recipient's start (local time 0).

Observability is routed through the world's
:class:`~repro.sim.instrumentation.Instrumentation` bundle: deliveries are
recorded as atomic steps with the accountant (for Definition 9-10 round
latency) and in-flight messages are captured as envelopes — both only when
the bundle enables them; a disabled observer costs the hot path nothing.

Fault injection (:mod:`repro.sim.faults`) hooks the same two seams: the
schedule side (``_schedule_copy``: drop/duplicate/jitter/hold/churn per
priced copy) and the delivery side (``_deliver``: discard arrivals into a
crash window).  A world without a fault plan has no injector at all, so
the unfaulted path replays byte-identically.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.crypto.messages import digest
from repro.sim.clock import quantize
from repro.sim.delays import DelayPolicy
from repro.sim.scheduler import Simulator
from repro.types import INF, PartyId

if TYPE_CHECKING:
    from repro.sim.faults import FaultInjector
    from repro.sim.instrumentation import Instrumentation
    from repro.sim.retransmit import ReliableLink, _Transfer

#: Delivery callback: (sender, payload) -> None
DeliverFn = Callable[[PartyId, Any], None]


@dataclass(frozen=True, slots=True)
class Envelope:
    """A message in flight (recorded for statistics and debugging)."""

    sender: PartyId
    recipient: PartyId
    payload: Any
    send_time: float
    deliver_time: float


class Network:
    """Point-to-point transport with adversary-scheduled delays."""

    def __init__(
        self,
        sim: Simulator,
        policy: DelayPolicy,
        *,
        n: int,
        byzantine: frozenset[PartyId] = frozenset(),
        start_offsets: list[float] | None = None,
        instrumentation: "Instrumentation | None" = None,
        fault_injector: "FaultInjector | None" = None,
        reliable_link: "ReliableLink | None" = None,
    ):
        self._sim = sim
        self._policy = policy
        # The fault engine's two seams run through this class; with no
        # plan attached the injector is ``None`` and every faulted
        # branch below is a single is-None test — the no-fault path
        # stays byte-identical to a build without fault injection.
        self._injector = fault_injector
        # Opt-in reliable channel (ack + bounded-backoff retransmission):
        # like the injector, ``None`` when unused, and its presence forces
        # the per-copy path (registration and ack happen per copy).
        if reliable_link is not None:
            from repro.sim.retransmit import ReliableChannel

            self._reliable = ReliableChannel(
                reliable_link, sim, self._retransmit
            )
        else:
            self._reliable = None
        self._n = n
        self._byzantine = byzantine
        self._start_offsets = start_offsets or [0.0] * n
        if len(self._start_offsets) != n:
            raise SimulationError("start_offsets length must equal n")
        # When every party starts at the same offset, a multicast's
        # delivery time depends only on the delay — the batched fan-out
        # then reuses one quantized time per distinct delay value.
        first = self._start_offsets[0]
        self._common_offset = (
            first if all(o == first for o in self._start_offsets) else None
        )
        # Inboxes live in a list indexed by party id: the delivery hot
        # path does an index load instead of a dict probe (20k+ times per
        # large run); a ``None`` slot is a never-attached party.
        self._inboxes: list[DeliverFn | None] = [None] * n
        # Per-sender fan-out recipient lists, cached on first multicast:
        # rebuilding the O(n) list per multicast is measurable at
        # n >= 501, and lazy construction keeps world setup O(n) (a
        # receive-only party never pays for a list it does not use).
        self._fanouts: list[list[PartyId] | None] = [None] * n
        # Bind the observers once; ``None`` dead-strips their hot-path use.
        self._accountant = (
            instrumentation.accountant if instrumentation is not None else None
        )
        self._envelopes = (
            instrumentation.envelopes if instrumentation is not None else None
        )
        self.messages_sent = 0
        self.messages_delivered = 0
        #: Copies delivered through batched run events, and the number of
        #: such run events (0 whenever the per-copy path is forced).
        self.deliveries_batched = 0
        self.delivery_runs_batched = 0

    @property
    def n(self) -> int:
        return self._n

    @property
    def envelopes(self) -> list[Envelope]:
        """Captured in-flight messages (empty unless capture is enabled)."""
        return self._envelopes if self._envelopes is not None else []

    def attach(self, party: PartyId, deliver: DeliverFn) -> None:
        """Register the delivery callback for ``party``."""
        if not 0 <= party < self._n:
            raise SimulationError(f"party {party} out of range")
        if self._inboxes[party] is not None:
            raise SimulationError(f"party {party} already attached")
        self._inboxes[party] = deliver

    def _fanout_for(self, sender: PartyId) -> list[PartyId]:
        """The cached everyone-but-sender recipient list."""
        recipients = self._fanouts[sender]
        if recipients is None:
            recipients = [r for r in range(self._n) if r != sender]
            self._fanouts[sender] = recipients
        return recipients

    def send(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        *,
        delay_override: float | None = None,
    ) -> None:
        """Send one message; the adversary's policy decides its delay.

        ``delay_override`` is only legal when the sender or the recipient
        is Byzantine (the model lets the adversary choose any delay on
        links touching a corrupted party).  ``INF`` drops the message.
        """
        self._send_one(sender, recipient, payload, delay_override, None)

    def multicast(
        self,
        sender: PartyId,
        payload: Any,
        *,
        include_self: bool = True,
        delay_override: float | None = None,
    ) -> None:
        """Send ``payload`` to every party (optionally excluding sender).

        Self-delivery is immediate (a party always "hears" itself with
        zero delay), matching the convention the paper uses when counting
        quorums that include the sender's own vote.

        The whole fan-out samples **one delay vector** from the policy
        (``delays_for_multicast``), computes **one** scheduling
        ``order_key`` digest — and none at all if the adversary drops
        every copy — and crosses the scheduler boundary **once per
        distinct delivery instant** (``schedule_batch``).  Byzantine ``delay_override`` fan-outs keep the
        exact per-recipient path (the override, not the policy, sets the
        delay).
        """
        injector = self._injector
        if injector is not None and injector.block_send(
            sender, self._sim.now
        ):
            return  # sender is inside a crash window: nothing leaves it
        if delay_override is not None:
            order_key = None
            for recipient in self._fanout_for(sender):
                order_key = self._send_one(
                    sender, recipient, payload, delay_override, order_key
                )
            self._deliver_self(sender, payload, include_self, order_key)
            return

        recipients = self._fanout_for(sender)
        delays = self._policy.delays_for_multicast(
            sender, recipients, payload, self._sim.now
        )
        if len(delays) != len(recipients):
            raise SimulationError(
                f"policy returned {len(delays)} delays for "
                f"{len(recipients)} recipients"
            )
        send_time = self._sim.now
        order_key = None
        self.messages_sent += len(recipients)
        if (
            self._common_offset is not None
            and injector is None
            and self._reliable is None
            and self._accountant is None
            and self._envelopes is None
        ):
            # Fully batched fan-out: each run of >= 2 equal delays is one
            # event carrying the recipient slice; the per-copy loop
            # moves inside ``_deliver_many``.  Legal only with no
            # per-copy observer (accountant/envelopes) and no injector —
            # their seams are per copy — and only for runs delivered
            # strictly after ``send_time`` (a same-instant run's copies
            # would already be consumed when a reaction to the first copy
            # schedules, losing the per-copy tie-break the heap gives).
            order_key = self._multicast_runs(
                sender, recipients, delays, payload, send_time
            )
        elif (
            self._common_offset is not None
            and injector is None
            and self._reliable is None
        ):
            # Batched fast fan-out: with one start offset for everyone,
            # the delivery time is a pure function of the delay, so runs
            # of equal delays (every fixed/Gst-stable policy) share one
            # quantize call and are flushed as one ``schedule_batch``
            # (identical seq assignment to a per-copy loop, so the
            # schedule is byte-identical).  Delivery rules are the same
            # as ``_schedule_copy``'s: INF drops, negatives raise, the
            # order key is only digested once a copy is actually
            # scheduled.  Accountant/envelope observers, when enabled,
            # record per copy while the batch is assembled — same order
            # as the per-copy path.
            offset = self._common_offset
            accountant = self._accountant
            envelopes = self._envelopes
            schedule_batch = self._sim.schedule_batch
            deliver = self._deliver
            prev_delay: float | None = None
            deliver_time = 0.0
            batch: list[tuple] = []
            for recipient, delay in zip(recipients, delays):
                if delay != prev_delay:
                    if batch:
                        schedule_batch(
                            deliver_time, deliver, batch,
                            order_key=order_key, label="deliver",
                        )
                        batch = []
                    if delay == INF:
                        prev_delay, deliver_time = delay, INF
                        continue
                    if delay < 0:
                        raise SimulationError(
                            f"policy produced negative delay {delay}"
                        )
                    prev_delay = delay
                    deliver_time = quantize(max(send_time + delay, offset))
                    if order_key is None:
                        order_key = digest(payload)
                elif deliver_time == INF:
                    continue
                msg_id = (
                    accountant.register_send()
                    if accountant is not None
                    else None
                )
                if envelopes is not None:
                    envelopes.append(
                        Envelope(
                            sender, recipient, payload, send_time,
                            deliver_time,
                        )
                    )
                batch.append((sender, recipient, payload, msg_id))
            if batch:
                schedule_batch(
                    deliver_time, deliver, batch, order_key=order_key,
                    label="deliver",
                )
        else:
            for recipient, delay in zip(recipients, delays):
                order_key = self._schedule_copy(
                    sender, recipient, payload, delay, send_time, order_key
                )
        self._deliver_self(sender, payload, include_self, order_key)

    def _multicast_runs(
        self,
        sender: PartyId,
        recipients: list[PartyId],
        delays: list[float],
        payload: Any,
        send_time: float,
    ) -> bytes | None:
        """Schedule a fan-out as one event per equal-delay run.

        Delivery rules match ``_schedule_copy``: INF runs are dropped,
        negative delays raise, times are quantized against the common
        start offset, and the order-key digest happens only once a run is
        actually scheduled.  Runs are flushed in recipient order, so the
        schedule's ``(time, priority, order_key)`` ordering — and hence
        every party's inbox order — is identical to the per-copy path.
        """
        offset = self._common_offset
        order_key = None
        prev_delay: float | None = None
        deliver_time = 0.0
        start = 0
        for idx, delay in enumerate(delays):
            if delay == prev_delay:
                continue
            if idx > start and deliver_time != INF:
                if order_key is None:
                    order_key = digest(payload)
                self._schedule_run(
                    sender, recipients, start, idx, payload,
                    deliver_time, send_time, order_key,
                )
            start = idx
            prev_delay = delay
            if delay == INF:
                deliver_time = INF
            else:
                if delay < 0:
                    raise SimulationError(
                        f"policy produced negative delay {delay}"
                    )
                deliver_time = quantize(max(send_time + delay, offset))
        end = len(delays)
        if end > start and deliver_time != INF:
            if order_key is None:
                order_key = digest(payload)
            self._schedule_run(
                sender, recipients, start, end, payload,
                deliver_time, send_time, order_key,
            )
        return order_key

    def _schedule_run(
        self,
        sender: PartyId,
        recipients: list[PartyId],
        start: int,
        end: int,
        payload: Any,
        deliver_time: float,
        send_time: float,
        order_key: bytes,
    ) -> None:
        """Schedule one equal-delay run: a single ``_deliver_many`` event
        for real runs, the classic per-copy events for singletons (same
        event shape, seq and cost as before) and for same-instant runs
        (their copies must stay individually orderable against reactions
        the run itself triggers)."""
        count = end - start
        if count == 1:
            self._sim.schedule_at(
                deliver_time,
                self._deliver,
                order_key=order_key,
                label="deliver",
                args=(sender, recipients[start], payload, None),
            )
            return
        if deliver_time <= send_time:
            self._sim.schedule_batch(
                deliver_time,
                self._deliver,
                [(sender, r, payload, None) for r in recipients[start:end]],
                order_key=order_key,
                label="deliver",
            )
            return
        # The full fan-out reuses the cached recipient list itself (the
        # cache is write-once, so the event cannot observe a mutation).
        run = (
            recipients
            if count == len(recipients)
            else recipients[start:end]
        )
        self.delivery_runs_batched += 1
        self.deliveries_batched += count
        self._sim.schedule_at(
            deliver_time,
            self._deliver_many,
            order_key=order_key,
            label="deliver-run",
            args=(sender, run, payload),
        )

    def _deliver_many(
        self, sender: PartyId, recipients: list[PartyId], payload: Any
    ) -> None:
        """Deliver one payload to a whole run of recipients.

        The tight-loop twin of ``_deliver``: one event frame for the run,
        an index load + inbox call per copy.  Only ever scheduled when no
        injector, accountant or envelope observer is attached, so the
        per-copy seams those hook are unreachable here by construction.
        The simulator is told about the folded copies so
        ``events_processed`` counts logical deliveries identically to the
        per-copy path.
        """
        self._sim.note_logical_events(len(recipients) - 1)
        inboxes = self._inboxes
        delivered = 0
        for recipient in recipients:
            inbox = inboxes[recipient]
            if inbox is not None:
                delivered += 1
                inbox(sender, payload)
        self.messages_delivered += delivered

    def _deliver_self(
        self,
        sender: PartyId,
        payload: Any,
        include_self: bool,
        order_key: bytes | None,
    ) -> None:
        if not include_self:
            return
        if order_key is None:
            order_key = digest(payload)
        self.messages_sent += 1
        self._schedule_delivery(
            sender, sender, payload, self._sim.now, order_key
        )

    def _send_one(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        delay_override: float | None,
        order_key: bytes | None,
    ) -> bytes | None:
        """Send one copy; returns the order key once a delivery needed it.

        ``order_key=None`` defers the digest until a copy is actually
        scheduled — a message the adversary withholds forever is never
        encoded at all (matching the pre-cache behavior).
        """
        if not 0 <= recipient < self._n:
            raise SimulationError(f"recipient {recipient} out of range")
        send_time = self._sim.now
        if self._injector is not None and self._injector.block_send(
            sender, send_time
        ):
            return order_key
        if delay_override is not None:
            if sender not in self._byzantine and recipient not in self._byzantine:
                raise SimulationError(
                    "delay overrides require a Byzantine endpoint "
                    f"({sender}->{recipient} are both honest)"
                )
            delay = delay_override
        else:
            delay = self._policy.delay(sender, recipient, payload, send_time)
        self.messages_sent += 1
        return self._schedule_copy(
            sender, recipient, payload, delay, send_time, order_key
        )

    def _schedule_copy(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        delay: float,
        send_time: float,
        order_key: bytes | None,
    ) -> bytes | None:
        """Schedule one already-priced copy; the single home of the
        per-copy delivery rules (INF drop, negative-delay check, pre-start
        buffering, time quantization, deferred order-key digest) shared by
        the unicast/override path and the batched multicast fan-out."""
        if delay == INF:
            return order_key
        if delay < 0:
            raise SimulationError(f"policy produced negative delay {delay}")
        deliver_time = quantize(
            max(send_time + delay, self._start_offsets[recipient])
        )
        # Reliable-channel seam: track the copy *before* the injector gets
        # a chance to drop it — recovering exactly that loss is the
        # channel's job.  Self-deliveries never route through here.
        transfer = (
            self._reliable.register(sender, recipient, payload)
            if self._reliable is not None and recipient != sender
            else None
        )
        if self._injector is not None:
            # Fault seam: the injector may drop, retime, or duplicate
            # this copy.  The order-key digest stays lazy — a copy the
            # plan drops is never encoded, like an INF-delayed one.
            deliveries = self._injector.route(
                sender, recipient, send_time, deliver_time
            )
            if not deliveries:
                return order_key
            if order_key is None:
                order_key = digest(payload)
            for faulted_time in deliveries:
                self._schedule_delivery(
                    sender, recipient, payload,
                    quantize(faulted_time), order_key, transfer,
                )
            return order_key
        if order_key is None:
            order_key = digest(payload)
        self._schedule_delivery(
            sender, recipient, payload, deliver_time, order_key, transfer
        )
        return order_key

    def _schedule_delivery(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        deliver_time: float,
        order_key: bytes,
        transfer: "_Transfer | None" = None,
    ) -> None:
        msg_id = (
            self._accountant.register_send()
            if self._accountant is not None
            else None
        )
        if self._envelopes is not None:
            self._envelopes.append(
                Envelope(sender, recipient, payload, self._sim.now, deliver_time)
            )
        # A static label: formatting "deliver s->r" per message was a
        # measurable slice of the delivery hot path at n >= 100, and the
        # endpoints stay recoverable from the event's bound ``args``.
        # Binding the arguments on the event (instead of a ``partial``)
        # avoids one allocation per message.
        if transfer is not None:
            self._sim.schedule_at(
                deliver_time,
                self._deliver_tracked,
                order_key=order_key,
                label="deliver",
                args=(sender, recipient, payload, msg_id, transfer),
            )
            return
        self._sim.schedule_at(
            deliver_time,
            self._deliver,
            order_key=order_key,
            label="deliver",
            args=(sender, recipient, payload, msg_id),
        )

    def _deliver(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        msg_id: int | None,
    ) -> None:
        inbox = self._inboxes[recipient]
        if inbox is None:
            return  # recipient never attached (e.g. crashed from the start)
        if self._injector is not None and self._injector.block_delivery(
            recipient, self._sim.now
        ):
            return  # delivery seam: recipient is inside a crash window
        self.messages_delivered += 1
        if self._accountant is not None and msg_id is not None:
            self._accountant.begin_delivery_step(recipient, msg_id)
            try:
                inbox(sender, payload)
            finally:
                self._accountant.end_step()
        else:
            inbox(sender, payload)

    def _deliver_tracked(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        msg_id: int | None,
        transfer: "_Transfer",
    ) -> None:
        """The reliable-channel twin of :meth:`_deliver`.

        Same delivery rules; on the first copy that actually reaches the
        inbox (not discarded by a crash window) the channel is told to
        ack, stopping the retry chain.  Only scheduled when a channel is
        attached, so :meth:`_deliver` itself stays untouched.
        """
        inbox = self._inboxes[recipient]
        if inbox is None:
            return
        if self._injector is not None and self._injector.block_delivery(
            recipient, self._sim.now
        ):
            return  # recipient down: no ack, the retry chain recovers it
        self._reliable.acknowledge(transfer)
        self.messages_delivered += 1
        if self._accountant is not None and msg_id is not None:
            self._accountant.begin_delivery_step(recipient, msg_id)
            try:
                inbox(sender, payload)
            finally:
                self._accountant.end_step()
        else:
            inbox(sender, payload)

    def _retransmit(self, transfer: "_Transfer") -> bool:
        """Re-send one tracked copy (the reliable channel's resend hook).

        The retry is re-priced through the delay policy at the current
        instant and routed through the injector again — a resend can be
        dropped, jittered or duplicated exactly like an original.  A
        sender inside a crash window retransmits nothing (returns
        ``False``); its chain keeps ticking and resumes after recovery.
        """
        send_time = self._sim.now
        injector = self._injector
        if injector is not None and injector.block_send(
            transfer.sender, send_time
        ):
            return False
        delay = self._policy.delay(
            transfer.sender, transfer.recipient, transfer.payload, send_time
        )
        if delay == INF:
            return False
        if delay < 0:
            raise SimulationError(f"policy produced negative delay {delay}")
        deliver_time = quantize(
            max(
                send_time + delay,
                self._start_offsets[transfer.recipient],
            )
        )
        self.messages_sent += 1
        order_key = digest(transfer.payload)
        if injector is not None:
            deliveries = injector.route(
                transfer.sender, transfer.recipient, send_time, deliver_time
            )
            for faulted_time in deliveries:
                self._schedule_delivery(
                    transfer.sender, transfer.recipient, transfer.payload,
                    quantize(faulted_time), order_key, transfer,
                )
            return True
        self._schedule_delivery(
            transfer.sender, transfer.recipient, transfer.payload,
            deliver_time, order_key, transfer,
        )
        return True

    # ------------------------------------------------------------------ #
    # counters (read by World.counters)
    # ------------------------------------------------------------------ #

    def counters(self) -> dict[str, int]:
        """Transport tallies, plus the reliable channel's when attached."""
        counters = {
            "messages_sent": self.messages_sent,
            "deliveries_batched": self.deliveries_batched,
            "delivery_runs_batched": self.delivery_runs_batched,
        }
        if self._reliable is not None:
            counters.update(asdict(self._reliable.counters))
        return counters

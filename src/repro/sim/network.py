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
        entries: list[tuple] = []
        self._send_one(sender, recipient, payload, delay_override, entries)
        self._flush(entries, payload)

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
        every copy — and crosses the scheduler boundary **once**: its
        delivery entries are built in recipient order and handed over in
        one ``schedule_batch`` call.  Byzantine ``delay_override``
        fan-outs keep the exact per-recipient path (the override, not
        the policy, sets the delay).
        """
        injector = self._injector
        if injector is not None and injector.block_send(
            sender, self._sim.now
        ):
            return  # sender is inside a crash window: nothing leaves it
        entries: list[tuple] = []
        if delay_override is not None:
            for recipient in self._fanout_for(sender):
                self._send_one(
                    sender, recipient, payload, delay_override, entries
                )
            self._deliver_self(sender, payload, include_self, entries)
            self._flush(entries, payload)
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
        self.messages_sent += len(recipients)
        if (
            self._common_offset is not None
            and injector is None
            and self._reliable is None
        ):
            self._fanout_entries(
                sender, recipients, delays, payload, send_time, entries
            )
        else:
            for recipient, delay in zip(recipients, delays):
                self._schedule_copy(
                    sender, recipient, payload, delay, send_time, entries
                )
        self._deliver_self(sender, payload, include_self, entries)
        self._flush(entries, payload)

    def _fanout_entries(
        self,
        sender: PartyId,
        recipients: list[PartyId],
        delays: list[float],
        payload: Any,
        send_time: float,
        entries: list[tuple],
    ) -> None:
        """Build a fan-out's delivery entries, in recipient order.

        With one start offset for everyone, the delivery time is a pure
        function of the delay, so each run of equal delays (every
        fixed/Gst-stable policy) shares one quantize call.  Delivery rules
        match ``_schedule_copy``: INF drops, negatives raise.

        With no per-copy observer (accountant, envelopes) a run of >= 2
        copies delivered strictly after ``send_time`` folds into one
        ``_deliver_many`` entry carrying the recipient slice.  A
        same-instant run stays per copy: its copies would already be
        consumed when a reaction to the first copy schedules, losing the
        per-copy tie-break the heap gives.  Observers, when enabled,
        record per copy in recipient order, as the per-copy path does.
        """
        offset = self._common_offset
        accountant = self._accountant
        envelopes = self._envelopes
        fold = accountant is None and envelopes is None
        deliver = self._deliver
        append = entries.append
        count = len(delays)
        start = 0
        while start < count:
            delay = delays[start]
            end = start + 1
            while end < count and delays[end] == delay:
                end += 1
            if delay == INF:
                start = end
                continue
            if delay < 0:
                raise SimulationError(f"policy produced negative delay {delay}")
            deliver_time = quantize(max(send_time + delay, offset))
            if fold:
                if end - start == 1:
                    append((
                        deliver_time, deliver,
                        (sender, recipients[start], payload, None),
                    ))
                elif deliver_time > send_time:
                    # The full fan-out reuses the cached recipient list
                    # itself (the cache is write-once).
                    run = (
                        recipients
                        if end - start == count
                        else recipients[start:end]
                    )
                    append((
                        deliver_time, self._deliver_many,
                        (sender, run, payload),
                    ))
                    self.delivery_runs_batched += 1
                    self.deliveries_batched += end - start
                else:
                    for recipient in recipients[start:end]:
                        append((
                            deliver_time, deliver,
                            (sender, recipient, payload, None),
                        ))
            else:
                for recipient in recipients[start:end]:
                    msg_id = (
                        accountant.register_send()
                        if accountant is not None
                        else None
                    )
                    if envelopes is not None:
                        envelopes.append(Envelope(
                            sender, recipient, payload, send_time,
                            deliver_time,
                        ))
                    append((
                        deliver_time, deliver,
                        (sender, recipient, payload, msg_id),
                    ))
            start = end

    def _flush(self, entries: list[tuple], payload: Any) -> None:
        """Hand a send's delivery entries to the kernel in one call.

        The order key is digested only here, once a copy is actually
        scheduled: a message the adversary withholds forever (every copy
        INF-delayed or dropped) is never encoded at all.
        """
        if entries:
            self._sim.schedule_batch(entries, order_key=digest(payload))

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
        entries: list[tuple],
    ) -> None:
        if not include_self:
            return
        self.messages_sent += 1
        entries.append(
            self._copy_entry(sender, sender, payload, self._sim.now)
        )

    def _send_one(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        delay_override: float | None,
        entries: list[tuple],
    ) -> None:
        """Price one copy and append its delivery entries to ``entries``."""
        if not 0 <= recipient < self._n:
            raise SimulationError(f"recipient {recipient} out of range")
        send_time = self._sim.now
        if self._injector is not None and self._injector.block_send(
            sender, send_time
        ):
            return
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
        self._schedule_copy(
            sender, recipient, payload, delay, send_time, entries
        )

    def _schedule_copy(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        delay: float,
        send_time: float,
        entries: list[tuple],
    ) -> None:
        """Build one already-priced copy's delivery entries; the single
        home of the per-copy delivery rules (INF drop, negative-delay
        check, pre-start buffering, time quantization) shared by the
        unicast/override path and the per-copy multicast fan-out."""
        if delay == INF:
            return
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
            # this copy.
            for faulted_time in self._injector.route(
                sender, recipient, send_time, deliver_time
            ):
                entries.append(self._copy_entry(
                    sender, recipient, payload, quantize(faulted_time),
                    transfer,
                ))
            return
        entries.append(self._copy_entry(
            sender, recipient, payload, deliver_time, transfer
        ))

    def _copy_entry(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        deliver_time: float,
        transfer: "_Transfer | None" = None,
    ) -> tuple:
        """One copy's ``(time, action, args)`` entry, observed on the way:
        the accountant registers the send and the envelope log records
        it, both in scheduling order."""
        msg_id = (
            self._accountant.register_send()
            if self._accountant is not None
            else None
        )
        if self._envelopes is not None:
            self._envelopes.append(
                Envelope(sender, recipient, payload, self._sim.now, deliver_time)
            )
        if transfer is not None:
            return (
                deliver_time, self._deliver_tracked,
                (sender, recipient, payload, msg_id, transfer),
            )
        return (
            deliver_time, self._deliver,
            (sender, recipient, payload, msg_id),
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
        times = (
            [deliver_time] if injector is None
            else map(quantize, injector.route(
                transfer.sender, transfer.recipient, send_time, deliver_time
            ))
        )
        self._flush([
            self._copy_entry(
                transfer.sender, transfer.recipient, transfer.payload,
                time, transfer,
            )
            for time in times
        ], transfer.payload)
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

"""BFT SMR built from repeated single-shot psync-VBB instances.

Each *slot* of the replicated log runs one instance of the paper's
(5f-1)-psync-VBB protocol (2 good-case rounds), exactly the construction
the paper motivates ("each view in BFT SMR is similar to an instance of
broadcast") and spells out in its companion paper [5].  The replica
multiplexes slot instances over one network by tagging messages with the
slot number; the leader proposes its next pending command when the
previous slot commits locally, so a stable honest leader commits one
command every 2 message delays.

Commands are applied to the local :class:`~repro.smr.state_machine`
instance in slot order once the committed prefix is contiguous.
"""
from __future__ import annotations

import weakref
from typing import Any, Callable

from repro.protocols.psync.vbb_5f1 import PsyncVbb5f1
from repro.sim.process import Party
from repro.smr.state_machine import StateMachine
from repro.types import PartyId, Value

SMR = "smr"


class _SlotRegistry:
    """Registry proxy handing the replica's signer to slot instances."""

    def __init__(self, real_registry, signer):
        self._real = real_registry
        self._signer = signer

    def signer_for(self, party: PartyId):
        if party != self._signer.party:
            raise ValueError("slot instance asked for a foreign signer")
        return self._signer

    def verify(self, signed) -> bool:
        return self._real.verify(signed)

    def require_valid(self, signed):
        return self._real.require_valid(signed)

    def verify_all(self, items) -> bool:
        return self._real.verify_all(items)

    def verify_batch(self, items) -> bool:
        return self._real.verify_batch(items)


class _SlotNetwork:
    """Network proxy wrapping slot messages with the slot tag."""

    def __init__(self, replica: "SmrReplica", slot: int):
        self._replica = replica  # a weak proxy (see ``_SlotWorld``)
        self._slot = slot

    def send(self, sender, recipient, payload, *, delay_override=None):
        self._replica.send(recipient, (SMR, self._slot, payload))

    def multicast(self, sender, payload, *, include_self=True,
                  delay_override=None):
        self._replica.multicast(
            (SMR, self._slot, payload), include_self=include_self
        )


class _SlotWorld:
    """World proxy seen by one slot's protocol instance.

    Owned by its replica, and holding neither the replica nor the outer
    world strongly, so no reference cycle runs through it.
    """

    #: Outer-world services slot instances share, looked up on demand
    #: (``__getattr__``) so no bound method pins the outer world.
    _SHARED = frozenset({"intern_payload", "shared_memo"})

    def __init__(self, replica: "SmrReplica", slot: int):
        outer = replica.world  # a weak proxy, like every agent's world
        replica = weakref.proxy(replica)
        self._outer = outer
        self.n = outer.n
        self.f = outer.f
        self.sim = outer.sim
        self.start_offsets = outer.start_offsets
        self.registry = _SlotRegistry(outer.registry, replica.signer)
        self.network = _SlotNetwork(replica, slot)
        # Share the outer world's observability mode: under "perf" the
        # slot protocol instances must not pay for transcripts either.
        self.instrumentation = outer.instrumentation
        self._replica = replica
        self._slot = slot

    def __getattr__(self, name: str) -> Any:
        # Share the outer payload interner (equal per-slot vote cores
        # across replicas collapse to one object) and the outer memo
        # registry (slot checkers pool certificate verdicts; the memo
        # keys carry the registry and full checker configuration, so
        # pooling across slots is structurally safe).
        if name in _SlotWorld._SHARED:
            return getattr(self._outer, name)
        raise AttributeError(name)

    def note_commit(
        self, party: PartyId, value: Any = None, time: float | None = None
    ) -> None:
        self._replica._on_slot_commit(self._slot)


class SmrReplica(Party):
    """One replica of the psync-VBB-based SMR."""

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        leader: PartyId,
        state_machine_factory: Callable[[], StateMachine],
        workload: list[Value] | None = None,
        num_slots: int = 1,
        big_delta: float = 1.0,
        protocol_cls: type = PsyncVbb5f1,
    ):
        super().__init__(world, party_id)
        self.leader = leader
        self.state_machine = state_machine_factory()
        self.workload = list(workload or [])
        self.num_slots = num_slots
        self.big_delta = big_delta
        self.protocol_cls = protocol_cls
        self.log: dict[int, Value] = {}
        self.applied_upto = 0  # next slot to apply
        self.commit_times: dict[int, float] = {}
        self.results: list[Any] = []
        self._slots: dict[int, Party] = {}
        #: The world each slot instance sees; the instance holds it
        #: weakly, so the replica keeps it alive.
        self._slot_worlds: dict[int, _SlotWorld] = {}

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def on_start(self) -> None:
        self._open_slot(0)

    def on_message(self, sender: PartyId, payload: Any) -> None:
        if not (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == SMR
        ):
            return
        _, slot, inner = payload
        if not isinstance(slot, int) or not 0 <= slot < self.num_slots:
            return
        if slot not in self._slots:
            self._open_slot(slot)
        self._slots[slot].deliver(sender, inner)

    def _open_slot(self, slot: int) -> None:
        if slot in self._slots or slot >= self.num_slots:
            return
        command = (
            self.workload[slot]
            if self.id == self.leader and slot < len(self.workload)
            else None
        )
        slot_world = self._slot_worlds[slot] = _SlotWorld(self, slot)
        instance = self.protocol_cls(
            slot_world,
            self.id,
            broadcaster=self.leader,
            input_value=command,
            big_delta=self.big_delta,
            fallback_value=("noop", slot),
        )
        self._slots[slot] = instance
        instance.start()

    # ------------------------------------------------------------------ #
    # commit handling
    # ------------------------------------------------------------------ #

    def _on_slot_commit(self, slot: int) -> None:
        instance = self._slots[slot]
        self.log[slot] = instance.committed_value
        self.commit_times[slot] = self.world.sim.now
        self._apply_contiguous()
        self._open_slot(slot + 1)
        if len(self.log) == self.num_slots and not self.has_committed:
            # Mark overall completion via the Party commit plumbing so the
            # harness can measure end-to-end latency.
            self.commit(self.state_machine.snapshot())

    def _apply_contiguous(self) -> None:
        while self.applied_upto in self.log:
            command = self.log[self.applied_upto]
            self.results.append(self.state_machine.apply(command))
            self.applied_upto += 1

    @property
    def committed_log(self) -> list[Value]:
        return [self.log[s] for s in sorted(self.log)]


def smr_factory(
    *,
    leader: PartyId,
    workload: list[Value],
    state_machine_factory: Callable[[], StateMachine],
    big_delta: float = 1.0,
    protocol_cls: type = PsyncVbb5f1,
) -> Callable[[Any, PartyId], SmrReplica]:
    """Party factory for a full SMR deployment."""

    def build(world, pid: PartyId) -> SmrReplica:
        return SmrReplica(
            world,
            pid,
            leader=leader,
            state_machine_factory=state_machine_factory,
            workload=workload,
            num_slots=len(workload),
            big_delta=big_delta,
            protocol_cls=protocol_cls,
        )

    return build

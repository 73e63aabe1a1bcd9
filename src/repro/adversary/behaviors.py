"""Byzantine behaviors.

The paper's adversary corrupts up to ``f`` parties, which may then behave
arbitrarily — but its proof constructions almost always describe corrupted
parties as *"behaving honestly except ..."* (except staying silent toward a
group, except delaying messages, except running the honest protocol with
two different inputs toward two different groups).  We therefore provide,
besides a raw scripted behavior, two structured adversaries:

* :class:`FilteredHonestBehavior` — runs the real protocol code but passes
  every outgoing message through a filter that may drop it, delay it, or
  rewrite it (with the corrupted party's own key);
* :class:`SplitBrainBehavior` — runs *two* instances of the honest protocol
  ("brains"), each talking only to its own partition of the parties; this
  realizes equivocation exactly the way the proofs describe it ("behaves to
  B, C the same way as the broadcaster in Execution 1, and to D, E the same
  way as in Execution 5").

All behaviors hold their party's :class:`~repro.crypto.signatures.Signer`,
so they can sign anything with the corrupted key but can never forge
honest signatures.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.sim.process import Agent, Party
from repro.types import INF, PartyId

#: Decision of a send filter: ``None`` drops the message; otherwise
#: ``(payload, delay)`` where ``delay=None`` defers to the delay policy.
SendDecision = "tuple[Any, float | None] | None"
SendFilter = Callable[[PartyId, Any, float], "tuple[Any, float | None] | None"]


class ByzantineBehavior(Agent):
    """Base class with raw network access for corrupted parties."""

    def __init__(self, world, party_id: PartyId):
        super().__init__(world, party_id)
        self.signer = world.registry.signer_for(party_id)
        #: Honest protocol instances run behind this corrupted id, by
        #: brain key, and the proxy world each one sees.  The brain holds
        #: its world weakly (as every agent does), so the behavior owns
        #: the proxy worlds.
        self._brains: dict[Any, Party] = {}
        self._brain_worlds: dict[Any, _InnerWorld] = {}

    def _add_brain(
        self, key: Any, party_factory: Callable[[Any, PartyId], Party]
    ) -> None:
        inner_world = _InnerWorld(self, key)
        self._brain_worlds[key] = inner_world
        self._brains[key] = party_factory(inner_world, self.id)

    def send_raw(
        self,
        recipient: PartyId,
        payload: Any,
        *,
        delay: float | None = None,
    ) -> None:
        """Send anything to anyone, with an arbitrary chosen delay."""
        self.world.network.send(
            self.id, recipient, payload, delay_override=delay
        )

    def multicast_raw(
        self, payload: Any, *, delay: float | None = None
    ) -> None:
        for recipient in range(self.world.n):
            if recipient != self.id:
                self.send_raw(recipient, payload, delay=delay)


class CrashBehavior(ByzantineBehavior):
    """Crash-at-time / recover-at-time, backed by the fault engine.

    The default construction — ``CrashBehavior(world, pid)`` — is the
    classic weakest adversary: crashed from the start, never sends
    anything (every pre-existing use keeps exactly that semantics).
    The keyword extensions make the crash *timed*:

    * ``at`` / ``recover`` — the party is down during ``[at, recover)``
      (a :class:`~repro.sim.faults.CrashWindow`, the same schedule
      primitive the network-level injector compiles);
    * ``party_factory`` — when given, the party behaves *honestly while
      up*: an inner protocol instance runs behind the crash gate, its
      sends suppressed and its deliveries discarded inside the window.
      A party whose window covers its start offset starts late, at its
      first recovery instant — a rebooted replica joining mid-protocol.
    """

    BRAIN = "only"

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        at: float = 0.0,
        recover: float = INF,
        party_factory: Callable[[Any, PartyId], Party] | None = None,
    ):
        super().__init__(world, party_id)
        from repro.sim.faults import CrashWindow

        self.window = CrashWindow(party_id).add(at, recover)
        if party_factory is not None:
            self._add_brain(self.BRAIN, party_factory)

    def is_down(self, t: float | None = None) -> bool:
        return self.window.is_down(
            self.world.sim.now if t is None else t
        )

    def start(self) -> None:
        brain = self._brains.get(self.BRAIN)
        if brain is None:
            return
        if not self.is_down():
            brain.start()
            self._schedule_recovery_hooks(brain)
            return
        recovery = self.window.next_recovery_after(self.world.sim.now)
        if recovery is not None:
            self.world.sim.schedule_at(
                recovery, brain.start, label=f"crash-recover p{self.id}"
            )

    def _schedule_recovery_hooks(self, brain: Party) -> None:
        """Notify a running brain at each finite recovery instant.

        A brain that started *before* its crash window holds timers
        armed from pre-crash local instants; its timeout multicasts
        fired while down were suppressed by the send gate.  The
        ``on_recover`` hook lets the protocol re-arm / re-announce from
        the recovery instant — without it a recovered view protocol
        stays silent forever.
        """
        hook = getattr(brain, "on_recover", None)
        if hook is None:
            return
        now = self.world.sim.now
        for _, recover in self.window.windows:
            if recover != INF and recover > now:
                self.world.sim.schedule_at(
                    recover, hook, label=f"crash-rejoin p{self.id}"
                )

    def deliver(self, sender: PartyId, payload: Any) -> None:
        brain = self._brains.get(self.BRAIN)
        if brain is None or self.is_down():
            return
        brain.deliver(sender, payload)

    def _filtered_send(
        self, brain_key: Any, recipient: PartyId, payload: Any
    ) -> None:
        if self.is_down():
            return
        self.send_raw(recipient, payload)

    def _self_deliver(self, brain_key: Any, payload: Any) -> None:
        self.world.sim.schedule_after(
            0.0,
            lambda: self.deliver(self.id, payload),
            label=f"crash self-deliver p{self.id}",
        )


def crash_at(
    *,
    at: float,
    recover: float = INF,
    party_factory: Callable[[Any, PartyId], Party] | None = None,
):
    """Behavior factory: every corrupted party crashes at ``at``.

    Matches :data:`repro.sim.runner.BehaviorFactory`.  With a
    ``party_factory`` the corrupted parties run the honest protocol
    until the crash instant (and again after ``recover``, if finite).
    """

    def build(world, pid: PartyId) -> CrashBehavior:
        return CrashBehavior(
            world, pid, at=at, recover=recover, party_factory=party_factory
        )

    return build


class EquivocatingVoterBehavior(ByzantineBehavior):
    """A voter that signs *two different values* per voting round.

    On the broadcaster's proposal it multicasts a vote for the proposed
    value **and** a vote for ``second_value`` — the textbook equivocation
    the quorum trackers' detection path
    (:attr:`repro.protocols.quorum.QuorumTracker.equivocators`) exists to
    expose.  Honest 2-round-BRB parties tally both votes (per-value
    buckets are independent), flag the signer, and still commit: with at
    most ``f`` equivocators the real value gathers its ``n - f`` quorum
    while the decoy tops out at ``f < n - f`` supporters.

    ``make_votes(signer, value)`` builds the two vote messages; the
    default speaks the 2-round-BRB wire format.  Supply a different
    builder to aim the same behavior at another vote-collecting protocol.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        broadcaster: PartyId,
        second_value: Any = "equivocation",
        make_votes: "Callable[[Any, Any], list[Any]] | None" = None,
    ):
        super().__init__(world, party_id)
        self.broadcaster = broadcaster
        self.second_value = second_value
        self._make_votes = make_votes
        self._voted = False

    def _default_votes(self, value: Any) -> list[Any]:
        from repro.protocols.brb_2round import Brb2Round

        return [
            Brb2Round.make_vote(self.signer, value),
            Brb2Round.make_vote(self.signer, self.second_value),
        ]

    def deliver(self, sender: PartyId, payload: Any) -> None:
        from repro.protocols.brb_2round import PROPOSE

        if self._voted or sender != self.broadcaster:
            return
        if not (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == PROPOSE
        ):
            return
        self._voted = True
        votes = (
            self._make_votes(self.signer, payload[1])
            if self._make_votes is not None
            else self._default_votes(payload[1])
        )
        for vote in votes:
            self.multicast_raw(vote)


def equivocate_votes(
    *,
    broadcaster: PartyId,
    second_value: Any = "equivocation",
    make_votes: "Callable[[Any, Any], list[Any]] | None" = None,
):
    """Behavior factory: every corrupted party double-votes per round.

    Matches :data:`repro.sim.runner.BehaviorFactory`; pass as
    ``behavior_factory`` to :func:`repro.sim.runner.run_broadcast` with
    the corrupted ids in ``byzantine``.
    """

    def build(world, pid: PartyId) -> EquivocatingVoterBehavior:
        return EquivocatingVoterBehavior(
            world,
            pid,
            broadcaster=broadcaster,
            second_value=second_value,
            make_votes=make_votes,
        )

    return build


def crash_and_equivocate(
    *,
    broadcaster: PartyId,
    crashers: frozenset[PartyId] = frozenset(),
    crash_time: float = 0.0,
    recover: float = INF,
    second_value: Any = "equivocation",
    make_votes: "Callable[[Any, Any], list[Any]] | None" = None,
):
    """Mixed adversary: ``crashers`` crash, the rest equivocate.

    One behavior factory covering both fault flavors the sweeps mix —
    corrupted ids in ``crashers`` get a timed :class:`CrashBehavior`
    (down from ``crash_time``), every other corrupted id double-votes
    like :func:`equivocate_votes`.  Used by
    :func:`repro.analysis.sweeps.sweep_equivocating_voters` when its
    ``crashers`` knob is nonzero.
    """

    def build(world, pid: PartyId) -> ByzantineBehavior:
        if pid in crashers:
            return CrashBehavior(
                world, pid, at=crash_time, recover=recover
            )
        return EquivocatingVoterBehavior(
            world,
            pid,
            broadcaster=broadcaster,
            second_value=second_value,
            make_votes=make_votes,
        )

    return build


class ForgedVoteQuorumBehavior(ByzantineBehavior):
    """Multicasts a structurally perfect vote quorum with forged signatures.

    On the broadcaster's proposal, this behavior fabricates a full
    ``n - f`` vote quorum for ``forged_value`` — every vote claims an
    *honest* signer and carries the correct payload digest, but none of
    the signatures was ever issued, so each fails verification.  The
    batch is the sharpest probe of the deferred-verify vote path: it is
    uniform and crosses the threshold at the staging step, so a receiver
    that committed the staged tally *before* paying for signatures would
    commit the forged value and violate agreement.  Correct receivers
    batch-verify at the crossing, reject, and fall back to the scalar
    loop, which drops every forged vote — leaving their tallies exactly
    as the eager path would.

    ``mixed=True`` sends a two-value batch instead: the uniform-run gate
    rejects it outright and the scalar loop does all the work, pinning
    that both rejection routes end in the same state.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        broadcaster: PartyId,
        forged_value: Any = "forged",
        mixed: bool = False,
    ):
        super().__init__(world, party_id)
        self.broadcaster = broadcaster
        self.forged_value = forged_value
        self.mixed = mixed
        self._sent = False

    def _forged_vote(self, claimed_signer: PartyId, value: Any):
        from repro.crypto.messages import digest
        from repro.crypto.signatures import Signature, SignedPayload
        from repro.protocols.brb_2round import VOTE

        body = (VOTE, value)
        return SignedPayload(body, Signature(claimed_signer, digest(body)))

    def deliver(self, sender: PartyId, payload: Any) -> None:
        from repro.protocols.brb_2round import PROPOSE, VOTE_QUORUM

        if self._sent or sender != self.broadcaster:
            return
        if not (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == PROPOSE
        ):
            return
        self._sent = True
        world = self.world
        quorum = world.n - world.f
        honest = [p for p in range(world.n) if p not in world.byzantine]
        votes = [
            self._forged_vote(p, self.forged_value)
            for p in honest[:quorum]
        ]
        if self.mixed:
            votes[-1] = self._forged_vote(honest[quorum - 1], "decoy")
        self.multicast_raw((VOTE_QUORUM, tuple(votes)))


def forge_vote_quorum(
    *,
    broadcaster: PartyId,
    forged_value: Any = "forged",
    mixed: bool = False,
):
    """Behavior factory: every corrupted party sends one forged quorum."""

    def build(world, pid: PartyId) -> ForgedVoteQuorumBehavior:
        return ForgedVoteQuorumBehavior(
            world,
            pid,
            broadcaster=broadcaster,
            forged_value=forged_value,
            mixed=mixed,
        )

    return build


@dataclass
class ScriptStep:
    """One pre-planned send: at global ``time``, ``payload`` to ``recipient``."""

    time: float
    recipient: PartyId
    payload: Any
    delay: float | None = None


class ScriptedBehavior(ByzantineBehavior):
    """Plays back an explicit list of sends; ignores everything received.

    ``script_builder`` receives the behavior (for access to its signer) and
    returns the steps, allowing scripts that need to sign payloads.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        script_builder: Callable[["ScriptedBehavior"], list[ScriptStep]],
    ):
        super().__init__(world, party_id)
        self._script_builder = script_builder

    def start(self) -> None:
        for step in self._script_builder(self):
            self.world.sim.schedule_at(
                max(step.time, self.world.sim.now),
                lambda s=step: self.send_raw(
                    s.recipient, s.payload, delay=s.delay
                ),
                label=f"script p{self.id}",
            )


class _SharedSignerRegistry:
    """Registry proxy that hands the same signer to every inner party.

    Needed because the real registry issues exactly one signer per party,
    while a split-brain behavior instantiates the protocol class several
    times for the same corrupted id.
    """

    def __init__(self, real_registry, signer):
        self._real = real_registry
        self._signer = signer

    def signer_for(self, party: PartyId):
        if party != self._signer.party:
            raise ValueError(
                f"inner party {party} asked for a signer it does not own"
            )
        return self._signer

    def verify(self, signed) -> bool:
        return self._real.verify(signed)

    def require_valid(self, signed):
        return self._real.require_valid(signed)

    def verify_all(self, items) -> bool:
        return self._real.verify_all(items)

    def verify_batch(self, items) -> bool:
        return self._real.verify_batch(items)


class _InterceptingNetwork:
    """Network proxy that routes an inner party's sends through a filter."""

    def __init__(self, behavior: "FilteredHonestBehavior", brain_key: Any):
        # Weak: the behavior owns this network (through the inner world).
        self._behavior = weakref.proxy(behavior)
        self._brain_key = brain_key

    def send(
        self,
        sender: PartyId,
        recipient: PartyId,
        payload: Any,
        *,
        delay_override: float | None = None,
    ) -> None:
        self._behavior._filtered_send(self._brain_key, recipient, payload)

    def multicast(
        self,
        sender: PartyId,
        payload: Any,
        *,
        include_self: bool = True,
        delay_override: float | None = None,
    ) -> None:
        for recipient in range(self._behavior.world.n):
            if recipient == sender:
                continue
            self._behavior._filtered_send(self._brain_key, recipient, payload)
        if include_self:
            self._behavior._self_deliver(self._brain_key, payload)


class _InnerWorld:
    """World proxy seen by an inner (honestly-behaving) party instance.

    Owned by its behavior, and holding neither the behavior nor the outer
    world strongly, so no reference cycle runs through it.
    """

    #: Outer-world services the inner party shares, looked up on demand
    #: (``__getattr__``) so no bound method pins the outer world.
    _SHARED = frozenset({"intern_payload", "shared_memo"})

    def __init__(self, behavior, brain_key):
        outer = behavior.world  # a weak proxy, like every agent's world
        self._outer = outer
        self.n = outer.n
        self.f = outer.f
        self.sim = outer.sim
        self.start_offsets = outer.start_offsets
        self.registry = _SharedSignerRegistry(outer.registry, behavior.signer)
        self.network = _InterceptingNetwork(behavior, brain_key)
        # Share the outer world's observability mode: under "perf" the
        # inner brain must not pay for transcripts either.
        self.instrumentation = outer.instrumentation

    def __getattr__(self, name: str) -> Any:
        # Share the outer payload interner so the brain's vote/echo cores
        # coincide with the honest parties' (identity-cache hits), and the
        # outer memo registry so e.g. the brain's certificate checker
        # pools verdicts with the honest parties' (the memo keys carry
        # the registry and full checker configuration, so pooling across
        # differently-configured users is structurally safe).
        if name in _InnerWorld._SHARED:
            return getattr(self._outer, name)
        raise AttributeError(name)

    def note_commit(
        self, party: PartyId, value: Any = None, time: float | None = None
    ) -> None:
        """Inner commits are the adversary's business, not the harness's."""


class FilteredHonestBehavior(ByzantineBehavior):
    """Runs the honest protocol, filtering every outgoing message.

    ``party_factory`` builds the protocol instance (it receives the proxy
    world and the corrupted id).  ``send_filter(recipient, payload, now)``
    returns ``None`` to drop, or ``(payload, delay)`` — ``delay=None``
    defers to the world's delay policy, any float (or ``INF``) overrides
    it, which is legal because this party is Byzantine.
    """

    BRAIN = "only"

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        party_factory: Callable[[Any, PartyId], Party],
        send_filter: SendFilter,
    ):
        super().__init__(world, party_id)
        self._send_filter = send_filter
        self._add_brain(self.BRAIN, party_factory)

    def start(self) -> None:
        for brain in self._brains.values():
            brain.start()

    def deliver(self, sender: PartyId, payload: Any) -> None:
        self._route(sender, payload)

    def _route(self, sender: PartyId, payload: Any) -> None:
        self._brains[self.BRAIN].deliver(sender, payload)

    def _filtered_send(
        self, brain_key: Any, recipient: PartyId, payload: Any
    ) -> None:
        decision = self._send_filter(recipient, payload, self.world.sim.now)
        if decision is None:
            return
        new_payload, delay = decision
        if delay == INF:
            return
        self.send_raw(recipient, new_payload, delay=delay)

    def _self_deliver(self, brain_key: Any, payload: Any) -> None:
        self.world.sim.schedule_after(
            0.0,
            lambda: self._brains[brain_key].deliver(self.id, payload),
            label=f"byz self-deliver p{self.id}",
        )


def pass_all(recipient: PartyId, payload: Any, now: float):
    """Send filter that changes nothing (honest-equivalent behavior)."""
    return payload, None


def silent_toward(group: frozenset[PartyId]) -> SendFilter:
    """Filter realizing "sends no messages to parties in ``group``"."""

    def decide(recipient: PartyId, payload: Any, now: float):
        if recipient in group:
            return None
        return payload, None

    return decide


def fixed_delay_toward(
    delays: dict[PartyId, float], *, default: float | None = None
) -> SendFilter:
    """Filter realizing "pretends its delay to party p is delays[p]"."""

    def decide(recipient: PartyId, payload: Any, now: float):
        return payload, delays.get(recipient, default)

    return decide


class SplitBrainBehavior(FilteredHonestBehavior):
    """Equivocation via two honest protocol instances over a partition.

    ``brain_factories`` maps a brain key to a party factory; ``membership``
    maps each party id to the brain key whose messages it should see (and
    whose inbox receives that party's messages).  Parties mapped to ``None``
    receive nothing at all from this Byzantine party.
    """

    def __init__(
        self,
        world,
        party_id: PartyId,
        *,
        brain_factories: dict[Any, Callable[[Any, PartyId], Party]],
        membership: Callable[[PartyId], Any],
        send_filter: SendFilter = pass_all,
    ):
        ByzantineBehavior.__init__(self, world, party_id)
        self._send_filter = send_filter
        self._membership = membership
        for key, factory in brain_factories.items():
            self._add_brain(key, factory)

    def start(self) -> None:
        for brain in self._brains.values():
            brain.start()

    def _route(self, sender: PartyId, payload: Any) -> None:
        key = self._membership(sender)
        if key is None:
            return
        self._brains[key].deliver(sender, payload)

    def _filtered_send(
        self, brain_key: Any, recipient: PartyId, payload: Any
    ) -> None:
        if self._membership(recipient) != brain_key:
            return
        super()._filtered_send(brain_key, recipient, payload)

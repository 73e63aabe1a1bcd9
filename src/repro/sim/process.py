"""Party runtime: the base classes protocols and adversaries extend.

:class:`Agent` is the minimal interface the world knows about (start +
deliver).  :class:`Party` adds everything an *honest* protocol participant
needs: a local clock, signing, timers in local time, commit/terminate
bookkeeping and transcript recording.  Asynchronous-round latency is
computed post-hoc by :class:`~repro.sim.rounds.RoundAccountant`; a party
only records the atomic step at which it committed.
"""
from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.sim.clock import LocalClock
from repro.sim.events import Event
from repro.sim.transcript import Transcript
from repro.types import PartyId, Value

if TYPE_CHECKING:
    from repro.protocols.quorum import QuorumTracker
    from repro.sim.runner import World


class Agent:
    """Anything attached to the network: honest party or Byzantine shell."""

    def __init__(self, world: "World", party_id: PartyId):
        # A weak proxy: the world owns its agents (``agents``, the
        # network's inboxes), so a strong back-reference would turn every
        # finished world into cyclic garbage only the cyclic collector
        # frees.  Whoever builds a proxy world for an inner party (an
        # adversary brain, an SMR slot) must keep that world alive.
        self.world = (
            world if isinstance(world, weakref.ProxyTypes)
            else weakref.proxy(world)
        )
        self.id = party_id

    def start(self) -> None:
        """Called once, at the agent's start offset."""

    def deliver(self, sender: PartyId, payload: Any) -> None:
        """Called by the network on message arrival."""


class Party(Agent):
    """Base class for honest protocol participants."""

    def __init__(self, world: "World", party_id: PartyId):
        super().__init__(world, party_id)
        self.n = world.n
        self.f = world.f
        self.clock = LocalClock(world.start_offsets[party_id])
        self.signer = world.registry.signer_for(party_id)
        self.registry = world.registry
        # The world's instrumentation decides whether this party keeps a
        # transcript; ``None`` strips recording from the delivery hot path.
        # All in-tree worlds — including the proxy worlds for adversary
        # brains and SMR slots — expose the bundle; the getattr fallback
        # keeps out-of-tree world stand-ins on the always-on transcript.
        instrumentation = getattr(world, "instrumentation", None)
        self.transcript: Transcript | None = (
            instrumentation.transcript_for(party_id)
            if instrumentation is not None
            else Transcript(party_id)
        )
        self.committed_value: Value | None = None
        self.has_committed = False
        self.commit_global_time: float | None = None
        self.commit_local_time: float | None = None
        self.commit_step: int | None = None
        #: The protocol view in which this party committed (``None`` for
        #: protocols without view machinery, or before commit).
        self.commit_view: int | None = None
        self.terminated = False
        self._timers: list[Event] = []

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        if self.transcript is not None:
            self.transcript.record_start(0.0)
        self.on_start()

    def deliver(self, sender: PartyId, payload: Any) -> None:
        if self.transcript is not None:
            self.transcript.record_recv(self.local_time(), sender, payload)
        if self.terminated:
            return
        self.on_message(sender, payload)

    def on_start(self) -> None:
        """Protocol hook: runs at local time 0."""

    def on_message(self, sender: PartyId, payload: Any) -> None:
        """Protocol hook: runs on every delivered message until terminated."""

    def on_recover(self) -> None:
        """Protocol hook: the party just came back from a crash window.

        Called by crash behaviors at each finite recovery instant.  View
        protocols override this to re-arm their view timer from the
        *current* simulated time (and re-announce a timeout whose
        multicast the crash suppressed); the base class — and every
        fixed-round protocol — has nothing to restore.
        """

    def on_votes_batch(self, value, signers, payloads) -> bool:
        """Opt-in vectorized vote path: absorb one same-value vote run.

        Called by protocol message handlers that just unpacked a
        multi-vote message (a forwarded vote quorum, a witness batch)
        whose items all vote for ``value``.  A protocol opts in by
        overriding this with a :meth:`absorb_vote_batch`-based
        implementation; returning ``True`` claims the run (the caller
        must not also feed the votes through its scalar path), ``False``
        sends the caller to its eager per-vote loop.  The base class
        never claims a run, so protocols that never opt in keep their
        scalar semantics untouched.
        """
        return False

    def absorb_vote_batch(
        self, tracker, value, signers, payloads, *, threshold
    ) -> int | None:
        """The deferred-verify batch engine behind :meth:`on_votes_batch`.

        Stages the whole run on ``tracker`` (one acceptance pass, no
        mutation), and only if the batch itself crosses ``threshold``
        pays for signatures — one :meth:`KeyRegistry.verify_batch` over
        the run instead of one ``verify`` per vote.  On success the
        staged batch is committed and the *crossing* signer mask is
        returned (exactly the mask the scalar path sees at its
        ``add(...) == threshold`` call, for byte-identical
        quorum-forward payloads).  Returns ``None`` — with the tracker
        untouched — when the batch does not cross or any signature
        fails; the caller then replays its eager per-vote path, which
        reproduces the scalar semantics (including which forged vote is
        dropped and which equivocators are flagged) by construction.
        """
        staged = tracker.stage_batch(
            value, list(zip(signers, payloads)), threshold=threshold
        )
        if not staged.crossed:
            return None
        if not self.registry.verify_batch(payloads):
            return None
        tracker.commit_staged(staged)
        return staged.crossing_mask

    # ------------------------------------------------------------------ #
    # services
    # ------------------------------------------------------------------ #

    def local_time(self) -> float:
        return self.clock.local_time(self.world.sim.now)

    def send(self, recipient: PartyId, payload: Any) -> None:
        self.world.network.send(self.id, recipient, payload)

    def multicast(self, payload: Any, *, include_self: bool = True) -> None:
        self.world.network.multicast(
            self.id, payload, include_self=include_self
        )

    def sign(self, payload: Any):
        return self.signer.sign(payload)

    def shared_payload(self, payload: Any) -> Any:
        """World-interned instance of an immutable message payload.

        Protocol steps where every party builds the same small tuple (a
        vote body, an echo) route it through here so all n parties hold
        *one* object and the identity-keyed caches do the rest.  Worlds
        without an interner (out-of-tree stand-ins) just echo the value.
        """
        intern = getattr(self.world, "intern_payload", None)
        return payload if intern is None else intern(payload)

    def quorum_tracker(
        self,
        namespace: str | None = None,
        *,
        first_vote_only: bool = False,
        detect_equivocation: bool = False,
        shared_entries: bool = False,
    ) -> "QuorumTracker":
        """A :class:`~repro.protocols.quorum.QuorumTracker` for this party.

        The tracker is enrolled with the world's instrumentation bundle
        (so its tallies roll up into ``RunResult.quorum_checks`` /
        ``equivocations_detected``).  Passing a ``namespace`` additionally
        attaches a world-scoped memo for :meth:`QuorumTracker.
        quorum_payload`, letting every party of the protocol step named
        by the namespace share one quorum-forward message object per
        ``(value, signer-set)`` — all parties of one world and step must
        use the same namespace (and adversary brains sharing the outer
        world's memos join the same pool, intentionally: their signatures
        are as deterministic as honest ones).

        ``shared_entries=True`` (requires a ``namespace``) additionally
        backs the tracker's payload buckets with a world-scoped entry
        store (:meth:`repro.sim.runner.World.shared_entry_store`) — one
        copy of each accepted vote per world instead of per party.  Only
        opt in for steps whose entry reads are mask-derived views
        (``quorum_payload`` / ``sorted_entries``): the store trades the
        per-tracker arrival order of ``entries()`` / ``entry_pairs()``
        for signer-ascending order.
        """
        from repro.protocols.quorum import QuorumTracker

        world = self.world
        shared = None
        store = None
        if namespace is not None:
            shared_memo = getattr(world, "shared_memo", None)
            if shared_memo is not None:
                shared = shared_memo(f"quorum::{namespace}")
            if shared_entries:
                entry_store = getattr(world, "shared_entry_store", None)
                if entry_store is not None:
                    store = entry_store(f"quorum-entries::{namespace}")
        tracker = QuorumTracker(
            first_vote_only=first_vote_only,
            detect_equivocation=detect_equivocation,
            shared_memo=shared,
            entry_store=store,
        )
        instrumentation = getattr(world, "instrumentation", None)
        if instrumentation is not None:
            register = getattr(
                instrumentation, "register_quorum_tracker", None
            )
            if register is not None:
                register(tracker)
        return tracker

    def verify(self, signed) -> bool:
        return self.registry.verify(signed)

    def note_view(self, view: int) -> None:
        """Report a view entry to any attached view-progress monitors.

        Worlds without the hook (out-of-tree stand-ins) are a no-op, so
        protocols can call this unconditionally from ``_enter_view``.
        """
        note = getattr(self.world, "note_view_change", None)
        if note is not None:
            note(self.id, view, self.world.sim.now)

    def at_local_time(
        self,
        local_time: float,
        action: Callable[[], None],
        *,
        priority: int = 1,
    ) -> Event:
        """Run ``action`` when the local clock reads ``local_time``.

        If that instant is already past, runs at the current instant (the
        protocols use this for "check condition X at/after time t" steps).

        Timers default to priority 1 so that a message delivery scheduled
        for the same instant is processed first: a message arriving
        exactly at a protocol deadline counts as arriving *within* the
        window the deadline closes, matching the closed time intervals in
        the paper's protocol descriptions ("within time t", "until local
        time t").
        """
        target = self.clock.global_time(local_time)
        target = max(target, self.world.sim.now)
        event = self.world.sim.schedule_at(
            target,
            self._guarded(action),
            priority=priority,
            label=f"p{self.id} timer@{local_time}",
        )
        self._timers.append(event)
        return event

    def after_local_delay(self, delay: float, action: Callable[[], None]) -> Event:
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        return self.at_local_time(self.local_time() + delay, action)

    def _guarded(self, action: Callable[[], None]) -> Callable[[], None]:
        def run() -> None:
            if not self.terminated:
                action()

        return run

    # ------------------------------------------------------------------ #
    # outcomes
    # ------------------------------------------------------------------ #

    def commit(self, value: Value) -> None:
        """Record this party's (first) commit.  Later commits are ignored.

        The harness checks agreement/validity over recorded commits; a
        party attempting to commit twice with a *different* value is a
        protocol bug — we keep the first value and surface the attempt
        through :meth:`World.note_commit_conflict` so an attached
        integrity monitor can flag it (pre-monitor behaviour: silently
        ignored, which is still what happens with no monitors).
        """
        if self.has_committed:
            if value != self.committed_value:
                conflict = getattr(self.world, "note_commit_conflict", None)
                if conflict is not None:
                    conflict(
                        self.id,
                        self.committed_value,
                        value,
                        self.world.sim.now,
                    )
            return
        self.has_committed = True
        self.committed_value = value
        self.commit_global_time = self.world.sim.now
        self.commit_local_time = self.local_time()
        self.commit_view = getattr(self, "current_view", None)
        accountant = getattr(self.world, "accountant", None)
        if accountant is not None:
            step = accountant.current_step
            if step is None:
                step = accountant.last_step_index()
            self.commit_step = step
        if self.transcript is not None:
            self.transcript.record_commit(self.local_time(), value)
        self.world.note_commit(self.id, value, self.commit_global_time)

    def terminate(self) -> None:
        """Stop reacting to messages and cancel pending timers."""
        if self.terminated:
            return
        self.terminated = True
        for event in self._timers:
            event.cancel()
        self._timers.clear()

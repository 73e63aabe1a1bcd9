"""Deterministic discrete-event simulation substrate."""
from repro.sim.clock import LocalClock, skewed_offsets
from repro.sim.delays import (
    DelayPolicy,
    FixedDelay,
    FunctionDelay,
    GstDelay,
    PerLinkDelay,
    UniformDelay,
)
from repro.sim.events import Event, EventQueue
from repro.sim.instrumentation import (
    Instrumentation,
    full_instrumentation,
    perf_instrumentation,
    resolve_instrumentation,
    rounds_instrumentation,
)
from repro.sim.network import Envelope, Network
from repro.sim.process import Agent, Party
from repro.sim.runner import RunResult, World, run_broadcast
from repro.sim.scheduler import Simulator
from repro.sim.transcript import (
    Transcript,
    TranscriptEntry,
    first_divergence,
    indistinguishable,
)

__all__ = [
    "Agent",
    "DelayPolicy",
    "Envelope",
    "Event",
    "EventQueue",
    "FixedDelay",
    "FunctionDelay",
    "GstDelay",
    "Instrumentation",
    "LocalClock",
    "Network",
    "Party",
    "PerLinkDelay",
    "RunResult",
    "Simulator",
    "Transcript",
    "TranscriptEntry",
    "UniformDelay",
    "World",
    "first_divergence",
    "full_instrumentation",
    "indistinguishable",
    "perf_instrumentation",
    "resolve_instrumentation",
    "rounds_instrumentation",
    "run_broadcast",
    "skewed_offsets",
]

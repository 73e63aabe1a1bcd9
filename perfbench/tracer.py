"""Span tracer for the benchmark's traced run, installed from outside.

Nothing under ``src/`` knows about it: :meth:`Tracer.install` replaces the
entry points listed in :data:`LAYER_WRAPS` (methods on ``repro`` classes
and their subclasses, and ``repro`` module functions wherever a module
holds a reference to them) with timing wrappers, and
:meth:`Tracer.uninstall` puts every original back.

Each wrapper call records one span: layer, start, end and the index of
the enclosing span.  Spans live in flat :mod:`array` buffers, which the
cyclic GC does not scan, so a run with millions of spans does not slow
the collector it is measuring.  Collector passes are spans too
(``gc.callbacks``), so GC time is subtracted from whatever layer was
running when the collector started.

A layer's self time is the summed duration of its spans minus the part
covered by their direct children (:meth:`Tracer.self_times`).  Because
every span lies inside the root span opened by :meth:`Tracer.root`, the
self times of all layers, ``harness`` (the root's own time) included,
add up to the root span's duration.

Counts are layer *entries*: a wrapped call made while another span of
the same layer is open (``KeyRegistry.require_valid`` calling
``verify``, a subclass ``deliver`` calling ``super().deliver``) adds
time to the layer but does not count again.
"""
from __future__ import annotations

import gc
import importlib
import inspect
import pkgutil
import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from types import FunctionType

#: Layer of the root span: the benchmark's own code, plus ``repro``
#: glue no wrapper covers (``repro.analysis`` helpers).
HARNESS = "harness"
#: Layer of collector passes reported through ``gc.callbacks``.
GC = "gc"


@dataclass(frozen=True)
class Wrap:
    """Entry points of one layer on one target.

    ``target`` is ``"module:Class"`` (the class and every loaded
    subclass that defines one of ``names`` itself) or ``"module"``
    (module-level functions, rebound in every ``repro`` module that
    imported them by name).  ``kind`` is ``"span"`` for a plain span,
    ``"timer"`` for a factory whose *returned* callable is the traced
    entry point (a protocol timer fires long after it is armed), and
    ``"collect"`` for a span whose return value is kept in
    :attr:`Tracer.returned`.
    """

    layer: str
    target: str
    names: tuple[str, ...]
    kind: str = "span"


#: The World calls that count as set-up: ``setup_s`` sums their time.
SETUP_NAMES = ("World.__init__", "World.populate")

#: Set-up timing and result capture only; the untimed-layer run uses it.
SETUP_WRAPS = (
    Wrap("runner", "repro.sim.runner:World", ("__init__", "populate")),
    Wrap("runner", "repro.sim.runner:World", ("run",), kind="collect"),
)

#: Every layer's entry points, grouped by the ``repro`` modules they live
#: in.  Private names are listed where they are the call the kernel makes
#: into a layer (``Network._deliver`` is the action of a delivery event).
LAYER_WRAPS = SETUP_WRAPS + (
    Wrap("runner", "repro.sim.runner:World", ("result",)),
    Wrap("kernel", "repro.sim.scheduler:Simulator",
         ("run", "schedule_at", "schedule_batch", "schedule_after")),
    Wrap("network", "repro.sim.network:Network",
         ("send", "multicast", "_deliver", "_deliver_many",
          "_deliver_tracked")),
    Wrap("delays", "repro.sim.delays:DelayPolicy",
         ("delay", "delays_for_multicast")),
    Wrap("faults", "repro.sim.faults:FaultInjector",
         ("route", "block_send", "block_delivery", "party_down")),
    Wrap("crypto", "repro.crypto.signatures:Signer", ("sign",)),
    Wrap("crypto", "repro.crypto.signatures:KeyRegistry",
         ("verify", "verify_batch", "verify_all", "require_valid")),
    Wrap("crypto", "repro.crypto.messages",
         ("digest", "digest_ex", "stable_digest", "canonical_encode",
          "intern_key")),
    Wrap("quorum", "repro.protocols.quorum:QuorumTracker",
         ("add", "add_batch", "stage_batch", "commit_staged",
          "quorum_payload")),
    Wrap("protocol", "repro.sim.process:Agent", ("start", "deliver")),
    Wrap("protocol", "repro.sim.process:Party", ("_guarded",),
         kind="timer"),
    Wrap("observers", "repro.sim.instrumentation:Instrumentation",
         ("note_commit", "note_commit_conflict", "note_view_change",
          "transcript_for", "register_quorum_tracker", "attach_monitor")),
    Wrap("observers", "repro.sim.rounds:RoundAccountant",
         ("begin_start_step", "begin_delivery_step", "end_step",
          "register_send", "step_rounds", "round_of_step")),
    Wrap("observers", "repro.sim.transcript:Transcript",
         ("record_start", "record_recv", "record_commit")),
    Wrap("observers", "repro.sim.invariants:InvariantMonitor",
         ("bind", "on_commit", "on_commit_conflict", "on_view",
          "finalize")),
    Wrap("shard", "repro.sim.coordinator", ("run_sharded",)),
)


def import_all_repro() -> None:
    """Import every ``repro`` module, so every subclass can be wrapped
    (a protocol first imported after :meth:`Tracer.install` would run
    with its own overrides untraced)."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):  # that one runs the CLI
            importlib.import_module(info.name)


def _subclasses(cls: type) -> list[type]:
    seen = [cls]
    for sub in cls.__subclasses__():
        for found in _subclasses(sub):
            if found not in seen:
                seen.append(found)
    return seen


class Tracer:
    """Records spans and entry counts for the wrapped ``repro`` calls."""

    def __init__(self) -> None:
        self.layers: list[str] = [HARNESS, GC]
        self._layer_ids = {HARNESS: 0, GC: 1}
        #: One element per span, index-aligned.
        self.starts = array("d")
        self.ends = array("d")
        self.span_layer = array("i")
        self.parents = array("q")
        #: ``"Class.name"`` / ``"module.func"`` -> layer entries.
        self.counts: dict[str, int] = {}
        #: Per-key summed duration of entry spans, minus the collector
        #: passes inside them (nested same-layer calls are inside their
        #: entry span and not added again).
        self.inclusive: dict[str, float] = {}
        #: Layer of each count key.
        self.key_layer: dict[str, str] = {}
        #: Return values of ``"collect"`` wraps, per key.
        self.returned: dict[str, list] = {}
        self.gc_collections = 0
        #: Summed duration of the collector passes seen so far.
        self._gc_seconds = [0.0]
        self._stack: list[int] = []
        self._open_layers: list[int] = [-1]
        self._restore: list[tuple] = []
        self._gc_span = -1

    # ------------------------------------------------------------------ #
    # span recording
    # ------------------------------------------------------------------ #

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _traced(self, fn, layer: str, key: str, collect: bool = False):
        layer_id = self._layer_id(layer)
        self.counts.setdefault(key, 0)
        self.inclusive.setdefault(key, 0.0)
        self.key_layer[key] = layer
        sink = self.returned.setdefault(key, []) if collect else None
        counts, inclusive = self.counts, self.inclusive
        stack, open_layers = self._stack, self._open_layers
        starts, ends = self.starts, self.ends
        add_start, add_end = starts.append, ends.append
        add_layer, add_parent = self.span_layer.append, self.parents.append
        gc_seconds = self._gc_seconds
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            entry = open_layers[-1] != layer_id
            gc_before = gc_seconds[0]
            add_end(0.0)
            index = len(ends) - 1
            add_parent(stack[-1] if stack else -1)
            add_layer(layer_id)
            stack.append(index)
            open_layers.append(layer_id)
            add_start(clock())
            try:
                value = fn(*args, **kwargs)
                if sink is not None:
                    sink.append(value)
                return value
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                open_layers.pop()
                if entry:
                    counts[key] += 1
                    inclusive[key] += (
                        end - starts[index] - (gc_seconds[0] - gc_before)
                    )

        return traced

    def _timer_factory(self, factory, layer: str, key: str):
        """Wrap a factory so the callable it returns is traced."""
        tracer = self

        @wraps(factory)
        def arm(*args, **kwargs):
            return tracer._traced(factory(*args, **kwargs), layer, key)

        return arm

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.ends.append(0.0)
            self._gc_span = len(self.ends) - 1
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.span_layer.append(1)
            self.starts.append(time.perf_counter())
        elif self._gc_span >= 0:
            end = time.perf_counter()
            self.ends[self._gc_span] = end
            self._gc_seconds[0] += end - self.starts[self._gc_span]
            self._gc_span = -1
            self.gc_collections += 1

    @contextmanager
    def root(self):
        """The root span (layer ``harness``), with GC spans recorded.

        Yields a one-element list that receives the root's duration as
        read by the clock outside the span bookkeeping.
        """
        wall = [0.0]
        self.ends.append(0.0)
        index = len(self.ends) - 1
        self.parents.append(-1)
        self.span_layer.append(0)
        self._stack.append(index)
        self._open_layers.append(0)
        gc.callbacks.append(self._on_gc)
        begin = time.perf_counter()
        self.starts.append(begin)
        try:
            yield wall
        finally:
            end = time.perf_counter()
            self.ends[index] = end
            gc.callbacks.remove(self._on_gc)
            self._stack.pop()
            self._open_layers.pop()
            wall[0] = end - begin

    # ------------------------------------------------------------------ #
    # install / uninstall
    # ------------------------------------------------------------------ #

    def install(self, wraps_table=LAYER_WRAPS) -> "Tracer":
        """Replace every listed entry point with its traced wrapper."""
        for spec in wraps_table:
            module_name, _, class_name = spec.target.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                for cls in _subclasses(getattr(module, class_name)):
                    for name in spec.names:
                        self._wrap_method(cls, name, spec)
            else:
                for name in spec.names:
                    self._wrap_function(module, name, spec)
        return self

    def _wrap_method(self, cls: type, name: str, spec: Wrap) -> None:
        fn = cls.__dict__.get(name)
        if not isinstance(fn, FunctionType) or inspect.isgeneratorfunction(
            fn
        ):
            return
        key = f"{cls.__name__}.{name}"
        if spec.kind == "timer":
            wrapper = self._timer_factory(fn, spec.layer, key)
        else:
            wrapper = self._traced(
                fn, spec.layer, key, collect=spec.kind == "collect"
            )
        setattr(cls, name, wrapper)
        self._restore.append((cls, name, fn))

    def _wrap_function(self, module, name: str, spec: Wrap) -> None:
        fn = getattr(module, name)
        wrapper = self._traced(fn, spec.layer, f"{module.__name__}.{name}")
        for holder in list(sys.modules.values()):
            if not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    setattr(holder, attr, wrapper)
                    self._restore.append((holder, attr, fn))

    def uninstall(self) -> None:
        """Put every original back, newest wrapper first."""
        while self._restore:
            holder, name, original = self._restore.pop()
            setattr(holder, name, original)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: span durations minus direct children."""
        child = array("d", bytes(8 * len(self.ends)))
        starts, ends = self.starts, self.ends
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        totals = [0.0] * len(self.layers)
        for index, layer in enumerate(self.span_layer):
            totals[layer] += ends[index] - starts[index] - child[index]
        return dict(zip(self.layers, totals))

    def count(self, *keys: str) -> int:
        return sum(self.counts.get(key, 0) for key in keys)

    def count_named(self, name: str) -> int:
        """Entries into ``name`` on every class that defines it."""
        return sum(
            count for key, count in self.counts.items()
            if key.rpartition(".")[2] == name
        )

    def layer_count(self, layer: str) -> int:
        """Entries into ``layer`` across all of its wrapped calls."""
        return sum(
            count for key, count in self.counts.items()
            if self.key_layer[key] == layer
        )

    def setup_seconds(self) -> float:
        """Summed time inside ``World(...)`` and ``World.populate``,
        without the collector passes that happened to start there."""
        return sum(self.inclusive.get(key, 0.0) for key in SETUP_NAMES)

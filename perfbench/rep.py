"""One cold repetition of a benchmark workload, in its own interpreter.

``perfbench/run.py`` starts this script once per repetition, so no
repetition inherits interned digests, compiled encoding plans or warm
allocator state from an earlier one.  It prints one JSON line.

Modes:

* ``e2e`` -- tracing off.  ``wall_s`` runs from the first ``repro``
  import to the checked result.  Only ``World(...)``, ``World.populate``
  (set-up time) and ``World.run`` (to collect each RunResult) are
  wrapped.
* ``plain`` -- as ``e2e``, but every ``repro`` module is imported first
  and the wall covers the workload body only: the untraced twin of
  ``traced``, for the tracing overhead.
* ``traced`` -- every layer entry point in ``tracer.LAYER_WRAPS`` is
  wrapped; the record adds the per-layer metrics.

Run directly (from the repository root)::

    PYTHONPATH=src python3 perfbench/rep.py --workload brb_fixed --mode e2e
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_rep(workload: str, mode: str, delay_seed: int, chaos_seed: int):
    """Run one repetition; returns the JSON-ready record."""
    if mode != "e2e":
        tracing.import_all_repro()
    start = time.perf_counter()
    tracer = tracing.Tracer().install(
        tracing.LAYER_WRAPS if mode == "traced" else tracing.SETUP_WRAPS
    )
    with tracer.root() as body_wall:
        outcome = workloads.run(
            workload, delay_seed=delay_seed, chaos_seed=chaos_seed
        )
    wall = time.perf_counter() - start if mode == "e2e" else body_wall[0]
    tracer.uninstall()
    results = tracer.returned["World.run"]
    fingerprint = _fingerprint(results, outcome)
    failures = list(outcome.failures)
    pinned = workloads.PINNED[workload]
    if (delay_seed, chaos_seed) == (
        workloads.DEFAULT_DELAY_SEED, workloads.DEFAULT_CHAOS_SEED
    ) and fingerprint != pinned:
        differing = "; ".join(
            f"{key} {value!r} != {pinned[key]!r}"
            for key, value in fingerprint.items() if value != pinned[key]
        )
        failures.append(f"pinned fingerprint differs: {differing}")
    record = {
        "workload": workload,
        "mode": mode,
        "wall_s": wall,
        "setup_s": tracer.setup_seconds(),
        "messages": fingerprint["messages"],
        "world_ms": outcome.world_ms,
        "failures": failures,
        "fingerprint": fingerprint,
        "parity": outcome.parity,
        "rss_self_mb": _maxrss_mb(resource.RUSAGE_SELF),
        "rss_children_mb": _maxrss_mb(resource.RUSAGE_CHILDREN),
    }
    if mode == "traced":
        record["layers"] = layer_metrics(tracer, results, wall)
    return record


def _fingerprint(results, outcome) -> dict:
    """What the worlds computed: independent of host speed."""
    commit_times = [
        t for result in results for t in result.commit_global_times.values()
    ]
    return {
        "messages": sum(r.messages_sent for r in results),
        "events": sum(r.events_processed for r in results),
        "faults_injected": sum(r.faults_injected for r in results),
        "max_commit_time": repr(max(commit_times, default=0.0)),
        "table1": outcome.table1,
    }


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def layer_metrics(tracer: tracing.Tracer, results, wall: float) -> dict:
    """Per-layer numbers of one traced repetition (see README.md)."""
    from repro.crypto.messages import digest_stats, intern_table_len

    self_s = tracer.self_times()
    total = {
        name: sum(getattr(r, name) for r in results)
        for name in (
            "messages_sent", "events_processed", "deliveries_batched",
            "delivery_runs_batched", "faults_injected", "quorum_checks",
            "votes_batched", "shard_barrier_rounds", "shard_bytes_sent",
            "shard_batches_exchanged",
        )
    }
    # One kernel event per fired event: a folded delivery run is one.
    kernel_events = (
        total["events_processed"] - total["deliveries_batched"]
        + total["delivery_runs_batched"]
    )
    digests = digest_stats.snapshot()
    hits = digests["cache_hits"] + digests["interned_hits"]
    lookups = hits + digests["digests_computed"]
    count = tracer.count
    return {
        "runner.setup_s": tracer.setup_seconds(),
        "runner.self_s": self_s.get("runner", 0.0),
        "runner.worlds": count("World.__init__"),
        "kernel.self_s": self_s.get("kernel", 0.0),
        "kernel.events": kernel_events,
        "kernel.schedules": count(
            "Simulator.schedule_at", "Simulator.schedule_batch",
            "Simulator.schedule_after",
        ),
        "gc.s": self_s.get(tracing.GC, 0.0),
        "gc.collections": tracer.gc_collections,
        "network.self_s": self_s.get("network", 0.0),
        "network.calls": count("Network.send", "Network.multicast"),
        "network.copies": total["messages_sent"],
        "network.copies_per_event": (
            total["messages_sent"] / kernel_events if kernel_events else 0.0
        ),
        "delays.s": self_s.get("delays", 0.0),
        "delays.calls": tracer.layer_count("delays"),
        "faults.s": self_s.get("faults", 0.0),
        "faults.routes": count("FaultInjector.route"),
        "faults.injected": total["faults_injected"],
        "crypto.s": self_s.get("crypto", 0.0),
        "crypto.signs": count("Signer.sign"),
        "crypto.verifies": count(
            "KeyRegistry.verify", "KeyRegistry.verify_batch",
            "KeyRegistry.verify_all", "KeyRegistry.require_valid",
        ),
        "crypto.digests": digests["digests_computed"],
        "crypto.digest_hit_ratio": hits / lookups if lookups else 0.0,
        "crypto.intern_entries": intern_table_len(),
        "quorum.s": self_s.get("quorum", 0.0),
        "quorum.adds": count("QuorumTracker.add"),
        "quorum.checks": total["quorum_checks"],
        "quorum.votes_batched": total["votes_batched"],
        "protocol.self_s": self_s.get("protocol", 0.0),
        "protocol.delivers": tracer.count_named("deliver"),
        "protocol.timers": count("Party._guarded"),
        "observers.s": self_s.get("observers", 0.0),
        "observers.calls": tracer.layer_count("observers"),
        "shard.run_s": self_s.get("shard", 0.0),
        "shard.barrier_rounds": total["shard_barrier_rounds"],
        "shard.bytes_sent": total["shard_bytes_sent"],
        "shard.batches": total["shard_batches_exchanged"],
        "harness.self_s": self_s[tracing.HARNESS],
        "trace.wall_s": wall,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--mode", choices=("e2e", "plain", "traced"),
                        default="e2e")
    parser.add_argument("--delay-seed", type=int,
                        default=workloads.DEFAULT_DELAY_SEED)
    parser.add_argument("--chaos-seed", type=int,
                        default=workloads.DEFAULT_CHAOS_SEED)
    args = parser.parse_args(argv)
    record = run_rep(args.workload, args.mode, args.delay_seed,
                     args.chaos_seed)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one benchmark workload and print its metrics as one JSON line.

From the root of a checkout::

    python3 perfbench/run.py --workload cells --seed 0 --seconds 20 --trace 0

Every repetition runs in a fresh interpreter (``perfbench/rep.py``), so
each one starts cold: the warm-up world of ``repro bench`` hands the
timed world its interned digests, which is why these numbers are not
comparable with ``BENCH_core.json`` rows.  Repetitions repeat until
``--seconds`` is used up (at least three), and every time metric is
their median.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
an untraced and a traced repetition and prints the per-layer metrics;
``trace.overhead_s`` is the traced wall minus the untraced one.

Lines starting with ``#`` carry the run header (Python version, CPUs,
revision, seeds, sizes) and per-repetition details; the last line is the
result.  A run whose worlds fail prints its metrics with
``"correct": false``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: Fewest untraced repetitions a run takes, whatever ``--seconds`` says.
MIN_REPS = 3
#: A run must end within 180 s; a repetition still running this long
#: after the run started is killed and counted failed.
RUN_DEADLINE_S = 170

#: name -> unit, for ``--trace 0``.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "msgs_per_s": "1/s",
    "world_p50_ms": "ms",
    "world_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

#: name -> unit, for ``--trace 1`` (filled by ``rep.layer_metrics``).
PER_LAYER = {
    "runner.setup_s": "s", "runner.self_s": "s", "runner.worlds": "count",
    "kernel.self_s": "s", "kernel.events": "count",
    "kernel.schedules": "count",
    "gc.s": "s", "gc.collections": "count",
    "network.self_s": "s", "network.calls": "count",
    "network.copies": "count", "network.copies_per_event": "ratio",
    "delays.s": "s", "delays.calls": "count",
    "faults.s": "s", "faults.routes": "count", "faults.injected": "count",
    "crypto.s": "s", "crypto.signs": "count", "crypto.verifies": "count",
    "crypto.digests": "count", "crypto.digest_hit_ratio": "ratio",
    "crypto.intern_entries": "count",
    "quorum.s": "s", "quorum.adds": "count", "quorum.checks": "count",
    "quorum.votes_batched": "count",
    "protocol.self_s": "s", "protocol.delivers": "count",
    "protocol.timers": "count",
    "observers.s": "s", "observers.calls": "count",
    "shard.run_s": "s", "shard.barrier_rounds": "count",
    "shard.bytes_sent": "count", "shard.batches": "count",
    "harness.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


class RepFailed(RuntimeError):
    """A repetition process exited badly or printed no record."""


def run_rep(
    root: Path, workload: str, mode: str, seeds: dict, deadline: float
) -> dict:
    """Start one repetition in a fresh interpreter; return its record.

    ``deadline`` is the ``time.monotonic()`` reading it must end by.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--mode", mode, "--delay-seed", str(seeds["delay_seed"]),
        "--chaos-seed", str(seeds["chaos_seed"]),
    ]
    # Its own process group, so a timeout can kill the shard workers too.
    proc = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=max(0.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepFailed(f"{mode} repetition timed out") from exc
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(
            f"{mode} repetition exited {proc.returncode}: "
            f"{stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def repeat(seconds: float, step, minimum: int) -> tuple[list, list[str]]:
    """Call ``step`` until ``seconds`` are used (at least ``minimum``
    times); a step that would overrun the budget is not started."""
    records, errors, durations = [], [], []
    begin = time.monotonic()
    while len(durations) < minimum or (
        time.monotonic() - begin + statistics.median(durations) <= seconds
    ):
        started = time.monotonic()
        try:
            records.append(step())
        except RepFailed as exc:
            errors.append(str(exc))
        durations.append(time.monotonic() - started)
    return records, errors


def run_header(root: Path, args, seeds: dict) -> dict:
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "seed": args.seed,
        **seeds,
        "sizes": workloads.sizes(args.workload),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(root),
        "src_sha256": _source_digest(root),
    }


def _git_rev(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest(root: Path) -> str:
    """Digest of every ``src/`` Python file: names the code when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def parity_problem(record: dict, twin: dict) -> str | None:
    """Fields where a sharded run differs from its single-process twin."""
    differing = [
        name for name in workloads.PARITY_FIELDS
        if record["parity"][name] != twin["parity"][name]
    ]
    if differing:
        return f"sharded run differs from single-process in {differing}"
    return None


def end_to_end(records: list[dict], pass_rate: float) -> dict:
    """Medians over repetitions.  The world percentiles are taken within
    each repetition first: pooling would make a run's p90 hang on its
    slowest repetition when a repetition is one world."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "msgs_per_s": statistics.median(
            r["messages"] / (r["wall_s"] - r["setup_s"]) for r in records
        ),
        "world_p50_ms": statistics.median(
            statistics.median(r["world_ms"]) for r in records
        ),
        "world_p90_ms": statistics.median(
            _p90(r["world_ms"]) for r in records
        ),
        "peak_rss_mb": max(
            max(r["rss_self_mb"], r["rss_children_mb"]) for r in records
        ),
        "pass_rate": pass_rate,
    }


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10)[8]


def per_layer(pairs: list[tuple[dict, dict]]) -> dict:
    """Medians over the traced repetitions of each (untraced, traced)
    pair; the overhead is the traced wall minus the untraced one."""
    traced = [t["layers"] for _, t in pairs]
    metrics = {
        name: statistics.median(layers[name] for layers in traced)
        for name in PER_LAYER if name != "trace.overhead_s"
    }
    metrics["trace.overhead_s"] = statistics.median(
        t["wall_s"] for _, t in pairs
    ) - statistics.median(p["wall_s"] for p, _ in pairs)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="offsets both seeds below (default 0)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay-seed", type=int, default=None,
                        help="UniformDelay seed (default 2026 + --seed)")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        help="chaos plan base seed (default 77 + --seed)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    seeds = {
        "delay_seed": args.delay_seed if args.delay_seed is not None
        else workloads.DEFAULT_DELAY_SEED + args.seed,
        "chaos_seed": args.chaos_seed if args.chaos_seed is not None
        else workloads.DEFAULT_CHAOS_SEED + args.seed,
    }
    print("# header " + json.dumps(run_header(root, args, seeds)),
          flush=True)

    failures: list[str] = []
    twin = None
    if args.workload == "brb_uniform_sharded":
        # The single-process twin, once per run and untimed: the sharded
        # repetitions must reproduce its schedule-invariant fields.
        try:
            twin = run_rep(root, "brb_uniform", "e2e", seeds, deadline)
        except RepFailed as exc:
            failures.append(f"single-process twin: {exc}")

    def rep_step(mode: str) -> dict:
        record = run_rep(root, args.workload, mode, seeds, deadline)
        if twin is not None:
            problem = parity_problem(record, twin)
            if problem:
                record["failures"].append(problem)
        return record

    if args.trace:
        pairs, errors = repeat(
            args.seconds, lambda: (rep_step("plain"), rep_step("traced")),
            minimum=1,
        )
        records = [r for pair in pairs for r in pair]
    else:
        records, errors = repeat(
            args.seconds, lambda: rep_step("e2e"), minimum=MIN_REPS
        )
    failures += errors
    if not records:
        print("error: no repetition completed:\n" + "\n".join(failures),
              file=sys.stderr)
        return 1
    if twin is None and args.workload == "brb_uniform_sharded":
        records[0]["failures"].append("no twin to check parity against")

    for record in records:
        failures += record["failures"]
        print("# rep " + json.dumps({
            "mode": record["mode"],
            "wall_s": record["wall_s"],
            "setup_s": record["setup_s"],
            "worlds": len(record["world_ms"]),
            "rss_self_mb": record["rss_self_mb"],
            "rss_children_mb": record["rss_children_mb"],
            "fingerprint": record["fingerprint"],
        }))
    attempted = sum(len(r["world_ms"]) for r in records) + len(errors)
    failed = min(attempted, len(failures))
    holder = max(
        records, key=lambda r: max(r["rss_self_mb"], r["rss_children_mb"])
    )
    print("# peak_rss_holder " + (
        "shard worker" if holder["rss_children_mb"] > holder["rss_self_mb"]
        else "repetition process"
    ))
    for failure in failures:
        print("# failure " + failure)

    if args.trace:
        values, units = per_layer(pairs), PER_LAYER
    else:
        values = end_to_end(records, 1.0 - failed / attempted)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

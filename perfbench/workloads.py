"""The benchmark's workloads: inputs built from the seeds, outcome checks.

Each workload runs a fixed set of worlds through the public ``repro``
entry points and checks every world's outcome.  A world *fails* when it
raises, leaves an honest party without a commit, disagrees, commits a
value other than the broadcaster's, or misses its expected outcome
(the paper's round or time bound, a chaos invariant, the
sharded-vs-single parity).  Why each workload exists is in
``perfbench/README.md``.

Sizes are chosen so one cold repetition takes a few seconds, which lets a
run of ``run_seconds`` take several repetitions and report their median.
"""
from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from functools import partial

#: The delay seed and chaos base seed used when ``--seed 0`` is given;
#: the same values as the committed ``BENCH_core.json`` rows.
DEFAULT_DELAY_SEED = 2026
DEFAULT_CHAOS_SEED = 77

BRB_FIXED_N = 701
BRB_UNIFORM_N = 201
SHARDS = 2

#: Table-1 cells: (family, n, f).  Sizes run from the table's own n to
#: ~101.  The synchronous BB families send ~n^3 messages (Bb2Delta: 10k
#: at n=21, 31k at n=31, 1.05M at n=101), so they stop near n=21.
TABLE1_CELLS = (
    ("brb_2round", 7, 2), ("brb_2round", 31, 10),
    ("brb_2round", 61, 20), ("brb_2round", 101, 33),
    ("psync_vbb_5f1", 9, 2), ("psync_vbb_5f1", 31, 6),
    ("psync_vbb_5f1", 61, 12), ("psync_vbb_5f1", 101, 20),
    ("psync_pbft", 7, 2), ("psync_pbft", 31, 10),
    ("psync_pbft", 61, 20), ("psync_pbft", 100, 33),
    ("bb_2delta", 7, 2), ("bb_2delta", 13, 4), ("bb_2delta", 21, 6),
    ("bb_delta_delta_n3", 6, 2), ("bb_delta_delta_n3", 12, 4),
    ("bb_delta_delta_n3", 21, 7),
    ("bb_delta_delta_sync", 5, 2), ("bb_delta_delta_sync", 11, 5),
    ("bb_delta_delta_sync", 21, 10),
    ("bb_delta_15delta", 5, 2), ("bb_delta_15delta", 11, 5),
    ("bb_delta_15delta", 17, 8),
    ("wan_style_bb", 6, 4), ("wan_style_bb", 11, 7),
    ("wan_style_bb", 16, 10),
)
#: Table-1 family -> (module, class) of its protocol.
PROTOCOLS = {
    "brb_2round": ("repro.protocols.brb_2round", "Brb2Round"),
    "psync_vbb_5f1": ("repro.protocols.psync.vbb_5f1", "PsyncVbb5f1"),
    "psync_pbft": ("repro.protocols.psync.pbft", "PbftPsync"),
    "bb_2delta": ("repro.protocols.sync.bb_2delta", "Bb2Delta"),
    "bb_delta_delta_n3": (
        "repro.protocols.sync.bb_delta_delta_n3", "BbDeltaDeltaN3"
    ),
    "bb_delta_delta_sync": (
        "repro.protocols.sync.bb_delta_delta_sync", "BbDeltaDeltaSync"
    ),
    "bb_delta_15delta": (
        "repro.protocols.sync.bb_delta_15delta", "BbDelta15Delta"
    ),
    "wan_style_bb": ("repro.protocols.sync.dishonest_majority", "WanStyleBb"),
}
#: Good-case rounds of the asynchronous and partially synchronous rows.
ROUND_BOUNDS = {"brb_2round": 2, "psync_vbb_5f1": 2, "psync_pbft": 3}
#: Seeded chaos plans per protocol, in each of the two chaos tiers.
CHAOS_PLANS = 40
#: Synchronous-model parameters of ``analysis/table1.py``.
SMALL_DELTA = 0.25
BIG_DELTA = 1.0

WORKLOADS = ("brb_fixed", "brb_uniform", "brb_uniform_sharded", "cells")

#: RunResult fields a sharded run must reproduce exactly.
PARITY_FIELDS = (
    "commits", "commit_global_times", "final_time", "messages_sent",
    "events_processed", "quorum_checks", "votes_batched",
    "equivocations_detected",
)

_BRB_UNIFORM_PIN = {
    "messages": 80802, "events": 81003, "faults_injected": 0,
    "max_commit_time": "1.247369381588", "table1": [],
}
#: Simulated outcome of each workload at the default seeds: what the
#: worlds compute, independent of host speed.  A change that alters it
#: fails the run.
PINNED = {
    "brb_fixed": {
        "messages": 982802, "events": 983503, "faults_injected": 0,
        "max_commit_time": "2.0", "table1": [],
    },
    "brb_uniform": _BRB_UNIFORM_PIN,
    "brb_uniform_sharded": _BRB_UNIFORM_PIN,
    "cells": {
        "messages": 208588, "events": 219722, "faults_injected": 15075,
        "max_commit_time": "11.0",
        "table1": [
            "brb_2round n=7 f=2: 2 rounds",
            "brb_2round n=31 f=10: 2 rounds",
            "brb_2round n=61 f=20: 2 rounds",
            "brb_2round n=101 f=33: 2 rounds",
            "psync_vbb_5f1 n=9 f=2: 2 rounds",
            "psync_vbb_5f1 n=31 f=6: 2 rounds",
            "psync_vbb_5f1 n=61 f=12: 2 rounds",
            "psync_vbb_5f1 n=101 f=20: 2 rounds",
            "psync_pbft n=7 f=2: 3 rounds",
            "psync_pbft n=31 f=10: 3 rounds",
            "psync_pbft n=61 f=20: 3 rounds",
            "psync_pbft n=100 f=33: 3 rounds",
            "bb_2delta n=7 f=2: 0.5",
            "bb_2delta n=13 f=4: 0.5",
            "bb_2delta n=21 f=6: 0.5",
            "bb_delta_delta_n3 n=6 f=2: 1.25",
            "bb_delta_delta_n3 n=12 f=4: 1.25",
            "bb_delta_delta_n3 n=21 f=7: 1.25",
            "bb_delta_delta_sync n=5 f=2: 1.25",
            "bb_delta_delta_sync n=11 f=5: 1.25",
            "bb_delta_delta_sync n=21 f=10: 1.25",
            "bb_delta_15delta n=5 f=2: 1.375",
            "bb_delta_15delta n=11 f=5: 1.375",
            "bb_delta_15delta n=17 f=8: 1.375",
            "wan_style_bb n=6 f=4: 7.0",
            "wan_style_bb n=11 f=7: 7.0",
            "wan_style_bb n=16 f=10: 7.0",
        ],
    },
}


def sizes(workload: str) -> dict:
    """The workload's sizes, for the run header."""
    if workload == "brb_fixed":
        return {"n": BRB_FIXED_N, "f": (BRB_FIXED_N - 1) // 3, "shards": 1}
    if workload in ("brb_uniform", "brb_uniform_sharded"):
        return {
            "n": BRB_UNIFORM_N,
            "f": (BRB_UNIFORM_N - 1) // 3,
            "shards": SHARDS if workload.endswith("sharded") else 1,
        }
    return {
        "table1_cells": len(TABLE1_CELLS),
        "chaos_plans_per_protocol": CHAOS_PLANS,
    }


@dataclass
class Outcome:
    """Per-world host times and failures of one repetition."""

    world_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Simulated outcomes kept for the fingerprint and parity checks.
    table1: list[str] = field(default_factory=list)
    parity: dict | None = None

    def attempt(self, label: str, run) -> None:
        """Run one world; ``run`` returns a problem string or ``None``."""
        start = time.perf_counter()
        try:
            problem = run()
        except Exception as exc:  # a raising world is a failed world
            problem = f"raised {type(exc).__name__}: {exc}"
        self.world_ms.append((time.perf_counter() - start) * 1000.0)
        if problem:
            self.failures.append(f"{label}: {problem}")


def broadcast_problem(result, value) -> str | None:
    """Every honest party committed, and all of them ``value``."""
    if not result.all_honest_committed():
        missing = [p for p in result.honest_ids if p not in result.commits]
        return f"{len(missing)} honest parties never committed"
    committed = set(result.commits.values())
    if committed != {value}:
        return f"committed {sorted(map(repr, committed))}, expected {value!r}"
    return None


def run(workload: str, *, delay_seed: int, chaos_seed: int) -> Outcome:
    """One repetition of ``workload``; imports ``repro`` lazily so the
    caller can time the imports as part of the run."""
    outcome = Outcome()
    if workload == "brb_fixed":
        _brb(outcome, delay_seed, n=BRB_FIXED_N, uniform=False, shards=1)
    elif workload == "brb_uniform":
        _brb(outcome, delay_seed, n=BRB_UNIFORM_N, uniform=True, shards=1)
    elif workload == "brb_uniform_sharded":
        _brb(outcome, delay_seed, n=BRB_UNIFORM_N, uniform=True,
             shards=SHARDS)
    elif workload == "cells":
        _cells(outcome, delay_seed, chaos_seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return outcome


def _brb(outcome: Outcome, delay_seed: int, *, n, uniform, shards) -> None:
    from repro.analysis.latency import measure_round_good_case
    from repro.protocols.brb_2round import Brb2Round
    from repro.sim.delays import UniformDelay

    value = f"value-{delay_seed}"

    def world() -> str | None:
        policy = (
            UniformDelay(0.05, 1.0, seed=delay_seed, stream="counter")
            if uniform else None
        )
        result = measure_round_good_case(
            Brb2Round, n=n, f=(n - 1) // 3, instrumentation="perf",
            delay_policy=policy, input_value=value, shards=shards,
        ).result
        outcome.parity = {
            name: getattr(result, name) for name in PARITY_FIELDS
        }
        if result.shards != shards:
            return (
                f"ran on {result.shards} shards, asked for {shards} "
                f"({result.shard_fallback_reason})"
            )
        problem = broadcast_problem(result, value)
        if problem:
            return problem
        # Two all-to-all rounds: every party's echo and vote reach all n.
        if result.messages_sent != 2 * n * n:
            return f"{result.messages_sent} messages, expected {2 * n * n}"
        last = max(result.commit_global_times.values())
        # Two message delays; fixed delay is 1.0, uniform is [0.05, 1].
        if not (last == 2.0 if not uniform else 0.1 <= last <= 2.0):
            return f"last commit at {last}, outside the two-delay bound"
        return None

    outcome.attempt(f"brb n={n} shards={shards}", world)


def _cells(outcome: Outcome, delay_seed: int, chaos_seed: int) -> None:
    from repro.analysis.chaos import (
        CHAOS_SPECS,
        CHAOS_SPECS_VIEWCHANGE,
        random_fault_plan,
        random_viewchange_plan,
    )

    value = f"value-{delay_seed}"
    for family, n, f in TABLE1_CELLS:
        outcome.attempt(
            f"table1 {family} n={n} f={f}",
            partial(_table1_cell, outcome, family, n, f, value),
        )
    tiers = (
        ("good-case", CHAOS_SPECS, random_fault_plan),
        ("viewchange", CHAOS_SPECS_VIEWCHANGE, random_viewchange_plan),
    )
    for tier, specs, make_plan in tiers:
        for protocol in specs:
            for index in range(CHAOS_PLANS):
                seed = chaos_seed * 1000 + index
                outcome.attempt(
                    f"chaos {tier} {protocol} seed={seed}",
                    partial(_chaos_world, tier, protocol, seed, make_plan),
                )


def _chaos_world(tier: str, protocol: str, seed: int, make_plan):
    """One seeded chaos plan with the monitor battery attached."""
    from repro.analysis.chaos import run_chaos_plan

    record = run_chaos_plan(
        protocol, make_plan(protocol, seed), instrumentation="full",
        tier=tier,
    )
    if record["violation"] is not None:
        return f"violation {record['violation']}"
    if tier == "viewchange" and (record["max_commit_view"] or 0) < 2:
        return f"no commit in view >= 2: {record['commit_views']}"
    return None


def _table1_cell(outcome: Outcome, family: str, n: int, f: int, value):
    """One Table-1 row at (n, f): run it, check the paper's bound."""
    from repro.analysis.latency import (
        measure_round_good_case,
        measure_sync_good_case,
    )

    tolerance = 1e-9
    if family in ROUND_BOUNDS:
        kwargs = {} if family == "brb_2round" else {"big_delta": BIG_DELTA}
        meas = measure_round_good_case(
            _cls(family), n=n, f=f, instrumentation="full",
            input_value=value, **kwargs,
        )
        bound = ROUND_BOUNDS[family]
        measured, expected = f"{meas.round_latency} rounds", f"{bound} rounds"
        ok = meas.round_latency == bound
    else:
        model, pattern, kwargs = _sync_setup(family)
        meas = measure_sync_good_case(
            _cls(family), n=n, f=f, model=model, skew_pattern=pattern,
            instrumentation="full", input_value=value, **kwargs,
        )
        latency = meas.time_latency
        bound = _sync_bound(family, n, f)
        measured, expected = repr(round(latency, 12)), repr(bound)
        if family == "bb_delta_15delta":
            ok = latency <= bound + tolerance
        elif family == "wan_style_bb":
            # Also above the (floor(n/(n-f)) - 1) * Delta lower bound.
            ok = abs(latency - bound) < tolerance and (
                latency >= (n // (n - f) - 1) * BIG_DELTA
            )
        else:
            ok = abs(latency - bound) < tolerance
    outcome.table1.append(f"{family} n={n} f={f}: {measured}")
    problem = broadcast_problem(meas.result, value)
    if problem:
        return problem
    if not ok:
        return f"measured {measured}, paper bound {expected}"
    return None


def _sync_setup(family: str):
    """(model, skew pattern, protocol kwargs) as ``table1.py`` uses them."""
    from repro.net.synchrony import SynchronyModel as Model

    if family == "bb_2delta":
        return Model(SMALL_DELTA, BIG_DELTA, SMALL_DELTA), "staggered", {}
    if family == "bb_delta_delta_n3":
        return Model(SMALL_DELTA, BIG_DELTA, 0.0), "staggered", {}
    if family == "bb_delta_delta_sync":
        return Model(SMALL_DELTA, BIG_DELTA, 0.0), "zero", {}
    if family == "bb_delta_15delta":
        return (
            Model(SMALL_DELTA, BIG_DELTA, SMALL_DELTA), "staggered",
            {"grid_samples": 8},
        )
    if family == "wan_style_bb":
        return Model(BIG_DELTA, BIG_DELTA, 0.0), "zero", {}
    raise ValueError(f"unknown Table-1 family {family!r}")


def _sync_bound(family: str, n: int, f: int) -> float:
    """The paper's good-case latency bound for a synchronous row."""
    from repro.protocols.sync.dishonest_majority import trustcast_rounds

    return {
        "bb_2delta": 2 * SMALL_DELTA,
        "bb_delta_delta_n3": BIG_DELTA + SMALL_DELTA,
        "bb_delta_delta_sync": BIG_DELTA + SMALL_DELTA,
        "bb_delta_15delta": BIG_DELTA + 1.5 * SMALL_DELTA,
        "wan_style_bb": (1 + trustcast_rounds(n, f)) * BIG_DELTA,
    }[family]


def _cls(family: str):
    module, name = PROTOCOLS[family]
    return getattr(importlib.import_module(module), name)

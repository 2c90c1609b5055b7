"""Recovery-cost benchmark: checkpointed partial replay vs full replay.

The Section 5.1 failure scenario the checkpoints exist for: an integrity
failure lands deep in the run (batch 16 of 20). Without checkpoints the
controller replays batches 1..15 from pristine state; with a checkpoint
every 4 batches it restores the batch-12 snapshot and replays only 13..15.
Both modes must deliver the fault-free final answer — the benchmark
asserts equivalence before it times anything.

Results are written to ``BENCH_recovery.json`` at the repo root — the
machine-readable baseline the ``chaos-smoke`` CI job regenerates at
reduced scale and diffs (failing if the recovery speedup collapses to
less than half the checked-in number).

Scale knobs (environment variables, defaults = the paper-sized config):

* ``IOLAP_PERF_SCALE``   — TPC-H scale factor (default 2.0 = 40k fact rows)
* ``IOLAP_PERF_BATCHES`` — mini-batches (default 20)
* ``IOLAP_PERF_TRIALS``  — bootstrap trials (default 40)
* ``IOLAP_PERF_REPS``    — repetitions, best-of (default 3)
* ``IOLAP_PERF_MIN_RECOVERY_SPEEDUP`` — assertion floor on the recovery
  wall-time reduction (default 2.0; the checked-in run shows ~4-5x, the
  replay-depth ratio being 15/3)
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.relational import avg, col, count, scan, sum_
from repro.workloads.tpch import LINEORDER_SCHEMA

from benchmarks.harness import SEED, tpch_catalog

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_recovery.json"

PERF_SCALE = float(os.environ.get("IOLAP_PERF_SCALE", "2.0"))
PERF_BATCHES = int(os.environ.get("IOLAP_PERF_BATCHES", "20"))
PERF_TRIALS = int(os.environ.get("IOLAP_PERF_TRIALS", "40"))
PERF_REPS = int(os.environ.get("IOLAP_PERF_REPS", "3"))
MIN_RECOVERY_SPEEDUP = float(
    os.environ.get("IOLAP_PERF_MIN_RECOVERY_SPEEDUP", "2.0")
)

#: The failure lands at 80% of the run; checkpoints every interval batches.
FAULT_BATCH = max(2, int(PERF_BATCHES * 0.8))
CHECKPOINT_INTERVAL = 4
FAULTS = f"sentinel@{FAULT_BATCH}"


def recovery_plan():
    """Uncertain SELECT against a streaming average: sentinels exist at
    every batch (so the ``sentinel@N`` fault has a seam to fire at) and
    the operator state worth checkpointing grows with the run."""
    inner = scan("lineorder", LINEORDER_SCHEMA).aggregate(
        [], [avg("extendedprice", "ap")]
    )
    return (
        scan("lineorder", LINEORDER_SCHEMA)
        .join(inner, keys=[])
        .select(col("extendedprice") > col("ap"))
        .aggregate(["custkey"], [sum_("extendedprice", "rev"), count("n")])
    )


def run_mode(catalog, plan, faults, interval):
    engine = OnlineQueryEngine(
        catalog,
        "lineorder",
        OnlineConfig(
            num_trials=PERF_TRIALS,
            seed=SEED,
            faults=faults,
            checkpoint_interval=interval,
        ),
    )
    t0 = time.perf_counter()
    final = engine.run_to_completion(plan, PERF_BATCHES)
    total = time.perf_counter() - t0
    return {
        "total_seconds": total,
        "recovery_seconds": sum(
            bm.recovery_seconds for bm in engine.metrics.batches
        ),
        "recoveries": engine.metrics.num_recoveries,
    }, final


@pytest.fixture(scope="module")
def bench() -> dict:
    catalog = tpch_catalog(PERF_SCALE)
    plan = recovery_plan()

    # Correctness first: both recovery modes must match the fault-free run.
    _, clean = run_mode(catalog, plan, None, CHECKPOINT_INTERVAL)
    for interval in (CHECKPOINT_INTERVAL, 0):
        _, recovered = run_mode(catalog, plan, FAULTS, interval)
        assert recovered.to_relation().bag_equal(clean.to_relation(), 6), (
            f"recovered final (interval={interval}) diverged from fault-free"
        )

    modes = {}
    for name, interval in (("checkpointed", CHECKPOINT_INTERVAL), ("full_replay", 0)):
        best = None
        for _ in range(PERF_REPS):
            result, _ = run_mode(catalog, plan, FAULTS, interval)
            if best is None or result["recovery_seconds"] < best["recovery_seconds"]:
                best = result
        modes[name] = best

    baseline, _ = run_mode(catalog, plan, None, CHECKPOINT_INTERVAL)
    result = {
        "schema": "bench-recovery-v1",
        "config": {
            "tpch_scale": PERF_SCALE,
            "fact_rows": len(catalog.get("lineorder")),
            "num_batches": PERF_BATCHES,
            "num_trials": PERF_TRIALS,
            "reps": PERF_REPS,
            "seed": SEED,
            "fault": FAULTS,
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "query": "lineorder join [avg(extendedprice)] "
                     "-> select price > avg -> groupby custkey [sum, count]",
        },
        "fault_free": baseline,
        "checkpointed": modes["checkpointed"],
        "full_replay": modes["full_replay"],
        "recovery_speedup": (
            modes["full_replay"]["recovery_seconds"]
            / modes["checkpointed"]["recovery_seconds"]
        ),
    }
    BENCH_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def test_fault_actually_fired(bench):
    assert bench["checkpointed"]["recoveries"] == 1
    assert bench["full_replay"]["recoveries"] == 1
    assert bench["fault_free"]["recoveries"] == 0


def test_recovery_speedup(bench):
    speedup = bench["recovery_speedup"]
    assert speedup >= MIN_RECOVERY_SPEEDUP, (
        f"checkpointed recovery speedup {speedup:.2f}x below floor "
        f"{MIN_RECOVERY_SPEEDUP}x"
    )


def test_checkpoint_overhead_bounded(bench):
    """Checkpointing must not dominate the run it protects: the fault-free
    run with checkpoints on stays within the full-replay run's total plus
    its recovery cost."""
    assert bench["fault_free"]["total_seconds"] < (
        bench["full_replay"]["total_seconds"] * 1.5
    )


def test_bench_file_checked_in_and_valid(bench):
    on_disk = json.loads(BENCH_PATH.read_text())
    assert on_disk["schema"] == "bench-recovery-v1"
    for section in ("config", "fault_free", "checkpointed", "full_replay"):
        assert section in on_disk
    assert on_disk["recovery_speedup"] > 0

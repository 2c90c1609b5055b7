"""Observability perf benchmarks: profiling overhead + model calibration.

Two gates for the continuous profiler (DESIGN.md §14):

* **Overhead** — the ND-heavy end-to-end run (the same worst-case shape
  the kernel benchmarks use) executed with ``profile`` off and on. The
  profiler reads per-batch counters on the controller thread between
  batches, so its cost must stay a small fraction of the run; the gate
  fails if the profiled run is more than ``IOLAP_PERF_MAX_OVERHEAD``
  (default 5%) slower.
* **Calibration** — every bundled workload query run with profiling on;
  after the 5-batch warm-up each batch's predicted cost is scored
  against its actual. The suite-level mean MAPE must stay under
  ``IOLAP_PERF_MAX_MAPE`` (default 25%).

Results are written to ``BENCH_obs.json`` at the repo root — the
machine-readable artifact the ``obs-export-smoke`` CI job regenerates
and gates against the checked-in baseline.

Scale knobs (environment variables, defaults = the paper-sized config):

* ``IOLAP_PERF_SCALE``        — TPC-H scale for the overhead A/B (default 2.0)
* ``IOLAP_PERF_BATCHES``      — overhead A/B mini-batches (default 20)
* ``IOLAP_PERF_TRIALS``       — overhead A/B bootstrap trials (default 60)
* ``IOLAP_PERF_REPS``         — repetitions, best-of (default 3)
* ``IOLAP_PERF_MAX_OVERHEAD`` — profiling overhead ceiling (default 0.05)
* ``IOLAP_PERF_CAL_SCALE``    — calibration sweep workload scale (default 0.4)
* ``IOLAP_PERF_CAL_BATCHES``  — calibration batches per query (default 12)
* ``IOLAP_PERF_CAL_TRIALS``   — calibration bootstrap trials (default 16)
* ``IOLAP_PERF_MAX_MAPE``     — suite mean MAPE ceiling (default 0.25)
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)

from benchmarks.harness import SEED, tpch_catalog
from benchmarks.test_perf_kernels import nd_heavy_plan

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_obs.json"

PERF_SCALE = float(os.environ.get("IOLAP_PERF_SCALE", "2.0"))
PERF_BATCHES = int(os.environ.get("IOLAP_PERF_BATCHES", "20"))
PERF_TRIALS = int(os.environ.get("IOLAP_PERF_TRIALS", "60"))
PERF_REPS = int(os.environ.get("IOLAP_PERF_REPS", "3"))
MAX_OVERHEAD = float(os.environ.get("IOLAP_PERF_MAX_OVERHEAD", "0.05"))
CAL_SCALE = float(os.environ.get("IOLAP_PERF_CAL_SCALE", "0.4"))
CAL_BATCHES = int(os.environ.get("IOLAP_PERF_CAL_BATCHES", "12"))
CAL_TRIALS = int(os.environ.get("IOLAP_PERF_CAL_TRIALS", "16"))
MAX_MAPE = float(os.environ.get("IOLAP_PERF_MAX_MAPE", "0.25"))


def _run_nd_heavy(catalog, plan, profile: bool) -> dict:
    engine = OnlineQueryEngine(
        catalog,
        "lineorder",
        OnlineConfig(num_trials=PERF_TRIALS, seed=SEED, profile=profile),
    )
    t0 = time.perf_counter()
    for _ in engine.run(plan, PERF_BATCHES):
        pass
    total = time.perf_counter() - t0
    return {
        "total_seconds": total,
        "per_batch_seconds": [b.wall_seconds for b in engine.metrics.batches],
        "profile_seconds": engine.metrics.profile_seconds,
        "cost_calibration": engine.metrics.cost_calibration,
    }


def _calibration_sweep() -> dict:
    catalogs = {
        "tpch": generate_tpch(scale=CAL_SCALE, seed=SEED).catalog(),
        "conviva": generate_conviva(scale=CAL_SCALE, seed=SEED).catalog(),
    }
    per_query = {}
    for source, queries in (("tpch", TPCH_QUERIES), ("conviva", CONVIVA_QUERIES)):
        for name, spec in queries.items():
            engine = OnlineQueryEngine(
                catalogs[source],
                spec.streamed_table,
                OnlineConfig(num_trials=CAL_TRIALS, seed=SEED, profile=True),
            )
            for _ in engine.run(spec.plan, CAL_BATCHES):
                pass
            cal = engine.metrics.cost_calibration
            per_query[f"{source}:{name}"] = {
                "predictions": cal["predictions"],
                "mae_seconds": cal["mae_seconds"],
                "mape": cal["mape"],
            }
    mapes = [q["mape"] for q in per_query.values()]
    return {
        "per_query": per_query,
        "mean_mape": sum(mapes) / len(mapes),
        "worst_mape": max(mapes),
        "queries": len(per_query),
    }


@pytest.fixture(scope="module")
def bench() -> dict:
    catalog = tpch_catalog(PERF_SCALE)
    plan, _ = nd_heavy_plan(catalog)

    runs = {}
    for profile in (False, True):
        best = None
        for _ in range(PERF_REPS):
            result = _run_nd_heavy(catalog, plan, profile)
            if best is None or result["total_seconds"] < best["total_seconds"]:
                best = result
        runs[profile] = best
    off, on = runs[False], runs[True]
    overhead = on["total_seconds"] / off["total_seconds"] - 1.0

    result = {
        "schema": "bench-obs-v1",
        "config": {
            "tpch_scale": PERF_SCALE,
            "num_batches": PERF_BATCHES,
            "num_trials": PERF_TRIALS,
            "reps": PERF_REPS,
            "cal_scale": CAL_SCALE,
            "cal_batches": CAL_BATCHES,
            "cal_trials": CAL_TRIALS,
            "seed": SEED,
        },
        "overhead": {
            "plain": off,
            "profiled": on,
            "overhead_fraction": overhead,
            "profile_seconds_share": (
                on["profile_seconds"] / on["total_seconds"]
            ),
        },
        "calibration": _calibration_sweep(),
    }
    BENCH_PATH.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def test_profiling_overhead_under_budget(bench):
    overhead = bench["overhead"]["overhead_fraction"]
    assert overhead < MAX_OVERHEAD, (
        f"profiling overhead {overhead:.1%} exceeds the "
        f"{MAX_OVERHEAD:.0%} budget"
    )


def test_profile_seconds_accounted(bench):
    # The profiler's self-time meter must be live and small. The meter
    # brackets every profiler call (including timer cost the wall-clock
    # A/B partially absorbs), so it gets headroom over the A/B gate.
    on = bench["overhead"]["profiled"]
    assert on["profile_seconds"] > 0.0
    assert bench["overhead"]["profile_seconds_share"] < MAX_OVERHEAD * 2.0


def test_predictions_issued_after_warmup(bench):
    cal = bench["overhead"]["profiled"]["cost_calibration"]
    assert cal["predictions"] == PERF_BATCHES - cal["warmup_batches"]


def test_calibration_suite_mape(bench):
    cal = bench["calibration"]
    assert cal["queries"] == len(TPCH_QUERIES) + len(CONVIVA_QUERIES)
    assert all(
        q["predictions"] == CAL_BATCHES - 5 for q in cal["per_query"].values()
    )
    assert cal["mean_mape"] <= MAX_MAPE, (
        f"suite mean MAPE {cal['mean_mape']:.1%} exceeds {MAX_MAPE:.0%} "
        f"(worst {cal['worst_mape']:.1%})"
    )


def test_bench_file_checked_in_and_valid(bench):
    on_disk = json.loads(BENCH_PATH.read_text())
    assert on_disk["schema"] == "bench-obs-v1"
    for section in ("config", "overhead", "calibration"):
        assert section in on_disk
    assert len(on_disk["overhead"]["profiled"]["per_batch_seconds"]) == (
        on_disk["config"]["num_batches"]
    )
    assert on_disk["calibration"]["queries"] > 0

"""Chaos suite: every workload query, under injected faults, must deliver
the fault-free answer (the executable form of the Section 5.1 claim that
failure recovery preserves Theorem 1).

The fault plan per run exercises all four kinds: a transient unit failure
(absorbed by executor retry), two controller-level integrity failures
(checkpointed partial replay), and one checkpoint corruption (fall-back
to an older snapshot). ``batch`` faults are used for the forced failures
because they fire for every query shape; ``sentinel`` probes only exist
in plans with uncertain SELECT/JOIN operators. ``test_parallel`` runs the
faulted side across two shard worker processes, where every worker claims
and recovers the same faults on its own sub-stream.

Scale knobs (for the CI chaos-smoke job):

* ``IOLAP_CHAOS_BATCHES`` — mini-batches per run (default 8)
* ``IOLAP_CHAOS_TRIALS``  — bootstrap trials (default 8)
* ``IOLAP_CHAOS_SANITIZE`` — set to ``1`` to run every engine with the
  zero-copy aliasing sanitizer on (the CI race-smoke job does); results
  must still be bit-identical to the fault-free run
"""

from __future__ import annotations

import os

import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.engine.shards import ShardedQueryEngine
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

BATCHES = int(os.environ.get("IOLAP_CHAOS_BATCHES", "8"))
TRIALS = int(os.environ.get("IOLAP_CHAOS_TRIALS", "8"))
SANITIZE = os.environ.get("IOLAP_CHAOS_SANITIZE") == "1"

#: unit retry at batch 3, partial replay at 5 and 8, corrupt snapshot at 6.
FAULTS = "unit@3:aggregate,batch@5,checkpoint@6,batch@8"
INTERVAL = 3

ALL_QUERIES = [("tpch", name) for name in TPCH_QUERIES] + [
    ("conviva", name) for name in CONVIVA_QUERIES
]


@pytest.fixture(scope="module")
def catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


def run_query(spec, catalog, shards=0, faults=None):
    engine_cls = ShardedQueryEngine if shards else OnlineQueryEngine
    engine = engine_cls(
        catalog,
        spec.streamed_table,
        OnlineConfig(
            num_trials=TRIALS,
            seed=7,
            faults=faults,
            checkpoint_interval=INTERVAL,
            unit_retry_attempts=2,
            sanitize=SANITIZE,
            shards=shards,
        ),
    )
    return engine, engine.run_to_completion(spec.plan, BATCHES)


def spec_of(source, name):
    return (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]


class TestChaos:
    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_serial(self, source, name, catalogs):
        self._check(source, name, catalogs, shards=0)

    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_parallel(self, source, name, catalogs):
        """Two shard worker processes, each recovering its own faults
        (non-shardable plans take the single-process fallback), must land
        on the fault-free serial answer."""
        self._check(source, name, catalogs, shards=2)

    def _check(self, source, name, catalogs, shards):
        spec = spec_of(source, name)
        catalog = catalogs[source]
        eng0, clean = run_query(spec, catalog)
        eng1, faulted = run_query(spec, catalog, shards=shards, faults=FAULTS)
        # Real (non-injected) violations can also occur, especially at low
        # trial counts — recovery handles those identically, so only the
        # two *forced* failures are a floor, not an exact count.
        extra = eng0.metrics.num_recoveries
        assert eng1.metrics.num_recoveries >= 2, (
            f"{name}: expected both forced failures to recover "
            f"(got {eng1.metrics.num_recoveries}, clean run had {extra})"
        )
        assert faulted.to_relation().bag_equal(clean.to_relation(), 9), (
            f"{name} (shards={shards}): faulted final diverged from fault-free"
        )

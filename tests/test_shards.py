"""The shard layer: planner verdicts, bit-identical merges, fallback.

Determinism is the headline contract: for every shardable workload query,
the sharded engine's per-batch rows must be *bit-identical* to the serial
reference — same values, same bootstrap trial arrays, same canonical
order — for any shard count. The suite checks a representative slice by
default; set ``IOLAP_SHARD_FULL=1`` to run every shardable query at
shards ∈ {1, 2, 4} with vectorization both on and off (the CI
shard-smoke job's weekly configuration).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.result import _key
from repro.core.values import UncertainValue
from repro.engine.shards import (
    ShardedQueryEngine,
    analyze_shardability,
    shard_ids,
)
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

FULL = os.environ.get("IOLAP_SHARD_FULL") == "1"
TRIALS = int(os.environ.get("IOLAP_SHARD_TRIALS", "16"))
BATCHES = int(os.environ.get("IOLAP_SHARD_BATCHES", "6"))

#: The expected planner verdict for every workload query: the 9 queries
#: whose aggregates/joins share streamed fact-column group keys shard;
#: the rest (scalar aggregates, dimension-minted group keys) fall back.
EXPECTED_SHARD_KEYS = {
    "Q1": ("linestatus", "returnflag"),
    "Q3": ("orderdate", "orderkey", "shippriority"),
    "Q18": ("orderkey",),
    "C2": ("cdn",),
    "C3": ("state",),
    "C5": ("cdn",),
    "C9": ("isp",),
    "C11": ("cdn",),
    "C12": ("isp",),
}

ALL_QUERIES = [("tpch", name) for name in TPCH_QUERIES] + [
    ("conviva", name) for name in CONVIVA_QUERIES
]
SHARDABLE = [
    (source, name) for source, name in ALL_QUERIES if name in EXPECTED_SHARD_KEYS
]
#: The default (fast) determinism slice: one query per shard-key shape.
DEFAULT_SLICE = [
    ("tpch", "Q1"), ("tpch", "Q18"), ("conviva", "C2"), ("conviva", "C9")
]


@pytest.fixture(scope="module")
def catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


def spec_of(source, name):
    return (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]


def canon(rows):
    """The merge sink's canonical row order, applied to serial output."""
    def point(v):
        return v.value if isinstance(v, UncertainValue) else v

    return sorted(rows, key=lambda row: tuple(_key(point(v)) for v in row.values()))


def assert_rows_bit_identical(expected, actual, context=""):
    assert len(expected) == len(actual), (
        f"{context}: row count {len(actual)} != {len(expected)}"
    )
    for re_, ra in zip(expected, actual):
        assert set(re_) == set(ra), f"{context}: schema mismatch"
        for col in re_:
            ve, va = re_[col], ra[col]
            assert isinstance(ve, UncertainValue) == isinstance(va, UncertainValue)
            if isinstance(ve, UncertainValue):
                pe, pa = ve.value, va.value
                assert pe == pa or (pe != pe and pa != pa), (
                    f"{context}: {col} point value {pa!r} != {pe!r}"
                )
                assert np.array_equal(
                    np.asarray(ve.trials), np.asarray(va.trials), equal_nan=True
                ), f"{context}: {col} trial vector diverged"
            else:
                assert ve == va or (ve != ve and va != va), (
                    f"{context}: {col} value {va!r} != {ve!r}"
                )


def run_serial(spec, catalog, vectorize=True):
    engine = OnlineQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(num_trials=TRIALS, seed=11, vectorize=vectorize),
    )
    return list(engine.run(spec.plan, BATCHES))


def run_sharded(spec, catalog, shards, vectorize=True, **config_kwargs):
    engine = ShardedQueryEngine(
        catalog,
        spec.streamed_table,
        OnlineConfig(
            num_trials=TRIALS, seed=11, vectorize=vectorize,
            shards=shards, **config_kwargs,
        ),
    )
    return engine, list(engine.run(spec.plan, BATCHES))


class TestPlanner:
    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_verdict(self, source, name, catalogs):
        spec = spec_of(source, name)
        plan = analyze_shardability(spec.plan, spec.streamed_table)
        if name in EXPECTED_SHARD_KEYS:
            assert plan.shardable, f"{name}: {plan.reason}"
            assert plan.shard_key == EXPECTED_SHARD_KEYS[name]
            assert plan.reason is None
            # Sink disjointness checks need at least one key column with
            # shard-key provenance in the result schema.
            assert plan.result_key_cols
        else:
            assert not plan.shardable
            assert plan.reason
            assert plan.shard_key == ()

    def test_static_only_plan_not_shardable(self, catalogs):
        from repro.relational.aggregates import count
        from repro.relational.algebra import Aggregate, Scan

        catalog = catalogs["tpch"]
        plan = Aggregate(
            Scan("part", catalog.get("part").schema),
            group_by=["brand"],
            aggs=[count("n")],
        )
        verdict = analyze_shardability(plan, "lineorder")
        assert not verdict.shardable
        assert "streamed" in verdict.reason


class TestShardIds:
    def test_deterministic_and_group_stable(self, tpch_small):
        rel = tpch_small.catalog().get("lineorder")
        ids1 = shard_ids(rel, ("custkey",), 4)
        ids2 = shard_ids(rel, ("custkey",), 4)
        assert np.array_equal(ids1, ids2)
        assert ids1.min() >= 0 and ids1.max() < 4
        # All rows of one key value land on one shard.
        keys = rel.columns["custkey"]
        for value in np.unique(keys)[:20]:
            owners = np.unique(ids1[keys == value])
            assert len(owners) == 1

    def test_spreads_shards(self, tpch_small):
        rel = tpch_small.catalog().get("lineorder")
        ids = shard_ids(rel, ("custkey",), 4)
        counts = np.bincount(ids, minlength=4)
        # splitmix64 mixing: no shard should be starved on real keys.
        assert counts.min() > 0.1 * len(rel) / 4

    def test_string_keys(self, conviva_small):
        rel = conviva_small.catalog().get("sessions")
        ids = shard_ids(rel, ("cdn", "isp"), 3)
        assert ids.min() >= 0 and ids.max() < 3
        assert len(np.unique(ids)) == 3


class TestDeterminism:
    """Sharded rows must equal the serial reference bit for bit."""

    @pytest.mark.parametrize(
        "source,name", SHARDABLE if FULL else DEFAULT_SLICE
    )
    def test_two_shards(self, source, name, catalogs):
        self._check(source, name, catalogs, shards=2)

    @pytest.mark.parametrize(
        "source,name",
        (SHARDABLE if FULL else [("tpch", "Q1"), ("conviva", "C5")]),
    )
    def test_four_shards(self, source, name, catalogs):
        self._check(source, name, catalogs, shards=4)

    @pytest.mark.parametrize(
        "source,name", SHARDABLE if FULL else [("conviva", "C3")]
    )
    def test_row_kernels(self, source, name, catalogs):
        """Vectorization off exercises the row-at-a-time operator paths
        inside the workers; the merge contract is unchanged."""
        self._check(source, name, catalogs, shards=2, vectorize=False)

    def test_one_shard_is_serial(self, catalogs):
        """shards=1 short-circuits to the single-process engine."""
        spec = spec_of("tpch", "Q1")
        serial = run_serial(spec, catalogs["tpch"])
        engine, sharded = run_sharded(spec, catalogs["tpch"], shards=1)
        for s, p in zip(serial, sharded):
            assert_rows_bit_identical(s.rows, p.rows, "Q1 shards=1")

    def _check(self, source, name, catalogs, shards, vectorize=True):
        spec = spec_of(source, name)
        catalog = catalogs[source]
        serial = run_serial(spec, catalog, vectorize=vectorize)
        engine, sharded = run_sharded(
            spec, catalog, shards, vectorize=vectorize
        )
        assert engine.shard_plan is not None and engine.shard_plan.shardable
        assert len(sharded) == len(serial) == BATCHES
        for s, p in zip(serial, sharded):
            context = f"{name} shards={shards} batch={p.batch_no}"
            assert p.batch_no == s.batch_no
            assert p.is_final == s.is_final
            assert p.fraction_processed == pytest.approx(s.fraction_processed)
            assert_rows_bit_identical(canon(s.rows), p.rows, context)
            # Shard-local new-tuple counts must sum to the serial total.
            assert p.metrics.new_tuples == s.metrics.new_tuples, context


class TestFallback:
    def test_non_shardable_runs_single_process(self, catalogs):
        spec = spec_of("tpch", "Q6")  # scalar aggregate: never shardable
        serial = run_serial(spec, catalogs["tpch"])
        engine, fallback = run_sharded(spec, catalogs["tpch"], shards=4)
        assert engine.shard_plan is not None
        assert not engine.shard_plan.shardable
        for s, p in zip(serial, fallback):
            assert_rows_bit_identical(s.rows, p.rows, "Q6 fallback")

    def test_fallback_warning_on_trace(self, catalogs):
        from repro.obs import Observability

        obs, sink = Observability.in_memory()
        spec = spec_of("tpch", "Q6")
        engine = ShardedQueryEngine(
            catalogs["tpch"],
            spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11, shards=4),
            obs=obs,
        )
        list(engine.run(spec.plan, 2))
        obs.close()
        warnings = [
            e for e in sink.events
            if e.get("kind") == "warning" and e.get("name") == "shard-fallback"
        ]
        assert warnings, "fallback must leave a shard-fallback trace warning"
        assert "scalar aggregate" in warnings[0]["args"]["reason"]


class TestObservability:
    def test_per_shard_metrics_and_spans(self, catalogs):
        from repro.obs import Observability

        obs, sink = Observability.in_memory()
        spec = spec_of("conviva", "C2")
        engine = ShardedQueryEngine(
            catalogs["conviva"],
            spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11, shards=2),
            obs=obs,
        )
        list(engine.run(spec.plan, 3))
        obs.close()
        spans = [
            e for e in sink.events
            if e.get("kind") == "span" and e.get("name") == "shard-batch"
        ]
        assert {s["args"]["shard"] for s in spans} == {0, 1}
        assert len(spans) == 2 * 3
        counters = {
            e["name"] for e in sink.events if e.get("kind") == "counter"
        }
        assert "shard.0.seen_rows" in counters
        assert "shard.1.cpu_seconds" in counters

    def test_run_to_completion(self, catalogs):
        spec = spec_of("conviva", "C2")
        engine = ShardedQueryEngine(
            catalogs["conviva"],
            spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11, shards=2),
        )
        final = engine.run_to_completion(spec.plan, 3)
        assert final.is_final
        serial = run_serial(spec, catalogs["conviva"])
        # run_serial uses BATCHES batches; rerun at 3 for the comparison.
        ref = OnlineQueryEngine(
            catalogs["conviva"],
            spec.streamed_table,
            OnlineConfig(num_trials=TRIALS, seed=11),
        ).run_to_completion(spec.plan, 3)
        assert_rows_bit_identical(canon(ref.rows), final.rows, "C2 final")

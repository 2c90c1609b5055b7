"""Tests for the executor layer: unit order, failures, instrumentation.

The serial executor runs the compiled units in block-topological order,
one at a time; the engines accept no other scheduler.
"""

import numpy as np
import pytest

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.compiler import ExecutionUnit
from repro.core.values import UncertainValue
from repro.engine import SerialExecutor
from repro.engine.shards import ShardedQueryEngine
from tests.conftest import KX_SCHEMA, random_kx
from repro.relational import Catalog, avg, col, scan, sum_
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)


class _Unit(ExecutionUnit):
    def __init__(self, label, produces=(), consumes=()):
        self.label = label
        self.produces = frozenset(produces)
        self.consumes = frozenset(consumes)

    def run(self, ctx):
        pass


class TestEntryPoints:
    def test_parallel_executor_rejected(self):
        catalog = Catalog({"t": random_kx(10, seed=0, groups=2)})
        for cls in (OnlineQueryEngine, ShardedQueryEngine):
            with pytest.raises(ValueError, match="'parallel'"):
                cls(catalog, "t", executor="parallel")
            cls(catalog, "t", executor="serial")


def _canonical(rows, names):
    """Sort rows by their point values for order-insensitive comparison."""

    def point(v):
        return v.value if isinstance(v, UncertainValue) else v

    return sorted(rows, key=lambda r: tuple(repr(point(r[n])) for n in names))


def _assert_rows_identical(rows_a, rows_b, names, where):
    assert len(rows_a) == len(rows_b), where
    for ra, rb in zip(_canonical(rows_a, names), _canonical(rows_b, names)):
        for name in names:
            va, vb = ra[name], rb[name]
            if isinstance(va, UncertainValue):
                assert isinstance(vb, UncertainValue), where
                assert va.value == vb.value, f"{where}: {name}"
                assert np.array_equal(va.trials, vb.trials, equal_nan=True), (
                    f"{where}: {name} trials"
                )
            else:
                assert va == vb, f"{where}: {name}"


def _run_both(spec, catalog, num_batches=6, num_trials=20, seed=7):
    results = {}
    metrics = {}
    for name, shards in (("serial", 0), ("parallel", 2)):
        engine_cls = ShardedQueryEngine if shards else OnlineQueryEngine
        engine = engine_cls(
            catalog,
            spec.streamed_table,
            OnlineConfig(num_trials=num_trials, seed=seed, shards=shards),
        )
        results[name] = list(engine.run(spec.plan, num_batches))
        metrics[name] = engine.metrics
    return results, metrics


@pytest.mark.parametrize(
    "workload,name",
    [
        ("tpch", "Q1"),     # flat
        ("tpch", "Q17"),    # nested, correlated
        ("conviva", "C3"),  # flat
        ("conviva", "C2"),  # nested (SBI)
    ],
)
def test_parallel_matches_serial(workload, name):
    """Property: the serial engine and two shard worker processes (or the
    single-process fallback, for plans that do not shard) yield
    bit-identical partial results (points and bootstrap trials) for every
    batch."""
    if workload == "tpch":
        catalog = generate_tpch(scale=0.5, seed=3).catalog()
        spec = TPCH_QUERIES[name]
    else:
        catalog = generate_conviva(scale=0.5, seed=3).catalog()
        spec = CONVIVA_QUERIES[name]
    results, metrics = _run_both(spec, catalog)
    names = results["serial"][0].schema.names if results["serial"] else []
    assert len(results["serial"]) == len(results["parallel"])
    for ps, pp in zip(results["serial"], results["parallel"]):
        assert ps.batch_no == pp.batch_no
        _assert_rows_identical(
            ps.rows, pp.rows, names, f"{name} batch {ps.batch_no}"
        )
    # Deterministic counters must agree too (timings obviously differ):
    # shards own disjoint rows, so their merged counts are the serial ones.
    ms, mp = metrics["serial"], metrics["parallel"]
    assert ms.total_recomputed == mp.total_recomputed
    assert ms.total_shipped_bytes == mp.total_shipped_bytes
    for bs, bp in zip(ms.batches, mp.batches):
        assert bs.new_tuples == bp.new_tuples


class TestOpSeconds:
    def test_per_operator_and_per_unit_timings_recorded(self):
        catalog = Catalog({"t": random_kx(400, seed=1, groups=4)})
        plan = scan("t", KX_SCHEMA).select(col("x") > 10.0).aggregate(
            ["k"], [sum_("y", "sy")]
        )
        engine = OnlineQueryEngine(
            catalog, "t", OnlineConfig(num_trials=10, seed=1)
        )
        engine.run_to_completion(plan, 4)
        for bm in engine.metrics.batches:
            labels = set(bm.op_seconds)
            assert any(label.startswith("scan:") for label in labels)
            assert any(label.startswith("aggregate:") for label in labels)
            assert any(label.startswith("pipeline:") for label in labels)
        totals = engine.metrics.total_op_seconds()
        assert all(seconds >= 0 for seconds in totals.values())

    def test_parallel_records_same_labels(self):
        """Shard workers time the same operators; the scheduler merges
        their labels into the parent's batch metrics."""
        catalog = Catalog({"t": random_kx(400, seed=1, groups=4)})
        plan = scan("t", KX_SCHEMA).select(col("x") > 10.0).aggregate(
            ["k"], [sum_("y", "sy")]
        )
        serial = OnlineQueryEngine(
            catalog, "t", OnlineConfig(num_trials=10, seed=1)
        )
        serial.run_to_completion(plan, 3)
        parallel = ShardedQueryEngine(
            catalog, "t", OnlineConfig(num_trials=10, seed=1, shards=2)
        )
        parallel.run_to_completion(plan, 3)
        assert parallel.shard_plan.shardable
        assert set(serial.metrics.total_op_seconds()) == set(
            parallel.metrics.total_op_seconds()
        )


class _SleepUnit(_Unit):
    """A unit that just occupies its worker for a fixed time."""

    def __init__(self, label, produces, seconds):
        super().__init__(label, produces=produces)
        self.seconds = seconds

    def run(self, ctx):
        import time

        time.sleep(self.seconds)


def _fresh_ctx():
    from repro.core.blocks import RuntimeContext
    from repro.metrics import BatchMetrics

    rel = random_kx(10, seed=0, groups=2)
    ctx = RuntimeContext(Catalog({"t": rel}), "t", len(rel), OnlineConfig(num_trials=5))
    bm = BatchMetrics(1)
    ctx.begin_batch(1, rel, bm)
    return ctx, bm


class TestUnitSeconds:
    """wall_seconds is the controller's true batch elapsed; unit_seconds is
    the occupancy sum over units."""

    def test_serial_accumulates_unit_seconds(self):
        ctx, bm = _fresh_ctx()
        units = [_SleepUnit("a", {1}, 0.01), _SleepUnit("b", {2}, 0.01)]
        SerialExecutor().execute(units, ctx)
        assert bm.unit_seconds >= 0.02

    def test_merge_folds_unit_seconds_not_wall(self):
        from repro.metrics import BatchMetrics

        a = BatchMetrics(1)
        a.wall_seconds = 5.0
        scratch = BatchMetrics(1)
        scratch.unit_seconds = 2.0
        scratch.wall_seconds = 99.0  # scratches never own wall time
        a.merge_from(scratch)
        assert a.unit_seconds == 2.0
        assert a.wall_seconds == 5.0


class _FailUnit(_Unit):
    def __init__(self, label, produces, message):
        super().__init__(label, produces=produces)
        self.message = message

    def run(self, ctx):
        raise RuntimeError(self.message)


class TestFailurePropagation:
    def test_first_failure_stops_the_batch(self):
        ran = []

        class _Recording(_Unit):
            def run(self, ctx):
                ran.append(self.label)

        ctx, _ = _fresh_ctx()
        units = [
            _Recording("a", produces={0}),
            _FailUnit("f1", {1}, "first"),
            _Recording("b", produces={2}),
        ]
        with pytest.raises(RuntimeError, match="first"):
            SerialExecutor().execute(units, ctx)
        assert ran == ["a"]


class TestEngineReuse:
    def test_engine_reusable_across_runs(self):
        catalog = Catalog({"t": random_kx(300, seed=0, groups=6)})
        plan = scan("t", KX_SCHEMA).aggregate(["k"], [avg("x", "ax")])
        eng = OnlineQueryEngine(catalog, "t", OnlineConfig(num_trials=5))
        first = eng.run_to_completion(plan, 3)
        second = eng.run_to_completion(plan, 3)
        assert first.sorted_plain_rows() == second.sorted_plain_rows()

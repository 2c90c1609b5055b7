"""Pickle round-trips for everything that crosses the shard pipe.

The worker protocol ships full engine types between processes: the
catalog's relations (with encoding and lineage sidecars), disk-table
chunk views (memmap-backed buffers), partial-result rows holding
:class:`UncertainValue` cells, batch metrics, and the task/result
envelopes themselves. Each round-trip must preserve value bits — the
shard layer's determinism contract starts at the pipe.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import OnlineConfig
from repro.core.values import UncertainValue
from repro.engine.shards import (
    BatchTask,
    InitTask,
    ShardFailure,
    ShardResult,
    ShardSpec,
    StopTask,
)
from repro.metrics.stats import BatchMetrics
from repro.relational import ColumnType, Schema, relation_from_columns
from repro.relational.relation import Relation
from repro.storage import ingest_chunks
from repro.storage.lineage import lineage_from_refs
from repro.workloads import TPCH_QUERIES


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def assert_relation_equal(a: Relation, b: Relation):
    assert a.schema.names == b.schema.names
    assert len(a) == len(b)
    for name in a.schema.names:
        ca, cb = a.columns[name], b.columns[name]
        assert ca.dtype == cb.dtype
        if ca.dtype.kind == "f":
            assert np.array_equal(ca, cb, equal_nan=True), name
        else:
            assert all(
                x == y or (x != x and y != y) for x, y in zip(ca, cb)
            ), name
    assert np.array_equal(a.mult, b.mult)
    if a.trial_mults is None:
        assert b.trial_mults is None
    else:
        assert np.array_equal(a.trial_mults, b.trial_mults)


class TestRelationRoundTrip:
    def test_plain(self, kx_relation):
        assert_relation_equal(kx_relation, roundtrip(kx_relation))

    def test_with_trials(self, kx_relation):
        trials = np.arange(len(kx_relation) * 3, dtype=np.float64).reshape(
            len(kx_relation), 3
        )
        tagged = kx_relation.with_mult(kx_relation.mult, trials)
        assert_relation_equal(tagged, roundtrip(tagged))

    def test_sidecars_survive(self, tmp_path):
        """A DiskTable chunk view (encoded strings + memmap numerics)
        pickles into a self-contained relation, sidecars intact."""
        schema = Schema(
            [("k", ColumnType.INT), ("s", ColumnType.STRING),
             ("x", ColumnType.FLOAT)]
        )
        src = relation_from_columns(
            schema,
            k=[1, 2, 3, 4], s=["a", "b", "a", "c"], x=[1.5, 2.5, 3.5, 4.5],
        )
        table = ingest_chunks(str(tmp_path / "t"), schema, [src, src])
        view = table.chunk(0)
        assert "s" in view.encodings  # precondition: sidecar attached
        back = roundtrip(view)
        assert_relation_equal(view, back)
        assert "s" in back.encodings
        enc_a, enc_b = view.encodings["s"], back.encodings["s"]
        assert np.array_equal(enc_a.codes, enc_b.codes)
        assert enc_a.page.tolist() == enc_b.page.tolist()
        # The unpickled sidecar dict must be private, not the shared
        # empty-dict singleton or an alias of the original.
        back.encodings["__probe__"] = None
        assert "__probe__" not in view.encodings
        assert "__probe__" not in Relation._from_parts(
            schema, dict(src.columns), src.mult, None
        ).encodings

    def test_lineage_sidecar(self, kx_relation):
        pool = np.array(["g0", "g1"], dtype=object)
        slots = np.array([0, 1] * 6)
        lin = lineage_from_refs("blk", pool, slots)
        rel = Relation._from_parts(
            kx_relation.schema,
            dict(kx_relation.columns),
            kx_relation.mult,
            None,
            lineage={"k": lin},
        )
        back = roundtrip(rel)
        assert "k" in back.lineage
        assert np.array_equal(back.lineage["k"].slots, lin.slots)
        assert list(back.lineage["k"].blocks) == ["blk"]

    def test_whole_disk_table_relation(self, tmp_path):
        schema = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])
        src = relation_from_columns(schema, k=[1, 2], x=[0.25, -0.5])
        table = ingest_chunks(str(tmp_path / "t2"), schema, [src])
        back = roundtrip(table.relation())
        assert_relation_equal(table.relation(), back)

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(
            st.one_of(
                st.floats(allow_infinity=False), st.just(float("nan"))
            ),
            max_size=30,
        )
    )
    def test_float_columns_bitwise(self, xs):
        schema = Schema([("x", ColumnType.FLOAT)])
        rel = relation_from_columns(schema, x=np.array(xs, dtype=np.float64))
        back = roundtrip(rel)
        a, b = rel.columns["x"], back.columns["x"]
        # bit-level equality, not just value equality (NaN payloads, -0.0)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @settings(max_examples=40, deadline=None)
    @given(
        ss=st.lists(
            st.one_of(st.text(max_size=8), st.none()), max_size=30
        )
    )
    def test_object_columns_with_none(self, ss):
        schema = Schema([("s", ColumnType.STRING)])
        rel = relation_from_columns(schema, s=np.array(ss, dtype=object))
        back = roundtrip(rel)
        assert list(back.columns["s"]) == list(rel.columns["s"])

    def test_empty_relation(self):
        schema = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])
        rel = relation_from_columns(schema, k=[], x=[])
        back = roundtrip(rel)
        assert len(back) == 0
        assert back.schema.names == ["k", "x"]


class TestResultRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        point=st.one_of(
            st.floats(allow_infinity=False), st.just(float("nan"))
        ),
        trials=st.lists(
            st.floats(allow_infinity=False, allow_nan=False), max_size=16
        ),
    )
    def test_uncertain_value(self, point, trials):
        uv = UncertainValue(point, np.array(trials, dtype=np.float64))
        back = roundtrip(uv)
        assert back.value == point or (
            back.value != back.value and point != point
        )
        assert np.array_equal(back.trials, uv.trials, equal_nan=True)

    def test_batch_metrics(self):
        bm = BatchMetrics(3)
        bm.new_tuples = 128
        bm.wall_seconds = 0.125
        bm.recovered = True
        back = roundtrip(bm)
        assert back.batch_no == 3
        assert back.new_tuples == 128
        assert back.wall_seconds == 0.125
        assert back.recovered

    def test_shard_result(self):
        rows = [
            {"k": 1, "v": UncertainValue(2.5, np.array([2.0, 3.0]))},
            {"k": 2, "v": UncertainValue(math.nan, np.array([math.nan]))},
        ]
        bm = BatchMetrics(1)
        res = ShardResult(
            shard_index=1, batch_no=1, rows=rows, metrics=bm,
            counters={"seen_rows": 10.0}, cpu_seconds=0.5,
        )
        back = roundtrip(res)
        assert back.shard_index == 1 and back.cpu_seconds == 0.5
        assert back.counters == {"seen_rows": 10.0}
        assert back.rows[0]["v"].value == 2.5
        assert np.array_equal(
            back.rows[1]["v"].trials, rows[1]["v"].trials, equal_nan=True
        )


class TestEnvelopeRoundTrip:
    def test_init_task(self, tpch_small):
        catalog = tpch_small.catalog()
        spec = TPCH_QUERIES["Q1"]
        task = InitTask(
            tables={name: catalog.get(name) for name in catalog},
            streamed_table=spec.streamed_table,
            plan=spec.plan,
            config=OnlineConfig(num_trials=8, seed=3, shards=2),
            num_batches=4,
            partition_mode="shuffle",
            shard=ShardSpec(index=1, count=2, key=("returnflag",)),
        )
        back = roundtrip(task)
        assert back.shard == ShardSpec(1, 2, ("returnflag",))
        assert back.config.num_trials == 8 and back.config.shards == 2
        assert set(back.tables) == set(task.tables)
        assert_relation_equal(
            task.tables["lineorder"], back.tables["lineorder"]
        )
        # The plan must compile identically after crossing the pipe.
        from repro.core.compiler import compile_online
        from repro.relational.catalog import Catalog

        compiled = compile_online(
            back.plan, Catalog(back.tables), back.streamed_table
        )
        reference = compile_online(spec.plan, catalog, spec.streamed_table)
        assert compiled.result_schema.names == reference.result_schema.names

    def test_control_tasks(self):
        assert roundtrip(BatchTask(7)) == BatchTask(7)
        assert roundtrip(BatchTask(2, replay=True)).replay
        assert isinstance(roundtrip(StopTask()), StopTask)
        fail = ShardFailure(0, 3, "ReproError", "boom", "Traceback ...")
        back = roundtrip(fail)
        assert (back.kind, back.batch_no, back.traceback) == (
            "ReproError", 3, "Traceback ...",
        )

    def test_fault_plan_in_config(self):
        cfg = OnlineConfig(faults="shard@3:1,sentinel@2", shards=2)
        back = roundtrip(cfg)
        assert back.faults == "shard@3:1,sentinel@2"


@pytest.mark.parametrize("protocol", [2, pickle.HIGHEST_PROTOCOL])
def test_protocol_compat(kx_relation, protocol):
    """multiprocessing pipes use the default protocol, but the envelopes
    must not depend on a specific one."""
    data = pickle.dumps(kx_relation, protocol=protocol)
    assert_relation_equal(kx_relation, pickle.loads(data))

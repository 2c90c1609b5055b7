"""Bit-identity tests for the vectorized kernel layer (repro.kernels).

Every kernel is pinned against a standalone reference — the per-row
fallback the engine keeps for inputs outside the kernel's reach, or an
independent dict/loop implementation; the contract is *bit-identical*
output, not approximate equality. These tests cover hand-picked edge
cases; the property suite (tests/test_properties.py) covers randomized
inputs. Whole-engine runs are checked bit for bit across storage sidecars
and process shards here, and against Theorem 1 in
tests/test_online_engine.py.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import OnlineQueryEngine, classify
from repro.core.blocks import (
    MEMBER_FALSE,
    MEMBER_TRUE,
    MEMBER_UNKNOWN,
    BlockOutput,
    GroupValue,
    OnlineConfig,
    RuntimeContext,
)
from repro.core.operators.base import SpineOp, StateRule, TagRule
from repro.core.operators.join import UncertainJoinOp
from repro.core.sentinels import SentinelStore
from repro.core.values import LineageRef, UncertainValue, VariationRange
from repro.engine.shards import ShardedQueryEngine
from repro.kernels import views
from repro.kernels.codec import factorize_keys, recode_subset
from repro.kernels.holistic import (
    grouped_indices,
    weighted_quantile,
    weighted_quantile_trials,
)
from repro.kernels.joins import SideIndex, vectorized_join
from repro.kernels.stats import STATS
from repro.kernels.views import GroupTable, group_table
from repro.relational import Catalog, ColumnType, Relation, Schema, relation_from_columns
from repro.relational.aggregates import AGG_FUNCTIONS, AggregateFunction, Median, Quantile
from repro.relational.evaluator import join_relations
from repro.relational.expressions import Arith, Col, Comparison, col, lit
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES
from tests.test_shards import canon


def make_ctx(t=4):
    ctx = RuntimeContext(Catalog({}), "t", 100, OnlineConfig(num_trials=t))
    ctx.batch_no = 1
    return ctx


class TestOneEnginePath:
    def test_vectorize_true_constructs(self):
        assert OnlineConfig(vectorize=True).vectorize is True

    @pytest.mark.parametrize("value", [False, None, 0, 1, "yes"])
    def test_any_other_vectorize_value_raises(self, value):
        with pytest.raises(ValueError, match="row-wise engine path was removed"):
            OnlineConfig(vectorize=value)


def reference_codes(rel, names):
    """The dict-based reference the codec must reproduce."""
    mapping, keys = {}, []
    keyed = rel.key_tuples(list(names)) if names else [()] * len(rel)
    codes = np.empty(len(rel), dtype=np.intp)
    for i, key in enumerate(keyed):
        gid = mapping.get(key)
        if gid is None:
            gid = len(keys)
            mapping[key] = gid
            keys.append(key)
        codes[i] = gid
    return keys, codes


def keys_equal(a, b):
    """Key-tuple list equality, NaN-aware (NaN keys group by identity in
    both paths, so positionally-matching NaNs are the same group)."""
    if len(a) != len(b):
        return False
    for ka, kb in zip(a, b):
        if len(ka) != len(kb):
            return False
        for va, vb in zip(ka, kb):
            if type(va) is not type(vb):
                return False
            if isinstance(va, float) and np.isnan(va) and np.isnan(vb):
                continue
            if va != vb:
                return False
    return True


class TestKeyCodec:
    def check(self, rel, names):
        kc = factorize_keys(rel, names)
        ref_keys, ref_codes = reference_codes(rel, names)
        # Keys must be value- and type-interchangeable with the reference's.
        assert keys_equal(kc.keys, ref_keys)
        assert np.array_equal(kc.codes, ref_codes)
        return kc

    def rel(self, **cols):
        names = list(cols)
        types = []
        for name in names:
            sample = cols[name][0] if len(cols[name]) else 0
            if isinstance(sample, str):
                types.append((name, ColumnType.STRING))
            elif isinstance(sample, float):
                types.append((name, ColumnType.FLOAT))
            else:
                types.append((name, ColumnType.INT))
        return relation_from_columns(Schema(types), **cols)

    def test_multi_column_int_keys(self):
        rel = self.rel(a=[3, 1, 3, 1, 2, 3], b=[0, 1, 0, 1, 0, 1])
        self.check(rel, ["a", "b"])

    def test_single_column(self):
        self.check(self.rel(a=[5, 5, 2, 9, 2]), ["a"])

    def test_string_keys(self):
        self.check(self.rel(s=["x", "y", "x", "z", "y"]), ["s"])

    def test_empty_relation(self):
        kc = self.check(self.rel(a=[]), ["a"])
        assert kc.num_keys == 0

    def test_single_row(self):
        self.check(self.rel(a=[7], b=[1]), ["a", "b"])

    def test_scalar_key_no_columns(self):
        rel = self.rel(a=[1, 2, 3])
        kc = factorize_keys(rel, [])
        assert kc.keys == [()]
        assert np.array_equal(kc.codes, np.zeros(3, dtype=np.intp))
        # Zero rows -> zero keys (reference derives keys from rows).
        assert factorize_keys(self.rel(a=[]), []).keys == []

    def test_nan_keys_fall_back_to_dict(self):
        # np.unique collapses NaNs; dict keys treat every NaN as distinct.
        rel = self.rel(f=[1.0, float("nan"), 1.0, float("nan")])
        self.check(rel, ["f"])

    def test_unorderable_object_keys_fall_back(self):
        schema = Schema([("o", ColumnType.STRING)])
        vals = np.empty(4, dtype=object)
        vals[0], vals[1], vals[2], vals[3] = "a", None, "a", None
        rel = Relation(schema, {"o": vals})
        self.check(rel, ["o"])

    def test_memoized_per_relation(self):
        rel = self.rel(a=[1, 2, 1])
        STATS.reset()
        first = factorize_keys(rel, ["a"])
        second = factorize_keys(rel, ["a"])
        assert first is second
        snap = STATS.snapshot()
        assert snap["codec_misses"] == 1 and snap["codec_hits"] == 1

    def test_recode_subset_matches_masked_reference(self):
        rel = self.rel(a=[3, 1, 3, 2, 1, 2, 3])
        kc = factorize_keys(rel, ["a"])
        mask = np.array([False, True, True, False, True, True, True])
        keys, codes = recode_subset(kc, mask)
        ref_keys, ref_codes = reference_codes(rel.filter(mask), ["a"])
        assert keys == ref_keys
        assert np.array_equal(codes, ref_codes)

    def test_recode_subset_empty(self):
        kc = factorize_keys(self.rel(a=[1, 2]), ["a"])
        keys, codes = recode_subset(kc, np.zeros(2, dtype=bool))
        assert keys == [] and len(codes) == 0


def _sides(seed=0, n_left=40, n_right=12):
    rng = np.random.default_rng(seed)
    left = relation_from_columns(
        Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)]),
        k=rng.integers(0, 8, n_left),
        x=rng.normal(0, 1, n_left),
    )
    right = relation_from_columns(
        Schema([("k2", ColumnType.INT), ("v", ColumnType.FLOAT)]),
        k2=rng.integers(0, 8, n_right),
        v=rng.normal(0, 1, n_right),
    )
    return left, right


def assert_rel_identical(a: Relation, b: Relation):
    assert a.schema.names == b.schema.names
    for name in a.schema.names:
        assert np.array_equal(a.columns[name], b.columns[name]), name
    assert np.array_equal(a.mult, b.mult)
    if a.trial_mults is None:
        assert b.trial_mults is None
    else:
        assert np.array_equal(a.trial_mults, b.trial_mults)


class TestVectorizedJoin:
    def test_matches_reference_exactly(self):
        left, right = _sides()
        ref = join_relations(left, right, [("k", "k2")])
        out = vectorized_join(left, right, [("k", "k2")])
        assert_rel_identical(out, ref)

    def test_with_trial_mults(self):
        left, right = _sides(seed=3)
        rng = np.random.default_rng(9)
        left = left.with_mult(left.mult, rng.poisson(1.0, (len(left), 5)).astype(float))
        ref = join_relations(left, right, [("k", "k2")])
        out = vectorized_join(left, right, [("k", "k2")])
        assert_rel_identical(out, ref)

    def test_prebuilt_index(self):
        left, right = _sides(seed=5)
        index = SideIndex(right, ["k2"])
        out = vectorized_join(left, right, [("k", "k2")], index)
        assert_rel_identical(out, join_relations(left, right, [("k", "k2")]))

    def test_empty_left(self):
        left, right = _sides()
        left = left.filter(np.zeros(len(left), dtype=bool))
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")]),
            join_relations(left, right, [("k", "k2")]),
        )

    def test_empty_right(self):
        left, right = _sides()
        right = right.filter(np.zeros(len(right), dtype=bool))
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")]),
            join_relations(left, right, [("k", "k2")]),
        )

    def test_cross_join_delegates(self):
        left, right = _sides(n_left=4, n_right=3)
        assert_rel_identical(
            vectorized_join(left, right, []), join_relations(left, right, [])
        )

    def test_no_match_keys(self):
        left, right = _sides()
        right = Relation(
            right.schema,
            {"k2": right.columns["k2"] + 100, "v": right.columns["v"]},
            right.mult,
            right.trial_mults,
        )
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")]),
            join_relations(left, right, [("k", "k2")]),
        )


def _view(t=4):
    out = BlockOutput(7, ["k2"], ["ax"])
    statuses = [
        (0, MEMBER_TRUE, True, True, None),
        (1, MEMBER_FALSE, True, False, None),
        (2, MEMBER_UNKNOWN, True, True, np.array([True, False, True, False])),
        (3, MEMBER_UNKNOWN, False, False, np.array([False, False, True, True])),
        (4, MEMBER_TRUE, False, True, np.array([True, True, False, True])),
    ]
    for k, status, certain, point, exist in statuses:
        uv = UncertainValue(
            float(k), np.full(t, float(k)), VariationRange(k - 1.0, k + 1.0),
            LineageRef(7, (k,), "ax"),
        )
        out.publish(
            GroupValue(
                (k,), {"ax": uv, "lbl": k * 10}, certain,
                member_status=status, member_point=point, exist_trials=exist,
            ),
            is_new=True,
        )
    return out


class TestGroupTable:
    def test_constants_align_with_classify(self):
        assert views.TRUE == classify.TRUE
        assert views.FALSE == classify.FALSE
        assert views.UNKNOWN == classify.UNKNOWN
        assert views.PENDING == classify.PENDING

    def test_probe_matches_view_get(self):
        view = _view()
        table = GroupTable(view)
        keys = [(0,), (99,), (3,), (2,)]
        slots = table.probe(keys)
        for key, slot in zip(keys, slots):
            if slot < 0:
                assert view.get(key) is None
            else:
                assert table.groups[slot] is view.get(key)

    def test_status_matches_group_flags(self):
        view = _view()
        table = GroupTable(view)
        for slot, group in enumerate(table.groups):
            if group.certainly_in:
                assert table.status[slot] == views.TRUE
            elif group.certainly_out:
                assert table.status[slot] == views.FALSE
            else:
                assert table.status[slot] == views.UNKNOWN
            assert table.member_point[slot] == group.member_point

    def test_exist_matrix(self):
        view = _view()
        table = GroupTable(view)
        mat = table.exist_matrix(4)
        for slot, group in enumerate(table.groups):
            assert np.array_equal(mat[slot], group.exist_in_trial(4))

    def test_memoized_per_view(self):
        view = _view()
        STATS.reset()
        assert group_table(view) is group_table(view)
        snap = STATS.snapshot()
        assert snap["view_table_misses"] == 1 and snap["view_table_hits"] == 1


class _StubChild(SpineOp):
    tag_rule = TagRule()
    state_rule = StateRule()


class TestAttachCoded:
    """Regression: vectorized attach equals the per-row reference fills."""

    def make_op(self):
        stream_schema = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])
        out_schema = Schema(
            [
                ("k", ColumnType.INT),
                ("x", ColumnType.FLOAT),
                ("ax", ColumnType.FLOAT),
                ("lbl", ColumnType.INT),
            ]
        )
        child = _StubChild("src", stream_schema, set())
        return UncertainJoinOp(
            child, 7, ["k"], [("ax", True), ("lbl", False)], out_schema, 1
        )

    def stream(self, keys):
        return relation_from_columns(
            Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)]),
            k=keys,
            x=[float(i) for i in range(len(keys))],
        )

    def test_attach_equality(self):
        op = self.make_op()
        view = _view()
        table = GroupTable(view)
        rel = self.stream([0, 2, 4, 0, 3])
        slots = table.probe([(k,) for k in rel.columns["k"].tolist()])
        groups = [view.get((k,)) for k in rel.columns["k"].tolist()]
        ref = op._attach(rel, groups)
        out = op._attach_coded(rel, table, slots)
        assert out.schema.names == ref.schema.names
        assert np.array_equal(out.columns["lbl"], ref.columns["lbl"])
        assert out.columns["lbl"].dtype == ref.columns["lbl"].dtype
        # Lineage refs compare by value: pooled instances are equivalent.
        assert list(out.columns["ax"]) == list(ref.columns["ax"])
        assert np.array_equal(out.mult, ref.mult)

    def test_attach_empty(self):
        op = self.make_op()
        rel = self.stream([])
        out = op._attach_coded(rel, None, np.empty(0, dtype=np.intp))
        ref = op._attach(rel, [])
        assert out.schema.names == ref.schema.names
        for name in out.schema.names:
            assert out.columns[name].dtype == ref.columns[name].dtype
            assert len(out.columns[name]) == 0


def publish_block(ctx, block, key, value, trials, lo, hi, colname="v"):
    out = ctx.blocks.get(block) or BlockOutput(block, [], [colname])
    uv = UncertainValue(
        value,
        np.asarray(trials, dtype=float),
        VariationRange(lo, hi),
        LineageRef(block, key, colname),
    )
    out.publish(GroupValue(key, {colname: uv}, True), is_new=True)
    ctx.blocks[block] = out


class TestResolveKernel:
    """kernels.resolve vs the per-row ``evaluate_side_per_row`` reference."""

    SCHEMA = Schema([("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT)])

    def rel(self, d_values, keys):
        n = len(d_values)
        refs = np.empty(n, dtype=object)
        for i in range(n):
            refs[i] = LineageRef(1, (keys[i],), "v")
        return Relation(
            self.SCHEMA, {"d": np.asarray(d_values, dtype=float), "u": refs}
        )

    def context(self, publish_keys=(0, 1), t=4):
        ctx = make_ctx(t=t)
        for k in publish_keys:
            publish_block(
                ctx, 1, (k,), 10.0 + k, [10.0 + k + j * 0.5 for j in range(t)],
                8.0 + k, 12.0 + k,
            )
        return ctx

    def assert_sides_equal(self, expr, rel, t=4, publish_keys=(0, 1)):
        ctx = self.context(publish_keys, t)
        vec = classify.evaluate_side(expr, rel, {"u"}, ctx)
        ref = classify.evaluate_side_per_row(expr, rel, {"u"}, ctx)
        assert np.array_equal(vec.lo, ref.lo, equal_nan=True)
        assert np.array_equal(vec.hi, ref.hi, equal_nan=True)
        assert np.array_equal(vec.point, ref.point, equal_nan=True)
        assert np.array_equal(
            np.asarray(vec.trial_matrix(t)), np.asarray(ref.trial_matrix(t)),
            equal_nan=True,
        )
        assert np.array_equal(vec.pending, ref.pending)
        assert vec.refs == ref.refs

    def test_bare_column(self):
        self.assert_sides_equal(Col("u"), self.rel([0.0, 0.0, 0.0], [0, 1, 0]))

    def test_arith_with_literal(self):
        rel = self.rel([2.0, 4.0], [0, 1])
        self.assert_sides_equal(Col("u") * 0.5 + lit(1.0), rel)
        self.assert_sides_equal(Col("u") - col("d"), rel)
        self.assert_sides_equal(col("d") * Col("u"), rel)

    def test_division_range_crossing_zero(self):
        ctx = self.context((0,))
        publish_block(ctx, 1, (9,), 0.5, [0.5] * 4, -1.0, 2.0)
        rel = self.rel([6.0, 6.0], [0, 9])
        expr = col("d") / Col("u")
        vec = classify.evaluate_side(expr, rel, {"u"}, ctx)
        ref = classify.evaluate_side_per_row(expr, rel, {"u"}, ctx)
        assert np.array_equal(vec.lo, ref.lo, equal_nan=True)
        assert np.array_equal(vec.hi, ref.hi, equal_nan=True)
        assert vec.lo[1] == -np.inf and vec.hi[1] == np.inf

    def test_pending_refs(self):
        # Key 5 never published: rows referencing it are pending, NaN-filled.
        rel = self.rel([1.0, 2.0, 3.0], [0, 5, 1])
        self.assert_sides_equal(Col("u") + lit(1.0), rel)
        self.assert_sides_equal(Col("u"), rel)

    def test_modulo_outside_kernel_dialect(self):
        # % has no interval rule: the kernel declines any tree holding one,
        # and evaluate_side hands it to the per-row fallback.
        from repro.kernels import resolve as kresolve

        ctx = self.context((0,))
        rel = self.rel([2.0, 7.0], [0, 0])
        for expr in (
            Arith("%", Col("u"), lit(3.0)),
            Col("u") + Arith("%", col("d"), lit(3.0)),
        ):
            assert kresolve.try_evaluate_side(expr, rel, {"u"}, ctx) is None
        self.assert_sides_equal(
            Col("u") + Arith("%", col("d"), lit(3.0)), rel, publish_keys=(0,)
        )

    def test_classification_identical(self, monkeypatch):
        rel = self.rel([20.0, 1.0, 10.5], [0, 0, 0])
        cmp_ = Comparison(">", Col("d"), Col("u"))
        vec = classify.classify_comparison(cmp_, rel, {"u"}, self.context())
        # The same classification with both sides taken per row.
        monkeypatch.setattr(classify, "evaluate_side", classify.evaluate_side_per_row)
        ref = classify.classify_comparison(cmp_, rel, {"u"}, self.context())
        assert np.array_equal(vec.status, ref.status)
        assert np.array_equal(vec.point, ref.point)
        vt, rt = vec.trial_matrix(4), ref.trial_matrix(4)
        assert np.array_equal(np.asarray(vt), np.asarray(rt))


class TestHolisticKernels:
    def naive_quantile(self, values, weights, q):
        """Independent reference: linear scan over sorted values."""
        order = np.argsort(values, kind="stable")
        cum = np.cumsum(np.asarray(weights, dtype=float)[order])
        total = cum[-1] if len(cum) else 0.0
        if not total > 0.0:
            return float("nan")
        idx = int(np.count_nonzero(cum < q * total))
        return float(np.asarray(values)[order[min(idx, len(values) - 1)]])

    def test_weighted_quantile_matches_naive(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.normal(0, 10, 37)
            w = rng.poisson(1.0, 37).astype(float)
            for q in (0.1, 0.5, 0.9, 1.0):
                got = weighted_quantile(v, w, q)
                want = self.naive_quantile(v, w, q)
                assert got == want or (np.isnan(got) and np.isnan(want))

    def test_trials_equal_per_column_scalar(self):
        rng = np.random.default_rng(1)
        v = rng.normal(0, 5, 50)
        tw = rng.poisson(1.0, (50, 16)).astype(float)
        for q in (0.25, 0.5, 0.95):
            vec = weighted_quantile_trials(v, tw, q)
            ref = np.array([weighted_quantile(v, tw[:, j], q) for j in range(16)])
            assert np.array_equal(vec, ref, equal_nan=True)

    def test_zero_weight_trials_are_nan(self):
        v = np.array([1.0, 2.0])
        tw = np.array([[1.0, 0.0], [1.0, 0.0]])
        out = weighted_quantile_trials(v, tw, 0.5)
        assert out[0] == 1.0 and np.isnan(out[1])

    def test_empty_group(self):
        assert np.isnan(weighted_quantile(np.empty(0), np.empty(0), 0.5))
        out = weighted_quantile_trials(np.empty(0), np.empty((0, 3)), 0.5)
        assert np.isnan(out).all()

    def test_grouped_indices_match_dict_reference(self):
        rng = np.random.default_rng(2)
        codes_src = rng.integers(0, 6, 80)
        keys, codes = reference_codes(
            relation_from_columns(
                Schema([("k", ColumnType.INT)]), k=codes_src
            ),
            ["k"],
        )
        by_group = {}
        for i, c in enumerate(codes):
            by_group.setdefault(c, []).append(i)
        ix_lists = grouped_indices(codes, len(keys))
        assert len(ix_lists) == len(by_group)
        for g, ix in enumerate(ix_lists):
            assert ix.tolist() == by_group[g]

    def test_quantile_trial_compute_equals_base_loop(self):
        rng = np.random.default_rng(3)
        v = rng.normal(0, 3, 40)
        tw = rng.poisson(1.0, (40, 9)).astype(float)
        func = Quantile(0.9)
        base = AggregateFunction.trial_compute(func, v, tw)
        assert np.array_equal(func.trial_compute(v, tw), base, equal_nan=True)

    def test_registry_exposes_median_and_quantiles(self):
        assert isinstance(AGG_FUNCTIONS["median"](), Median)
        assert AGG_FUNCTIONS["p95"]().q == 0.95
        with pytest.raises(Exception):
            Quantile(0.0)


class TestVectorizedSentinels:
    """``SentinelStore.record`` vs its sequential fold, called directly."""

    def make_stores(self):
        cmp_ = Comparison(">", Col("d"), Col("u"))
        return (
            SentinelStore([cmp_], {"u"}),
            SentinelStore([cmp_], {"u"}),
        )

    def rel(self, d_values, keys):
        n = len(d_values)
        refs = np.empty(n, dtype=object)
        for i in range(n):
            refs[i] = LineageRef(1, (keys[i],), "v")
        return Relation(
            Schema([("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT)]),
            {"d": np.asarray(d_values, dtype=float), "u": refs},
        )

    def assert_stores_equal(self, a, b):
        for sa, sb in zip(a._per_conjunct, b._per_conjunct):
            assert sa.true_side == sb.true_side
            assert sa.false_side == sb.false_side
            assert sa.ref_rows == sb.ref_rows

    def test_batched_fold_equals_sequential(self):
        rng = np.random.default_rng(4)
        vec, ref = self.make_stores()
        for _ in range(3):
            d = np.round(rng.normal(10, 5, 30), 3)
            keys = rng.integers(0, 4, 30)
            rel = self.rel(d, keys)
            rows = np.arange(30)
            expected = rng.random(30) > 0.5
            vec.record(0, rel, rows, expected)
            ref.record_sequential(0, rel, rows, expected)
        self.assert_stores_equal(vec, ref)

    def test_nan_det_values_use_reference(self):
        vec, ref = self.make_stores()
        d = np.array([1.0, float("nan"), 3.0])
        rel = self.rel(d, [0, 0, 1])
        rows = np.arange(3)
        expected = np.array([True, True, False])
        vec.record(0, rel, rows, expected)
        ref.record_sequential(0, rel, rows, expected)
        self.assert_stores_equal(vec, ref)

    def test_equality_op_uses_reference(self):
        cmp_ = Comparison("==", Col("d"), Col("u"))
        vec = SentinelStore([cmp_], {"u"})
        ref = SentinelStore([cmp_], {"u"})
        rel = self.rel([1.0, 2.0, 1.5], [0, 0, 0])
        rows = np.arange(3)
        expected = np.array([False, False, True])
        vec.record(0, rel, rows, expected)
        ref.record_sequential(0, rel, rows, expected)
        self.assert_stores_equal(vec, ref)


# -- whole-engine bit identity -----------------------------------------------------

ALL_QUERIES = [("tpch", name) for name in TPCH_QUERIES] + [
    ("conviva", name) for name in CONVIVA_QUERIES
]


def _run_spec(spec, catalog, shards=0, num_batches=3, num_trials=8):
    engine_cls = ShardedQueryEngine if shards else OnlineQueryEngine
    engine = engine_cls(
        catalog,
        spec.streamed_table,
        OnlineConfig(num_trials=num_trials, seed=7, shards=shards),
    )
    return list(engine.run(spec.plan, num_batches))


def canonical(partials):
    """Partials with their rows in the shard merge sink's order."""
    return [dataclasses.replace(p, rows=canon(p.rows)) for p in partials]


def without_sidecars(catalog):
    """The same tables rebuilt through the public constructor, which
    attaches no dictionary encodings or lineage sidecars."""
    return Catalog(
        {
            name: Relation(rel.schema, rel.columns, rel.mult, rel.trial_mults)
            for name, rel in ((n, catalog.get(n)) for n in catalog)
        }
    )


def _scalar_eq(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    return a == b


def assert_partials_identical(got, want, where):
    assert len(got) == len(want), where
    for pg, pw in zip(got, want):
        ctx = f"{where} batch {pw.batch_no}"
        assert pg.batch_no == pw.batch_no, ctx
        assert pg.fraction_processed == pw.fraction_processed, ctx
        assert pg.schema.names == pw.schema.names, ctx
        assert len(pg.rows) == len(pw.rows), ctx
        # Row order must match too: group ids follow first appearance
        # whichever way the keys were factorized.
        for rg, rw in zip(pg.rows, pw.rows):
            for name in pw.schema.names:
                vg, vw = rg[name], rw[name]
                if isinstance(vw, UncertainValue):
                    assert isinstance(vg, UncertainValue), f"{ctx}: {name}"
                    assert _scalar_eq(vg.value, vw.value), f"{ctx}: {name}"
                    assert np.array_equal(vg.trials, vw.trials, equal_nan=True), (
                        f"{ctx}: {name} trials"
                    )
                    assert _scalar_eq(vg.vrange.lo, vw.vrange.lo), f"{ctx}: {name} lo"
                    assert _scalar_eq(vg.vrange.hi, vw.vrange.hi), f"{ctx}: {name} hi"
                else:
                    assert _scalar_eq(vg, vw), f"{ctx}: {name}"


@pytest.fixture(scope="module")
def small_catalogs(tpch_small, conviva_small):
    return {"tpch": tpch_small.catalog(), "conviva": conviva_small.catalog()}


class TestFullRunBitIdentity:
    """Whole runs of every workload query must not change — per batch, per
    row, per trial, per range bound — with how the input is stored or how
    many processes run it."""

    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_serial(self, source, name, small_catalogs):
        """Sidecar neutrality: dictionary encodings only speed up key
        factorization, so a catalog without them gives the same answer."""
        spec = (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]
        catalog = small_catalogs[source]
        assert any(catalog.get(n).encodings for n in catalog)
        plain = without_sidecars(catalog)
        assert not any(plain.get(n).encodings for n in plain)
        encoded = _run_spec(spec, catalog)
        assert encoded, f"{name}: no partial results"
        assert_partials_identical(_run_spec(spec, plain), encoded, f"{name} sidecars")

    @pytest.mark.parametrize("source,name", ALL_QUERIES)
    def test_parallel(self, source, name, small_catalogs):
        """Two shard worker processes (the single-process fallback for
        plans that do not shard) agree with the serial engine bit for
        bit."""
        spec = (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]
        catalog = small_catalogs[source]
        serial = _run_spec(spec, catalog)
        assert serial, f"{name}: no partial results"
        # The shard merge sink emits rows in canonical order.
        assert_partials_identical(
            canonical(_run_spec(spec, catalog, shards=2)),
            canonical(serial),
            f"{name} shards=2",
        )

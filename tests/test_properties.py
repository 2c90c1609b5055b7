"""Property-based tests (hypothesis) on core invariants.

The headline property: for randomly generated datasets and randomly
parameterized queries from the supported class, the final online result
equals the batch evaluator's answer — i.e., Theorem 1 holds under fuzzing,
not just for hand-picked examples.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import run_batch
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.blocks import BlockOutput, GroupValue, RuntimeContext
from repro.core.classify import evaluate_side
from repro.core.values import LineageRef, UncertainValue, VariationRange
from repro.kernels.codec import factorize_keys
from repro.kernels.holistic import weighted_quantile, weighted_quantile_trials
from repro.kernels.joins import vectorized_join
from repro.relational import (
    Catalog,
    ColumnType,
    Relation,
    Schema,
    avg,
    col,
    count,
    evaluate,
    relation_from_columns,
    scan,
    stddev,
    sum_,
)
from repro.relational.aggregates import median
from repro.relational.evaluator import aggregate_relation, join_relations
from repro.relational.expressions import Col
from tests.conftest import KX_SCHEMA
from tests.test_kernels import (
    assert_partials_identical,
    assert_rel_identical,
    keys_equal,
    reference_codes,
)

fuzz = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def dataset(seed, n, groups):
    rng = np.random.default_rng(seed)
    return relation_from_columns(
        KX_SCHEMA,
        k=rng.integers(0, groups, n),
        x=np.round(rng.gamma(3.0, 4.0, n), 3),
        y=np.round(rng.normal(50.0, 15.0, n), 3),
    )


class TestBagAlgebraLaws:
    @fuzz
    @given(st.integers(0, 1000), st.integers(20, 300))
    def test_select_split_equals_conjunction(self, seed, n):
        rel = dataset(seed, n, 5)
        cat = Catalog({"t": rel})
        both = scan("t", KX_SCHEMA).select((col("x") > 8.0) & (col("y") > 45.0))
        split = scan("t", KX_SCHEMA).select(col("x") > 8.0).select(col("y") > 45.0)
        assert evaluate(both, cat).bag_equal(evaluate(split, cat))

    @fuzz
    @given(st.integers(0, 1000), st.integers(20, 200))
    def test_join_commutes_up_to_schema(self, seed, n):
        left = dataset(seed, n, 4)
        right = relation_from_columns(
            KX_SCHEMA.rename({"x": "u", "y": "v"}),
            k=[0, 1, 2, 3],
            u=[1.0, 2.0, 3.0, 4.0],
            v=[9.0, 8.0, 7.0, 6.0],
        )
        ab = join_relations(left, right, [("k", "k")])
        ba = join_relations(right, left, [("k", "k")])
        assert ab.project(["k", "x", "u"]).bag_equal(ba.project(["k", "x", "u"]))

    @fuzz
    @given(st.integers(0, 1000), st.integers(20, 200))
    def test_union_total_multiplicity_adds(self, seed, n):
        rel = dataset(seed, n, 4)
        assert rel.concat(rel).total_multiplicity() == pytest.approx(
            2 * rel.total_multiplicity()
        )

    @fuzz
    @given(st.integers(0, 1000), st.integers(20, 300), st.floats(0.5, 8.0))
    def test_aggregate_scaling_linearity(self, seed, n, factor):
        """SUM/COUNT scale linearly with multiplicities; AVG is invariant."""
        rel = dataset(seed, n, 4)
        specs = [sum_("x", "sx"), count("n"), avg("x", "ax")]
        base = aggregate_relation(rel, ["k"], specs)
        scaled = aggregate_relation(rel.scale(factor), ["k"], specs)
        b = {r["k"]: r for r in base.iter_rows()}
        s = {r["k"]: r for r in scaled.iter_rows()}
        for k in b:
            assert s[k]["sx"] == pytest.approx(factor * b[k]["sx"])
            assert s[k]["n"] == pytest.approx(factor * b[k]["n"])
            assert s[k]["ax"] == pytest.approx(b[k]["ax"])

    @fuzz
    @given(st.integers(0, 1000), st.integers(30, 300))
    def test_group_sums_partition_total(self, seed, n):
        rel = dataset(seed, n, 6)
        grouped = aggregate_relation(rel, ["k"], [sum_("x", "sx")])
        total = aggregate_relation(rel, [], [sum_("x", "sx")])
        assert grouped.column("sx").sum() == pytest.approx(total.row(0)["sx"])


class TestOnlineEqualsBatchFuzzed:
    def run_online(self, plan, cat, seed, batches):
        eng = OnlineQueryEngine(
            cat, "t", OnlineConfig(num_trials=15, seed=seed)
        )
        return eng.run_to_completion(plan, batches).to_relation()

    @fuzz
    @given(
        st.integers(0, 10_000),
        st.integers(100, 600),
        st.integers(2, 8),
        st.integers(2, 8),
    )
    def test_flat_grouped(self, seed, n, groups, batches):
        cat = Catalog({"t": dataset(seed, n, groups)})
        plan = (
            scan("t", KX_SCHEMA)
            .select(col("x") > 6.0)
            .aggregate(["k"], [sum_("y", "sy"), count("n"), stddev("x", "sd")])
        )
        exact = run_batch(plan, cat).relation
        assert self.run_online(plan, cat, seed, batches).bag_equal(exact, 3)

    @fuzz
    @given(
        st.integers(0, 10_000),
        st.integers(200, 800),
        st.floats(0.5, 1.5),
        st.integers(3, 7),
    )
    def test_nested_scalar(self, seed, n, threshold_factor, batches):
        cat = Catalog({"t": dataset(seed, n, 5)})
        inner = scan("t", KX_SCHEMA).aggregate([], [avg("x", "ax")])
        plan = (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[])
            .select(col("x") > col("ax") * threshold_factor)
            .aggregate([], [avg("y", "ay"), count("n")])
        )
        exact = run_batch(plan, cat).relation
        assert self.run_online(plan, cat, seed, batches).bag_equal(exact, 3)

    @fuzz
    @given(st.integers(0, 10_000), st.integers(200, 800), st.integers(3, 6))
    def test_correlated(self, seed, n, batches):
        cat = Catalog({"t": dataset(seed, n, 5)})
        inner = (
            scan("t", KX_SCHEMA)
            .aggregate(["k"], [avg("x", "ax")])
            .rename({"k": "k2"})
        )
        plan = (
            scan("t", KX_SCHEMA)
            .join(inner, keys=[("k", "k2")])
            .select(col("x") > col("ax"))
            .aggregate(["k"], [count("n")])
        )
        exact = run_batch(plan, cat).relation
        assert self.run_online(plan, cat, seed, batches).bag_equal(exact, 3)

    @fuzz
    @given(st.integers(0, 10_000), st.integers(200, 700), st.floats(400.0, 1200.0))
    def test_semijoin_threshold(self, seed, n, threshold):
        cat = Catalog({"t": dataset(seed, n, 6)})
        member = (
            scan("t", KX_SCHEMA)
            .aggregate(["k"], [sum_("x", "sx")])
            .select(col("sx") > threshold)
            .project([("k2", col("k"))])
        )
        plan = (
            scan("t", KX_SCHEMA)
            .join(member, keys=[("k", "k2")])
            .aggregate(["k"], [count("n")])
        )
        exact = run_batch(plan, cat).relation
        assert self.run_online(plan, cat, seed, 5).bag_equal(exact, 3)


class TestKernelsMatchReferenceFuzzed:
    """Every vectorized kernel equals its row-wise reference on randomized
    inputs, including the degenerate shapes the batch path rarely hits:
    empty relations, single rows, NaN-bearing float keys, object/lineage
    columns, and zero-multiplicity rows."""

    def keyed(self, seed, n, groups, with_nan, zero_mult):
        rng = np.random.default_rng(seed)
        f = np.round(rng.normal(0, 5, n), 2)
        if with_nan and n:
            f[rng.integers(0, n, max(1, n // 7))] = np.nan
        rel = relation_from_columns(
            Schema([("k", ColumnType.INT), ("f", ColumnType.FLOAT)]),
            k=rng.integers(0, groups, n),
            f=f,
        )
        if zero_mult and n:
            mult = rel.mult.copy()
            mult[rng.integers(0, n, max(1, n // 5))] = 0.0
            rel = rel.with_mult(mult, None)
        return rel

    @fuzz
    @given(
        st.integers(0, 10_000),
        st.integers(0, 120),
        st.integers(1, 6),
        st.booleans(),
        st.booleans(),
    )
    def test_codec_matches_dict_reference(self, seed, n, groups, with_nan, zero_mult):
        rel = self.keyed(seed, n, groups, with_nan, zero_mult)
        for names in (["k"], ["f"], ["k", "f"], []):
            kc = factorize_keys(rel, names)
            ref_keys, ref_codes = reference_codes(rel, names)
            assert keys_equal(kc.keys, ref_keys), names
            assert np.array_equal(kc.codes, ref_codes), names

    @fuzz
    @given(
        st.integers(0, 10_000),
        st.integers(0, 100),
        st.integers(0, 25),
        st.integers(1, 8),
        st.booleans(),
    )
    def test_join_matches_reference(self, seed, n_left, n_right, groups, zero_mult):
        rng = np.random.default_rng(seed)
        left = self.keyed(seed, n_left, groups, False, zero_mult)
        right = relation_from_columns(
            Schema([("k2", ColumnType.INT), ("v", ColumnType.FLOAT)]),
            k2=rng.integers(0, groups, n_right),
            v=rng.normal(0, 1, n_right),
        )
        if n_left:
            left = left.with_mult(
                left.mult, rng.poisson(1.0, (n_left, 4)).astype(float)
            )
        assert_rel_identical(
            vectorized_join(left, right, [("k", "k2")]),
            join_relations(left, right, [("k", "k2")]),
        )

    @fuzz
    @given(st.integers(0, 10_000), st.integers(0, 80), st.floats(0.05, 1.0))
    def test_quantile_trials_match_scalar_loop(self, seed, n, q):
        rng = np.random.default_rng(seed)
        v = np.round(rng.normal(0, 10, n), 3)
        tw = rng.poisson(1.0, (n, 7)).astype(float)
        vec = weighted_quantile_trials(v, tw, q)
        ref = np.array([weighted_quantile(v, tw[:, j], q) for j in range(7)])
        assert np.array_equal(vec, ref, equal_nan=True)

    @fuzz
    @given(
        st.integers(0, 10_000),
        st.integers(0, 60),
        st.integers(1, 5),
        st.integers(0, 3),
    )
    def test_lineage_resolution_matches_reference(self, seed, n, keys, unpublished):
        """Object/lineage columns: the batched resolver and the per-row
        reference agree, including rows pending on unpublished groups."""
        rng = np.random.default_rng(seed)
        schema = Schema([("d", ColumnType.FLOAT), ("u", ColumnType.FLOAT)])
        key_ids = rng.integers(0, keys + unpublished, n)
        refs = np.empty(n, dtype=object)
        for i in range(n):
            refs[i] = LineageRef(1, (int(key_ids[i]),), "v")
        rel = Relation(
            schema, {"d": np.round(rng.normal(0, 3, n), 2), "u": refs}
        )
        trials_of = {k: rng.standard_normal(5).round(2) for k in range(keys)}
        sides = []
        for vectorize in (True, False):
            ctx = RuntimeContext(
                Catalog({}), "t", 100, OnlineConfig(num_trials=5, vectorize=vectorize)
            )
            ctx.batch_no = 1
            out = BlockOutput(1, [], ["v"])
            for k in range(keys):
                value = float(10 + k)
                uv = UncertainValue(
                    value,
                    value + trials_of[k],
                    VariationRange(value - 2.0, value + 2.0),
                    LineageRef(1, (k,), "v"),
                )
                out.publish(GroupValue((k,), {"v": uv}, True), is_new=True)
            ctx.blocks[1] = out
            expr = Col("u") * 0.5 + col("d")
            sides.append(evaluate_side(expr, rel, {"u"}, ctx))
        vec, ref = sides
        assert np.array_equal(vec.lo, ref.lo, equal_nan=True)
        assert np.array_equal(vec.hi, ref.hi, equal_nan=True)
        assert np.array_equal(vec.point, ref.point, equal_nan=True)
        assert np.array_equal(
            np.asarray(vec.trial_matrix(5)),
            np.asarray(ref.trial_matrix(5)),
            equal_nan=True,
        )
        assert np.array_equal(vec.pending, ref.pending)
        assert vec.refs == ref.refs


class TestFullRunVectorizeFuzzed:
    """Whole randomized runs: vectorize on/off yield bit-identical partial
    results (the ND-heavy semijoin + holistic shape)."""

    @fuzz
    @given(
        st.integers(0, 10_000),
        st.integers(150, 500),
        st.integers(2, 5),
    )
    def test_bit_identical_modes(self, seed, n, batches):
        rng = np.random.default_rng(seed)
        cat = Catalog({"t": dataset(seed, n, 5)})
        member = (
            scan("t", KX_SCHEMA)
            .aggregate(["k"], [sum_("x", "sx")])
            .select(col("sx") > float(rng.uniform(100.0, 600.0)))
            .project([("k2", col("k"))])
        )
        plan = (
            scan("t", KX_SCHEMA)
            .join(member, keys=[("k", "k2")])
            .aggregate(["k"], [median("y", "my"), count("n")])
        )
        partials = {}
        for vectorize in (True, False):
            eng = OnlineQueryEngine(
                cat,
                "t",
                OnlineConfig(num_trials=9, seed=seed, vectorize=vectorize),
            )
            partials[vectorize] = list(eng.run(plan, batches))
        assert partials[True], "no partial results"
        assert_partials_identical(
            partials[True], partials[False], f"fuzz seed={seed}"
        )


class TestBootstrapCoverage:
    @fuzz
    @given(st.integers(0, 500))
    def test_confidence_interval_covers_truth_often(self, seed):
        """95% CIs from a 25% sample should usually contain the truth."""
        cat = Catalog({"t": dataset(seed, 1200, 4)})
        plan = scan("t", KX_SCHEMA).aggregate([], [avg("y", "ay")])
        truth = run_batch(plan, cat).relation.row(0)["ay"]
        eng = OnlineQueryEngine(cat, "t", OnlineConfig(num_trials=80, seed=seed))
        first = next(iter(eng.run(plan, num_batches=4)))
        lo, hi = first.rows[0]["ay"].confidence_interval(0.99)
        # With a 99% interval, misses should be very rare across 20 fuzz
        # examples; allow the interval to be sanity-wide instead of exact.
        assert lo < hi
        assert lo - (hi - lo) <= truth <= hi + (hi - lo)


class TestRangeMonitorBatchedParity:
    """``observe_batch`` must publish bit-identical ranges to the per-cell
    ``observe`` loop it replaces — including the awkward inputs: NaN/±inf
    point estimates and zero-variance (or non-finite) bootstrap trials."""

    VALUES = st.one_of(
        st.floats(min_value=-1e6, max_value=1e6),
        st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300]),
    )

    @staticmethod
    def assert_ranges_equal(got, want, where):
        for name in ("lo", "hi"):
            g, w = getattr(got, name), getattr(want, name)
            assert g == w or (np.isnan(g) and np.isnan(w)), (
                f"{where}: {name} {g!r} != {w!r}"
            )

    @fuzz
    @given(st.data())
    def test_observe_batch_matches_observe(self, data):
        from repro.core.ranges import RangeMonitor

        num_groups = data.draw(st.integers(1, 8), label="groups")
        num_trials = data.draw(st.integers(1, 6), label="trials")
        points = np.array(
            [data.draw(self.VALUES) for _ in range(num_groups)], dtype=float
        )
        trials = np.empty((num_groups, num_trials), dtype=float)
        for g in range(num_groups):
            if data.draw(st.booleans(), label=f"const row {g}"):
                trials[g, :] = data.draw(self.VALUES)  # zero variance
            else:
                trials[g, :] = [
                    data.draw(self.VALUES) for _ in range(num_trials)
                ]
        slack = data.draw(st.sampled_from([0.0, 1.0, 2.0]), label="slack")

        batched = RangeMonitor(slack=slack)
        scalar = RangeMonitor(slack=slack)
        keys = [(g,) for g in range(num_groups)]
        got = batched.observe_batch(7, "v", keys, 1, points, trials)
        for g, key in enumerate(keys):
            want = scalar.observe(
                (7, key, "v"), 1, float(points[g]), trials[g]
            )
            self.assert_ranges_equal(got[g], want, f"group {g}")
            # The published (stored) range must agree too.
            self.assert_ranges_equal(
                batched.range_for((7, key, "v")),
                scalar.range_for((7, key, "v")),
                f"stored group {g}",
            )

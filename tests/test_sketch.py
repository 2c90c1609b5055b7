"""Tests for the per-group per-trial aggregate sketches."""

import numpy as np
import pytest

from repro.core.sketch import AggBundle
from repro.relational import avg, count, sum_
from repro.relational.relation import Relation
from tests.conftest import KX_SCHEMA, random_kx


def with_trials(rel: Relation, value: float = 1.0, t: int = 3) -> Relation:
    return rel.with_mult(rel.mult, np.full((len(rel), t), value))


SPECS = [sum_("x", "sx"), avg("x", "ax"), count("n")]


class TestFold:
    def test_fold_accumulates_keys(self):
        rel = with_trials(random_kx(100, seed=1, groups=4))
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        assert len(b) == 4

    def test_fold_weight_sums(self):
        rel = with_trials(random_kx(100, seed=1, groups=4))
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        assert b.weight.sum() == pytest.approx(100.0)

    def test_incremental_fold_equals_single_fold(self):
        rel = with_trials(random_kx(200, seed=1, groups=4))
        first = rel.filter(np.arange(200) < 120)
        second = rel.filter(np.arange(200) >= 120)
        inc = AggBundle(SPECS, 3)
        inc.fold(first, ["k"])
        inc.fold(second, ["k"])
        once = AggBundle(SPECS, 3)
        once.fold(rel, ["k"])
        for s in range(len(SPECS)):
            vi, ti = inc.finalize(s, 1.0)
            vo, to = once.finalize(s, 1.0)
            order_i = {k: i for i, k in enumerate(inc.keys)}
            order_o = {k: i for i, k in enumerate(once.keys)}
            for key in order_o:
                assert vi[order_i[key]] == pytest.approx(vo[order_o[key]])

    def test_scalar_group(self):
        rel = with_trials(random_kx(50, seed=2))
        b = AggBundle(SPECS, 3)
        b.fold(rel, [])
        assert b.keys == [()]

    def test_empty_fold_noop(self):
        b = AggBundle(SPECS, 3)
        b.fold(Relation.empty(KX_SCHEMA, num_trials=3), ["k"])
        assert len(b) == 0


class TestFinalize:
    def test_sum_matches_numpy(self):
        rel = with_trials(random_kx(100, seed=3, groups=2))
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        values, trials = b.finalize(0, 1.0)
        for gi, key in enumerate(b.keys):
            mask = rel.column("k") == key[0]
            assert values[gi] == pytest.approx(rel.column("x")[mask].sum())

    def test_trial_values_use_trial_weights(self):
        rel = with_trials(random_kx(60, seed=3, groups=2), value=2.0)
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        values, trials = b.finalize(0, 1.0)
        assert trials[0, 0] == pytest.approx(2.0 * values[0])

    def test_avg_trials_unscaled(self):
        rel = with_trials(random_kx(60, seed=3, groups=2), value=2.0)
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        values, trials = b.finalize(1, 5.0)  # scale must NOT apply to AVG
        assert trials[0, 0] == pytest.approx(values[0])

    def test_scale_applies_to_sum_and_count(self):
        rel = with_trials(random_kx(60, seed=3, groups=2))
        b = AggBundle(SPECS, 3)
        b.fold(rel, ["k"])
        unscaled, _ = b.finalize(0, 1.0)
        scaled, _ = b.finalize(0, 4.0)
        assert scaled[0] == pytest.approx(4.0 * unscaled[0])
        cn_unscaled, _ = b.finalize(2, 1.0)
        cn_scaled, _ = b.finalize(2, 4.0)
        assert cn_scaled[0] == pytest.approx(4.0 * cn_unscaled[0])


class TestFoldValues:
    def test_uncertain_argument_path(self):
        b = AggBundle([sum_("x", "sx")], 2)
        b.fold_values_coded(
            [("g",)],
            np.array([0, 0]),
            0,
            values=np.array([3.0, 4.0]),
            trial_values=np.array([[3.0, 30.0], [4.0, 40.0]]),
            mult=np.ones(2),
            trial_mults=np.ones((2, 2)),
        )
        values, trials = b.finalize(0, 1.0)
        assert values[0] == 7.0
        assert list(trials[0]) == [7.0, 70.0]


class TestMerge:
    def test_merged_with_none(self):
        b = AggBundle(SPECS, 3)
        assert b.merged_with(None) is b

    def test_merge_unions_keys(self):
        rel = with_trials(random_kx(100, seed=5, groups=4))
        left = AggBundle(SPECS, 3)
        left.fold(rel.filter(rel.column("k") < 2), ["k"])
        right = AggBundle(SPECS, 3)
        right.fold(rel.filter(rel.column("k") >= 2), ["k"])
        merged = left.merged_with(right)
        assert len(merged) == 4

    def test_merge_sums_overlapping_groups(self):
        rel = with_trials(random_kx(100, seed=5, groups=2))
        a = AggBundle(SPECS, 3)
        a.fold(rel, ["k"])
        merged = a.merged_with(a)
        va, _ = a.finalize(0, 1.0)
        vm, _ = merged.finalize(0, 1.0)
        order_a = {k: i for i, k in enumerate(a.keys)}
        order_m = {k: i for i, k in enumerate(merged.keys)}
        for key in order_a:
            assert vm[order_m[key]] == pytest.approx(2.0 * va[order_a[key]])

    def test_merge_does_not_mutate_inputs(self):
        rel = with_trials(random_kx(50, seed=5, groups=2))
        a = AggBundle(SPECS, 3)
        a.fold(rel, ["k"])
        before = a.weight.copy()
        a.merged_with(a)
        assert (a.weight == before).all()


class TestBytes:
    def test_estimated_bytes_grow_with_groups(self):
        small = AggBundle(SPECS, 3)
        small.fold(with_trials(random_kx(50, seed=1, groups=2)), ["k"])
        big = AggBundle(SPECS, 3)
        big.fold(with_trials(random_kx(50, seed=1, groups=20)), ["k"])
        assert big.estimated_bytes() > small.estimated_bytes()

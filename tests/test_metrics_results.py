"""Tests for metrics accounting and partial-result ergonomics."""

import math

import numpy as np
import pytest

from repro.core.result import PartialResult
from repro.core.values import UncertainValue
from repro.metrics import (
    RUN_METRICS_SCHEMA_VERSION,
    BatchMetrics,
    RunMetrics,
    validate_batch_metrics,
    validate_run_metrics,
)
from repro.relational import ColumnType, Schema


class TestBatchMetrics:
    def test_add_state_accumulates(self):
        bm = BatchMetrics(1)
        bm.add_state("join:1", 100)
        bm.add_state("join:1", 50)
        bm.add_state("select:2", 10)
        assert bm.state_bytes["join:1"] == 150
        assert bm.total_state_bytes == 160

    def test_state_bytes_matching_prefix(self):
        bm = BatchMetrics(1)
        bm.add_state("join:1", 100)
        bm.add_state("aggregate:2", 10)
        assert bm.state_bytes_matching("join") == 100
        assert bm.state_bytes_matching("") == 110


class TestRunMetrics:
    def make(self, seconds=(1.0, 2.0, 3.0)):
        rm = RunMetrics()
        for i, s in enumerate(seconds, 1):
            bm = rm.start_batch(i)
            bm.wall_seconds = s
            bm.recomputed_tuples = i * 10
            bm.shipped_bytes = i * 100
        return rm

    def test_totals(self):
        rm = self.make()
        assert rm.total_seconds == 6.0
        assert rm.total_recomputed == 60
        assert rm.total_shipped_bytes == 600

    def test_seconds_until_fraction(self):
        rm = self.make()
        assert rm.seconds_until_fraction(1 / 3) == 1.0
        assert rm.seconds_until_fraction(2 / 3) == 3.0
        assert rm.seconds_until_fraction(1.0) == 6.0

    def test_seconds_until_fraction_minimum_one_batch(self):
        rm = self.make()
        assert rm.seconds_until_fraction(0.0001) == 1.0

    def test_recoveries_counted(self):
        rm = self.make()
        rm.batches[1].recovered = True
        assert rm.num_recoveries == 1

    def test_state_aggregation(self):
        rm = self.make()
        rm.batches[0].add_state("join:x", 500)
        rm.batches[2].add_state("join:x", 900)
        assert rm.max_state_bytes("join") == 900
        assert rm.avg_state_bytes("join") == pytest.approx((500 + 900) / 3)

    def test_op_seconds_totals(self):
        rm = self.make()
        rm.batches[0].add_op_seconds("scan:t", 0.5)
        rm.batches[1].add_op_seconds("scan:t", 0.25)
        rm.batches[1].add_op_seconds("aggregate:1", 1.0)
        assert rm.total_op_seconds() == {"scan:t": 0.75, "aggregate:1": 1.0}

    def test_to_json_round_trips(self):
        import json

        rm = self.make()
        rm.batches[0].add_state("join:x", 500)
        rm.batches[0].add_op_seconds("scan:t", 0.5)
        rm.batches[1].recovered = True
        rm.pruning_disabled = True
        data = json.loads(rm.to_json())
        assert data["num_batches"] == 3
        assert data["total_seconds"] == 6.0
        assert data["num_recoveries"] == 1
        assert data["pruning_disabled"] is True
        assert data["batches"][0]["state_bytes"] == {"join:x": 500}
        assert data["batches"][0]["op_seconds"] == {"scan:t": 0.5}
        assert data["batches"][1]["recovered"] is True
        # indent only affects formatting, not content
        assert json.loads(rm.to_json(indent=2)) == data


class TestBatchMetricsMerge:
    def test_merge_from_sums_and_unions(self):
        a = BatchMetrics(1)
        a.recomputed_tuples = 5
        a.shipped_bytes = 10
        a.add_state("join:1", 100)
        a.add_op_seconds("scan:t", 0.5)
        b = BatchMetrics(1)
        b.recomputed_tuples = 7
        b.shipped_bytes = 20
        b.add_state("join:1", 50)
        b.add_state("select:2", 5)
        b.add_op_seconds("scan:t", 0.5)
        b.recovered = True
        b.recovery_seconds = 1.5
        a.merge_from(b)
        assert a.recomputed_tuples == 12
        assert a.shipped_bytes == 30
        assert a.state_bytes == {"join:1": 150, "select:2": 5}
        assert a.op_seconds == {"scan:t": 1.0}
        assert a.recovered
        assert a.recovery_seconds == 1.5


class TestMetricsSchema:
    """The --metrics-out artifact shape is pinned: golden field sets, a
    version constant, and a validator that rejects drift in either
    direction (missing AND unknown fields)."""

    def make(self):
        rm = RunMetrics()
        for i in (1, 2):
            bm = rm.start_batch(i)
            bm.wall_seconds = float(i)
            bm.unit_seconds = float(i) * 0.5
            bm.add_state("join:x", 100 * i)
            bm.add_op_seconds("scan:t", 0.1)
        rm.batches[1].recovered = True
        return rm

    def test_schema_version_pinned(self):
        assert RUN_METRICS_SCHEMA_VERSION == 5

    def test_golden_field_sets(self):
        # Adding/removing a metrics field must touch this test AND bump
        # RUN_METRICS_SCHEMA_VERSION — that is the point of the pin.
        rm = self.make()
        data = rm.to_dict()
        assert set(data) == {
            "schema_version", "num_batches", "total_seconds",
            "total_unit_seconds", "total_recomputed", "total_shipped_bytes",
            "num_recoveries", "pruning_disabled", "analysis_seconds",
            "sanitize_seconds", "profile_seconds", "cost_calibration",
            "op_seconds", "batches",
        }
        assert set(data["batches"][0]) == {
            "batch_no", "wall_seconds", "unit_seconds", "new_tuples",
            "recomputed_tuples", "shipped_bytes", "state_bytes",
            "total_state_bytes", "op_seconds", "recovered",
            "recovery_seconds", "predicted_seconds", "nd_groups",
        }
        assert data["schema_version"] == RUN_METRICS_SCHEMA_VERSION

    def test_v4_artifact_with_rollup_groups_validates(self):
        # Archived artifacts outlive engine releases: a v4 dump (still
        # carrying the rollup tier's per-batch count) must keep
        # validating against the v4 field set.
        data = self.make().to_dict()
        data["schema_version"] = 4
        for batch in data["batches"]:
            batch["rollup_groups"] = 0
        validate_run_metrics(data)

    def test_v4_artifact_without_rollup_groups_rejected(self):
        # Version claims are checked against that version's own field
        # set — a v4 artifact shaped like v5 is drift, not compat.
        data = self.make().to_dict()
        data["schema_version"] = 4
        with pytest.raises(ValueError, match="missing field"):
            validate_run_metrics(data)

    def test_v3_artifact_rejected(self):
        # Only the current and the previous version validate.
        data = self.make().to_dict()
        data["schema_version"] = 3
        with pytest.raises(ValueError, match="schema version"):
            validate_run_metrics(data)

    def test_v4_artifact_missing_v4_fields_rejected(self):
        data = self.make().to_dict()
        for batch in data["batches"]:
            del batch["nd_groups"]
        with pytest.raises(ValueError, match="missing field"):
            validate_run_metrics(data)

    def test_v4_artifact_missing_run_fields_rejected(self):
        data = self.make().to_dict()
        del data["cost_calibration"]
        with pytest.raises(ValueError, match="missing field"):
            validate_run_metrics(data)

    def test_file_round_trip_validates(self, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        path.write_text(self.make().to_json(indent=2))
        reloaded = json.loads(path.read_text())
        validate_run_metrics(reloaded)  # raises on any drift
        assert reloaded == self.make().to_dict()
        assert reloaded["total_unit_seconds"] == pytest.approx(1.5)

    def test_unknown_field_rejected(self):
        data = self.make().to_dict()
        data["surprise"] = 1
        with pytest.raises(ValueError, match="unknown field"):
            validate_run_metrics(data)

    def test_missing_field_rejected(self):
        data = self.make().to_dict()
        del data["total_seconds"]
        with pytest.raises(ValueError, match="missing field"):
            validate_run_metrics(data)

    def test_wrong_version_rejected(self):
        data = self.make().to_dict()
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            validate_run_metrics(data)

    def test_batch_count_mismatch_rejected(self):
        data = self.make().to_dict()
        data["num_batches"] = 5
        with pytest.raises(ValueError, match="num_batches"):
            validate_run_metrics(data)

    def test_bad_batch_field_located(self):
        data = self.make().to_dict()
        data["batches"][1]["wall_seconds"] = "fast"
        with pytest.raises(ValueError, match=r"batches\[1\]"):
            validate_run_metrics(data)

    def test_batch_validator_standalone(self):
        bm = BatchMetrics(3)
        bm.add_state("join:1", 10)
        validate_batch_metrics(bm.to_dict())
        bad = bm.to_dict()
        bad["state_bytes"] = {"join:1": "lots"}
        with pytest.raises(ValueError, match="state_bytes"):
            validate_batch_metrics(bad)

    def test_engine_run_artifact_validates(self):
        # End to end: a real engine run's artifact passes the validator.
        from repro.core import OnlineConfig, OnlineQueryEngine
        from repro.relational import Catalog, col, scan, sum_
        from tests.conftest import KX_SCHEMA, random_kx

        catalog = Catalog({"t": random_kx(200, seed=2, groups=3)})
        plan = scan("t", KX_SCHEMA).select(col("x") > 5.0).aggregate(
            ["k"], [sum_("y", "sy")]
        )
        engine = OnlineQueryEngine(catalog, "t", OnlineConfig(num_trials=5, seed=2))
        engine.run_to_completion(plan, 3)
        import json

        validate_run_metrics(json.loads(engine.metrics.to_json()))


SCHEMA = Schema([("k", ColumnType.INT), ("v", ColumnType.FLOAT)])


def make_partial(rows, batch_no=1, num_batches=4):
    return PartialResult(
        batch_no=batch_no,
        num_batches=num_batches,
        fraction_processed=batch_no / num_batches,
        schema=SCHEMA,
        rows=rows,
        metrics=BatchMetrics(batch_no),
    )


def uv(value, trials):
    return UncertainValue(value, np.asarray(trials, dtype=float))


class TestPartialResult:
    def test_to_plain_rows_collapses(self):
        p = make_partial([{"k": 1, "v": uv(2.0, [1.0, 3.0])}])
        assert p.to_plain_rows() == [{"k": 1, "v": 2.0}]

    def test_to_relation(self):
        p = make_partial([{"k": 1, "v": uv(2.0, [1.0, 3.0])}])
        rel = p.to_relation()
        assert rel.schema == SCHEMA
        assert rel.row(0)["v"] == 2.0

    def test_max_relative_stdev(self):
        p = make_partial(
            [
                {"k": 1, "v": uv(10.0, [9.0, 11.0])},
                {"k": 2, "v": uv(10.0, [5.0, 15.0])},
            ]
        )
        assert p.max_relative_stdev() == pytest.approx(0.5)

    def test_max_relative_stdev_nan_when_plain(self):
        p = make_partial([{"k": 1, "v": 2.0}])
        assert math.isnan(p.max_relative_stdev())

    def test_confidence_intervals_only_uncertain_cells(self):
        p = make_partial([{"k": 1, "v": uv(2.0, [1.0, 3.0])}])
        assert set(p.confidence_intervals()[0]) == {"v"}

    def test_sorted_plain_rows(self):
        p = make_partial([{"k": 2, "v": 1.0}, {"k": 1, "v": 2.0}])
        assert [r["k"] for r in p.sorted_plain_rows()] == [1, 2]

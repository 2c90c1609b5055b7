"""The zero-copy aliasing sanitizer (``OnlineConfig(sanitize=True)``).

Unit tests drive :class:`BufferSanitizer` directly through its ownership
protocol; engine tests seed real in-place writes and assert the exact
SAN rule fires naming writer and owner; parity tests re-run the chaos
fault plan with the sanitizer on and require bit-identical results.
"""

from __future__ import annotations


import numpy as np
import pytest

from repro.analysis.sanitize import (
    SANITIZE_RULES,
    BufferSanitizer,
    _buffers_of,
)
from repro.core import OnlineConfig, OnlineQueryEngine
from repro.core.operators.base import DeltaBatch
from repro.core.operators.scan import ScanOp
from repro.errors import SanitizerViolationError
from repro.relational import ColumnType, Schema, relation_from_columns
from repro.workloads import CONVIVA_QUERIES, TPCH_QUERIES

S = Schema([("k", ColumnType.INT), ("x", ColumnType.FLOAT)])


def make_rel(n=8):
    return relation_from_columns(
        S, k=list(range(n)), x=[float(i) for i in range(n)]
    )


class _Op:
    label = "op:test"


# ---------------------------------------------------------------------------
# Ownership protocol unit tests.
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_before_process_freezes_and_release_restores(self):
        san = BufferSanitizer()
        rel = make_rel()
        assert all(a.flags.writeable for a in _buffers_of(rel))
        san.before_process(_Op(), rel)
        assert not any(a.flags.writeable for a in _buffers_of(rel))
        with pytest.raises(ValueError):
            rel.columns["x"][0] = 99.0
        san.release(_Op())
        assert all(a.flags.writeable for a in _buffers_of(rel))
        assert san.seconds > 0

    def test_begin_batch_freezes_delta_permanently(self):
        san = BufferSanitizer()
        rel = make_rel()
        san.begin_batch(1, rel)
        assert not any(a.flags.writeable for a in _buffers_of(rel))
        san.before_process(_Op(), rel)
        san.release(_Op())  # restore must not thaw the stream delta
        assert not any(a.flags.writeable for a in _buffers_of(rel))

    def test_begin_batch_is_idempotent_across_threads(self):
        san = BufferSanitizer()
        rel = make_rel()
        san.begin_batch(3, rel)
        owners = dict(san._owners)
        san.begin_batch(3, rel)  # second worker hitting the same batch
        assert san._owners == owners

    def test_slice_hook_freezes_both_sides(self):
        san = BufferSanitizer()
        san.begin_batch(1)
        san.activate()
        try:
            rel = make_rel()
            view = rel.slice(2, 6)
        finally:
            san.deactivate()
        for side in (rel, view):
            assert not any(a.flags.writeable for a in _buffers_of(side))
        with pytest.raises(ValueError):
            view.columns["x"][0] = -1.0

    def test_pass_through_claims_nothing(self):
        san = BufferSanitizer()
        rel = make_rel()
        san.begin_batch(1, rel)
        owners = dict(san._owners)
        san.note_output(_Op(), rel)  # forwarding the stream delta
        assert san._owners == owners


# ---------------------------------------------------------------------------
# Rule fixtures: one per SAN id.
# ---------------------------------------------------------------------------


class TestRules:
    def test_san001_aliased_view_write(self):
        san = BufferSanitizer()
        san.begin_batch(1)
        san.activate()
        try:
            rel = make_rel()
            san.before_process(_Op(), None)  # writer context for the slice
            view = rel.slice(0, 4)
            san.release(_Op())
        finally:
            san.deactivate()
        with pytest.raises(ValueError) as excinfo:
            view.columns["x"][0] = 5.0
        violation = san.translate_write_error(
            _Op(), view, None, excinfo.value
        )
        assert isinstance(violation, SanitizerViolationError)
        assert violation.rule_id == "SAN001"
        assert violation.writer == "op:test"
        assert violation.owners == ["op:test"]  # the slicing frame
        assert "SAN001" in str(violation)

    def test_san002_memmapped_chunk_write(self, tmp_path):
        path = tmp_path / "chunk.bin"
        np.arange(8, dtype="<i8").tofile(path)
        mm = np.memmap(path, dtype="<i8", mode="r", shape=(8,))
        view = mm[2:6]
        san = BufferSanitizer()
        san.begin_batch(1)
        with pytest.raises(ValueError) as excinfo:
            view[0] = 1
        violation = san.translate_write_error(
            _Op(), [view], None, excinfo.value
        )
        assert violation.rule_id == "SAN002"
        assert str(path) in str(violation)
        assert violation.writer == "op:test"

    def test_translate_ignores_unrelated_value_errors(self):
        san = BufferSanitizer()
        err = ValueError("operands could not be broadcast together")
        assert san.translate_write_error(_Op(), None, None, err) is None


# ---------------------------------------------------------------------------
# Engine-level: a seeded in-place write is caught naming writer and owner.
# ---------------------------------------------------------------------------


def _mutating_scan_process(self, delta, ctx):
    batch = ctx.delta
    next(iter(batch.columns.values()))[0] = 0  # illegal in-place write
    return DeltaBatch(batch, self.empty(ctx))


class TestEngine:
    def test_seeded_write_raises_san001(self, kx_catalog, monkeypatch):
        monkeypatch.setattr(ScanOp, "process", _mutating_scan_process)
        engine = OnlineQueryEngine(
            kx_catalog,
            "t",
            OnlineConfig(num_trials=4, seed=3, sanitize=True),
        )
        from repro.relational import col, count, scan, sum_
        from tests.conftest import KX_SCHEMA

        plan = scan("t", KX_SCHEMA).select(col("x") > 2.0).aggregate(
            ["k"], [sum_("y", "sy"), count("n")]
        )
        with pytest.raises(SanitizerViolationError) as excinfo:
            engine.run_to_completion(plan, 3)
        violation = excinfo.value
        assert violation.rule_id == "SAN001"
        assert violation.writer
        assert violation.owners and violation.owners != ["unknown"]

    def test_without_sanitize_write_goes_unnoticed(self, kx_catalog, monkeypatch):
        """Documents why the sanitizer exists: the same seeded write is
        silent corruption when sanitize is off."""
        monkeypatch.setattr(ScanOp, "process", _mutating_scan_process)
        engine = OnlineQueryEngine(
            kx_catalog, "t", OnlineConfig(num_trials=4, seed=3)
        )
        from repro.relational import col, count, scan, sum_
        from tests.conftest import KX_SCHEMA

        plan = scan("t", KX_SCHEMA).select(col("x") > 2.0).aggregate(
            ["k"], [sum_("y", "sy"), count("n")]
        )
        engine.run_to_completion(plan, 3)  # no error raised
        assert engine.metrics.sanitize_seconds == 0.0


# ---------------------------------------------------------------------------
# Parity: sanitized + faulted == clean, bit for bit.
# ---------------------------------------------------------------------------

FAULTS = "unit@3:aggregate,batch@5,checkpoint@6,batch@8"
PARITY_QUERIES = [("tpch", "Q1"), ("tpch", "Q17"), ("conviva", "C8")]


class TestParity:
    @pytest.mark.parametrize("source,name", PARITY_QUERIES)
    def test_sanitized_faulted_matches_clean(
        self, source, name, tpch_small, conviva_small
    ):
        spec = (TPCH_QUERIES if source == "tpch" else CONVIVA_QUERIES)[name]
        catalog = (
            tpch_small if source == "tpch" else conviva_small
        ).catalog()

        def run(sanitize, faults=None):
            engine = OnlineQueryEngine(
                catalog,
                spec.streamed_table,
                OnlineConfig(
                    num_trials=6,
                    seed=7,
                    faults=faults,
                    checkpoint_interval=3,
                    unit_retry_attempts=2,
                    sanitize=sanitize,
                ),
            )
            return engine, engine.run_to_completion(spec.plan, 8)

        eng0, clean = run(sanitize=False)
        eng1, faulted = run(sanitize=True, faults=FAULTS)
        assert faulted.to_relation().bag_equal(clean.to_relation(), 9), (
            f"{name}: sanitized faulted run diverged from the clean run"
        )
        assert eng1.metrics.num_recoveries >= 2
        assert eng1.metrics.sanitize_seconds > 0
        assert eng0.metrics.sanitize_seconds == 0.0


def test_rule_catalog_is_fully_exercised():
    import ast
    import pathlib

    source = pathlib.Path(__file__).read_text()
    asserted = {
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value in SANITIZE_RULES
    }
    assert asserted >= set(SANITIZE_RULES), (
        f"rules without fixtures: {sorted(set(SANITIZE_RULES) - asserted)}"
    )

"""Golden fixtures: every diagnostic rule the analysis layer can emit —
typechecker TC1xx/TC2xx/TC3xx, engine lint ENG001–006, race detector
RACE0xx/1xx/2xx, sanitizer SAN00x — has exactly one minimal triggering
fixture here, and each fired diagnostic is pinned down to its rule id,
a non-empty location, and (where the rule carries one) a repair hint.

A rule added to any catalog without a fixture fails
``test_every_rule_has_a_fixture``; a fixture that stops triggering its
rule fails its parametrized case. This is the contract that keeps the
rule tables in DESIGN.md honest.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

from repro.analysis import check_plan
from repro.analysis.diagnostics import AnalysisDiagnostic
from repro.analysis.lint import ENGINE_LINT_RULES, lint_source
from repro.analysis.races import RACE_RULES, analyze_query_races, check_races
from repro.analysis.sanitize import SANITIZE_RULES, BufferSanitizer
from repro.analysis.typecheck import (
    TYPECHECK_RULES,
    check_pipeline,
    check_units,
    infer_tags,
)
from repro.core.compiler import ExecutionUnit
from repro.core.operators import (
    FilterOp,
    ScanOp,
    StateRule,
    UncertainFilterOp,
)
from repro.core.uncertainty import NodeTags
from repro.core.values import LineageRef
from repro.errors import UnsupportedQueryError
from repro.relational import (
    AggSpec,
    HolisticUDAF,
    avg,
    col,
    count,
    lit,
    min_,
    scan,
    stddev,
    sum_,
)
from repro.relational.algebra import PlanNode
from repro.relational.expressions import Or
from repro.state import InMemoryStateStore
from tests.conftest import KX_SCHEMA

STREAMED = {"t"}

#: Rules whose diagnostics legitimately carry no hint: RACE000 wraps the
#: planner/compiler exception verbatim, TC201 dumps the diverging tag
#: pair, TC306/TC307 are self-explanatory schema/tag mismatches.
#: Everything else must carry a repair hint.
HINTLESS: set[str] = {"RACE000", "TC201", "TC306", "TC307"}


@dataclass
class Ctx:
    """What a fixture may use: a monkeypatch and a small catalog."""

    monkeypatch: pytest.MonkeyPatch
    catalog: Any


def _kx():
    return scan("t", KX_SCHEMA)


def _with_uncertain():
    inner = _kx().aggregate([], [avg("x", "ax")])
    return _kx().join(inner, keys=[])


def _infer(plan):
    _, diags = infer_tags(plan, STREAMED)
    return diags


def _lint(source: str):
    return lint_source(textwrap.dedent(source))


# -- typechecker fixtures ---------------------------------------------------


def _tc101(ctx):
    class Exotic(PlanNode):
        pass

    return _infer(Exotic())


def _tc102(ctx):
    inner = _kx().aggregate(["k"], [avg("x", "ax")]).rename({"k": "k2"})
    return _infer(_kx().join(inner, keys=[("x", "ax")]))


def _tc103(ctx):
    return _infer(_kx().join(_kx(), keys=[("k", "k")]))


def _tc104(ctx):
    return _infer(_with_uncertain().aggregate(["ax"], [count("n")]))


def _tc105(ctx):
    return _infer(_kx().aggregate(["k"], [min_("x", "mn")]))


def _tc106(ctx):
    return _infer(_with_uncertain().distinct(["ax"]))


def _tc107(ctx):
    pred = Or(col("x") > col("ax"), col("y") > col("ax"))
    return _infer(_with_uncertain().select(pred))


def _tc108(ctx):
    return _infer(
        _with_uncertain().project([("z", col("ax") * 2.0), ("k", col("k"))])
    )


def _tc109(ctx):
    return _infer(_with_uncertain().aggregate([], [stddev("ax", "sd")]))


def _tc110(ctx):
    udaf = HolisticUDAF("median", lambda values, weights: 0.0)
    return _infer(
        _with_uncertain().aggregate([], [AggSpec("md", udaf, col("ax"))])
    )


def _tc111(ctx):
    inner = _kx().aggregate(["k"], [avg("x", "x"), avg("y", "y")])
    return _infer(inner.union(_kx()))


def _tc201(ctx):
    import repro.analysis.typecheck as tc

    real = tc.engine_analyze

    def skewed(plan, streamed):
        return {
            node_id: NodeTags(
                t.tuple_uncertain,
                t.uncertain_cols | frozenset({"__phantom"}),
                t.sample_weighted,
                t.raw_stream,
            )
            for node_id, t in real(plan, streamed).items()
        }

    ctx.monkeypatch.setattr(tc, "engine_analyze", skewed)
    plan = _kx().aggregate(["k"], [sum_("x", "sx")])
    return check_plan(plan, ctx.catalog, "t").diagnostics


def _tc202(ctx):
    import repro.analysis.typecheck as tc

    def rejecting(plan, streamed):
        raise UnsupportedQueryError("engine says no")

    ctx.monkeypatch.setattr(tc, "engine_analyze", rejecting)
    plan = _kx().aggregate(["k"], [sum_("x", "sx")])
    return check_plan(plan, ctx.catalog, "t").diagnostics


def _tc301(ctx):
    scan_op = ScanOp("t", KX_SCHEMA)
    return check_pipeline(
        UncertainFilterOp(scan_op, [], [col("x") > lit(5.0)], node_id=901)
    )


def _tc302(ctx):
    scan_op = ScanOp("t", KX_SCHEMA)
    scan_op.uncertain_cols.add("x")
    return check_pipeline(FilterOp(scan_op, col("x") > lit(5.0)))


def _tc303(ctx):
    op = FilterOp(ScanOp("t", KX_SCHEMA), col("x") > lit(5.0))
    op.state.put("stray", 123)
    return check_pipeline(op)


def _tc304(ctx):
    class BadFilter(FilterOp):
        state_rule = StateRule(frozenset({"nd"}), nd_entry="nd")

    op = BadFilter(ScanOp("t", KX_SCHEMA), col("x") > lit(5.0))
    op.state.put("nd", {})
    return check_pipeline(op)


def _tc305(ctx):
    from repro.core.compiler import StreamPipelineUnit, compile_online
    from repro.core.operators import AggregateOp, iter_ops

    plan = _kx().aggregate(["k"], [sum_("x", "sx")])
    compiled = compile_online(plan, ctx.catalog, "t")
    agg = next(
        op
        for unit in compiled.units
        if isinstance(unit, StreamPipelineUnit)
        for op in iter_ops(unit.root_op)
        if isinstance(op, AggregateOp)
    )
    agg.lazy_specs.append(agg.sketch_specs.pop())
    return check_pipeline(agg)


def _tc306(ctx):
    op = ScanOp("t", KX_SCHEMA)
    op.uncertain_cols.add("no_such_column")
    return check_pipeline(op)


def _tc307(ctx):
    scan_op = ScanOp("t", KX_SCHEMA)
    scan_op.uncertain_cols.add("x")
    op = UncertainFilterOp(scan_op, [], [col("x") > lit(5.0)], node_id=907)
    inferred = {907: NodeTags(True, frozenset({"x", "y"}), True, True)}
    return check_pipeline(op, inferred)


class _Unit(ExecutionUnit):
    def __init__(self, label, produces=(), consumes=(), ops=()):
        self.label = label
        self.produces = frozenset(produces)
        self.consumes = frozenset(consumes)
        self.ops = list(ops)


def _tc308(ctx):
    return check_units([_Unit("a", produces={1}), _Unit("b", produces={1})])


def _tc309(ctx):
    return check_units([_Unit("a", produces={1}, consumes={2})])


# -- engine-lint fixtures ---------------------------------------------------


def _eng001(ctx):
    return _lint(
        """
        class BadOp:
            def process(self, delta, ctx):
                delta.rows.append(1)
                return delta
        """
    )


def _eng002(ctx):
    return _lint(
        """
        class BadOp:
            def process(self, delta, ctx):
                self.seen = self.seen + len(delta.rows)
                return delta
        """
    )


def _eng003(ctx):
    return _lint(
        """
        class BadOp:
            def process(self, delta, ctx):
                ctx.blocks[3] = delta
                return delta
        """
    )


def _eng004(ctx):
    return _lint(
        """
        import time

        class BadOp:
            def process(self, delta, ctx):
                self.state.put("stamp", time.time())
                return delta
        """
    )


def _eng005(ctx):
    return _lint(
        """
        class BadOp:
            def process(self, delta, ctx):
                for key in set(delta.keys) - self.published:
                    self.state.put(key, 1)
                return delta
        """
    )


def _eng006(ctx):
    return _lint(
        """
        def patch(rel, mask):
            rel.columns["x"][mask] = 0.0
        """
    )


# -- race-detector fixtures -------------------------------------------------


class _StoreOp:
    label = "agg:golden"
    state_rule = StateRule(entries=("sketch",))

    def __init__(self, store):
        self.state = store


class _CarrierOp:
    label = "carrier:golden"

    def __init__(self, src_id):
        self.src_id = src_id

    def process(self, delta, ctx):
        return LineageRef(self.src_id, (0,), "v")


def _race000(ctx):
    return analyze_query_races(
        "FROBNICATE everything", ctx.catalog, "t"
    ).diagnostics


def _race001(ctx):
    store = InMemoryStateStore()
    return check_races(
        [
            _Unit("a", produces={1}, ops=[_StoreOp(store)]),
            _Unit("b", produces={2}, ops=[_StoreOp(store)]),
        ]
    )


def _race002(ctx):
    return check_races([_Unit("a", produces={5}), _Unit("b", produces={5})])


def _race201(ctx):
    return check_races(
        [
            _Unit("prod", produces={7}),
            _Unit("carrier", produces={8}, ops=[_CarrierOp(7)]),
        ]
    )


# -- sanitizer fixtures -----------------------------------------------------
#
# SAN rules are runtime violations, not report diagnostics; the fixtures
# trigger the real SanitizerViolationError and adapt it so the same
# id/location/hint assertions apply (location = writing operator,
# hint = the catalog's one-line repair description).


def _san_diag(err):
    return [
        AnalysisDiagnostic(
            err.rule_id,
            err.writer,
            str(err),
            hint=SANITIZE_RULES[err.rule_id],
        )
    ]


class _WriterOp:
    label = "op:golden-writer"


def _san001(ctx):
    from repro.relational import relation_from_columns
    from repro.relational.schema import ColumnType, Schema

    rel = relation_from_columns(
        Schema([("x", ColumnType.FLOAT)]), x=[1.0, 2.0, 3.0, 4.0]
    )
    san = BufferSanitizer()
    san.begin_batch(1)
    san.activate()
    try:
        san.before_process(_WriterOp(), None)
        view = rel.slice(0, 2)
        san.release(_WriterOp())
    finally:
        san.deactivate()
    with pytest.raises(ValueError) as excinfo:
        view.columns["x"][0] = 9.0
    return _san_diag(
        san.translate_write_error(_WriterOp(), view, None, excinfo.value)
    )


def _san002(ctx, tmp_path=None):
    import tempfile

    san = BufferSanitizer()
    san.begin_batch(1)
    with tempfile.NamedTemporaryFile(suffix=".bin") as f:
        np.arange(8, dtype="<i8").tofile(f.name)
        mm = np.memmap(f.name, dtype="<i8", mode="r", shape=(8,))
        view = mm[2:6]
        with pytest.raises(ValueError) as excinfo:
            view[0] = 1
        return _san_diag(
            san.translate_write_error(
                _WriterOp(), [view], None, excinfo.value
            )
        )


# -- the registry -----------------------------------------------------------

FIXTURES: dict[str, Callable[[Ctx], list[AnalysisDiagnostic]]] = {
    "TC101": _tc101,
    "TC102": _tc102,
    "TC103": _tc103,
    "TC104": _tc104,
    "TC105": _tc105,
    "TC106": _tc106,
    "TC107": _tc107,
    "TC108": _tc108,
    "TC109": _tc109,
    "TC110": _tc110,
    "TC111": _tc111,
    "TC201": _tc201,
    "TC202": _tc202,
    "TC301": _tc301,
    "TC302": _tc302,
    "TC303": _tc303,
    "TC304": _tc304,
    "TC305": _tc305,
    "TC306": _tc306,
    "TC307": _tc307,
    "TC308": _tc308,
    "TC309": _tc309,
    "ENG001": _eng001,
    "ENG002": _eng002,
    "ENG003": _eng003,
    "ENG004": _eng004,
    "ENG005": _eng005,
    "ENG006": _eng006,
    "RACE000": _race000,
    "RACE001": _race001,
    "RACE002": _race002,
    "RACE201": _race201,
    "SAN001": _san001,
    "SAN002": _san002,
}

ALL_RULES = (
    set(TYPECHECK_RULES)
    | set(ENGINE_LINT_RULES)
    | set(RACE_RULES)
    | set(SANITIZE_RULES)
)


def test_every_rule_has_a_fixture():
    missing = sorted(ALL_RULES - set(FIXTURES))
    stale = sorted(set(FIXTURES) - ALL_RULES)
    assert not missing, f"rules without golden fixtures: {missing}"
    assert not stale, f"fixtures for rules no longer in any catalog: {stale}"


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_golden_fixture(rule_id, monkeypatch, kx_catalog):
    diags = FIXTURES[rule_id](Ctx(monkeypatch, kx_catalog))
    fired = [d for d in diags if d.rule_id == rule_id]
    assert fired, (
        f"fixture for {rule_id} fired {sorted({d.rule_id for d in diags})} "
        f"instead"
    )
    diag = fired[0]
    assert diag.location, f"{rule_id} diagnostic has no location"
    assert diag.message, f"{rule_id} diagnostic has no message"
    assert diag.severity in ("error", "warning")
    if rule_id not in HINTLESS:
        assert diag.hint, f"{rule_id} diagnostic has no repair hint"

"""The plan-level uncertainty typechecker (Appendix A / §4.1-§4.2).

Two redundant passes, cross-checked against each other:

1. **Tag inference** (:func:`infer_tags`) — an independent bottom-up
   re-derivation of every plan node's uncertainty tags over the bag
   algebra: tuple uncertainty ``u#``, attribute uncertainty ``uA``,
   sample weighting, and raw-stream lineage. Unsupported tag flows are
   reported as ``TC1xx`` diagnostics instead of exceptions, so one run
   reports *all* problems of a plan.
2. **Emission checks** (:func:`check_units` / :func:`check_pipeline`) —
   the compiled plan is walked operator by operator and checked against
   the tags and against each operator class's declarative
   :class:`~repro.core.operators.TagRule` / ``StateRule`` specs: an
   ``UncertainFilterOp`` must sit exactly where an uncertain attribute is
   consumed, declared state entries must match the §4.2 state rule the
   tags demand (ND cache present iff a non-deterministic set can exist,
   sketch-only aggregation iff the input is certain-append), and the
   block-production graph must be uniquely-produced and acyclic.

``TC2xx`` rules fire when the two passes disagree with the engine's own
:func:`repro.core.uncertainty.analyze` — i.e. when the typechecker's
model and the compiler's behaviour have drifted apart.
"""

from __future__ import annotations

import time
from typing import Iterator

from repro.analysis.diagnostics import AnalysisDiagnostic, AnalysisReport
from repro.core.compiler import (
    CompiledQuery,
    ExecutionUnit,
    StreamPipelineUnit,
    compile_online,
)
from repro.core.operators import (
    AggregateOp,
    FilterOp,
    SpineOp,
    UncertainFilterOp,
    UncertainJoinOp,
    iter_ops,
)
from repro.core.uncertainty import STATIC_TAGS, NodeTags
from repro.core.uncertainty import analyze as engine_analyze
from repro.errors import ReproError, UnsupportedQueryError
from repro.relational.aggregates import AggSpec
from repro.relational.algebra import (
    Aggregate,
    Distinct,
    Join,
    PlanNode,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.relational.catalog import Catalog
from repro.relational.expressions import Col, Comparison, conjuncts
from repro.sql.planner import plan_sql

#: Rule catalog (ids -> one-line description). Mirrored in DESIGN.md; the
#: test suite asserts every rule here is triggered by some fixture.
TYPECHECK_RULES: dict[str, str] = {
    "TC101": "plan node type is not supported by the online engine",
    "TC102": "join key is uncertain under sampling (approximate join keys, §3.3)",
    "TC103": "both join inputs stream the raw fact table (§2 streams one input)",
    "TC104": "group-by key is uncertain under sampling (§3.3)",
    "TC105": "aggregate function is not Hadamard differentiable over changing input (§3.3)",
    "TC106": "DISTINCT over an uncertain column cannot be decided incrementally",
    "TC107": "predicate over uncertain attributes must be a simple comparison (x θ y)",
    "TC108": "projection computes over uncertain attributes (defeats lazy evaluation)",
    "TC109": "aggregate over an uncertain argument needs a single identity feature",
    "TC110": "holistic aggregate over an uncertain argument cannot be re-evaluated lazily",
    "TC111": "UNION between aggregate-derived inputs is not executable online",
    "TC201": "inferred tags diverge from the engine's uncertainty analysis",
    "TC202": "typechecker and compiler disagree on whether the plan is supported",
    "TC301": "UncertainFilterOp placed where no uncertain attribute is consumed",
    "TC302": "deterministic filter path reads uncertain attributes",
    "TC303": "operator state entries do not match its declared StateRule",
    "TC304": "ND cache declaration contradicts the operator's tag rule",
    "TC305": "aggregate state split contradicts its input tags (sketch/lazy/holistic)",
    "TC306": "operator declares uncertain columns outside its output schema",
    "TC307": "operator uncertain-column tags diverge from the inferred plan tags",
    "TC308": "two execution units produce the same lineage block",
    "TC309": "execution unit consumes a lineage block no unit produces",
}


def _diag(rule_id: str, location: str, message: str, hint: str = "") -> AnalysisDiagnostic:
    return AnalysisDiagnostic(rule_id, location, message, hint)


def _node_loc(node: PlanNode) -> str:
    return f"{type(node).__name__}#{node.node_id}"


# ---------------------------------------------------------------------------
# Pass 1: independent Appendix-A tag inference over the logical plan.
# ---------------------------------------------------------------------------


def infer_tags(
    plan: PlanNode, streamed_tables: set[str]
) -> tuple[dict[int, NodeTags], list[AnalysisDiagnostic]]:
    """Re-derive the ``u#``/``uA`` tags of every plan node, bottom-up.

    Never raises: unsupported shapes yield diagnostics and a conservative
    best-effort tag so inference can continue above them.
    """
    tags: dict[int, NodeTags] = {}
    diags: list[AnalysisDiagnostic] = []
    _infer(plan, streamed_tables, tags, diags)
    return tags, diags


def _infer(
    node: PlanNode,
    streamed: set[str],
    tags: dict[int, NodeTags],
    diags: list[AnalysisDiagnostic],
) -> NodeTags:
    result = _infer_inner(node, streamed, tags, diags)
    tags[node.node_id] = result
    return result


def _infer_inner(
    node: PlanNode,
    streamed: set[str],
    tags: dict[int, NodeTags],
    diags: list[AnalysisDiagnostic],
) -> NodeTags:
    loc = _node_loc(node)

    if isinstance(node, Scan):
        if node.table in streamed:
            # Streamed leaf: attributes certain, multiplicities follow the
            # accumulated sampling function, rows are a uniform sample.
            return NodeTags(True, frozenset(), True, True)
        return STATIC_TAGS

    if isinstance(node, Select):
        child = _infer(node.child, streamed, tags, diags)
        touched = frozenset(node.predicate.attrs() & child.uncertain_cols)
        # Predicate-shape and projection-shape restrictions (TC107/TC108)
        # apply only on the stream pipeline: small segments evaluate
        # arbitrary expressions over uncertain values per bootstrap trial.
        if touched and child.raw_stream:
            for part in conjuncts(node.predicate):
                part_touched = part.attrs() & child.uncertain_cols
                if part_touched and not isinstance(part, Comparison):
                    diags.append(
                        _diag(
                            "TC107",
                            loc,
                            f"conjunct {part!r} reads uncertain columns "
                            f"{sorted(part_touched)} but is not a simple comparison",
                            "rewrite the predicate as a conjunction of x θ y "
                            "comparisons, or resolve the column before the filter",
                        )
                    )
        return NodeTags(
            child.tuple_uncertain or bool(touched),
            child.uncertain_cols,
            child.sample_weighted,
            child.raw_stream,
        )

    if isinstance(node, Project):
        child = _infer(node.child, streamed, tags, diags)
        out_uncertain = set()
        for name, expr in node.outputs:
            touched = expr.attrs() & child.uncertain_cols
            if not touched:
                continue
            out_uncertain.add(name)
            if child.raw_stream and not isinstance(expr, Col):
                diags.append(
                    _diag(
                        "TC108",
                        loc,
                        f"output {name!r} computes over uncertain columns "
                        f"{sorted(touched)}",
                        "move the computation into the consuming predicate or "
                        "aggregate argument (lazy evaluation)",
                    )
                )
        return NodeTags(
            child.tuple_uncertain,
            frozenset(out_uncertain),
            child.sample_weighted,
            child.raw_stream,
        )

    if isinstance(node, Rename):
        child = _infer(node.child, streamed, tags, diags)
        renamed = frozenset(node.mapping.get(c, c) for c in child.uncertain_cols)
        return NodeTags(
            child.tuple_uncertain, renamed, child.sample_weighted, child.raw_stream
        )

    if isinstance(node, Join):
        left = _infer(node.left, streamed, tags, diags)
        right = _infer(node.right, streamed, tags, diags)
        for lk, rk in node.keys:
            if lk in left.uncertain_cols or rk in right.uncertain_cols:
                diags.append(
                    _diag(
                        "TC102",
                        loc,
                        f"join key {lk!r}={rk!r} is uncertain under sampling",
                        "join on certain columns, or aggregate the uncertain "
                        "side first so the key becomes a group key",
                    )
                )
        if left.raw_stream and right.raw_stream:
            diags.append(
                _diag(
                    "TC103",
                    loc,
                    "both join inputs derive row-for-row from the streamed table",
                    "stream exactly one input relation and read the others in "
                    "entirety (paper §2)",
                )
            )
        kept_right = right.uncertain_cols - set(node.right_keys)
        return NodeTags(
            left.tuple_uncertain or right.tuple_uncertain,
            left.uncertain_cols | kept_right,
            left.sample_weighted or right.sample_weighted,
            left.raw_stream or right.raw_stream,
        )

    if isinstance(node, Union):
        left = _infer(node.left, streamed, tags, diags)
        right = _infer(node.right, streamed, tags, diags)
        kinds = {
            _union_side_kind(node.left, left, streamed),
            _union_side_kind(node.right, right, streamed),
        }
        if "small" in kinds:
            diags.append(
                _diag(
                    "TC111",
                    loc,
                    "a UNION input is aggregate-derived; only stream/static "
                    "inputs can be unioned online",
                    "union the raw inputs below the aggregates, or compute the "
                    "union in a post-processing small plan",
                )
            )
        return NodeTags(
            left.tuple_uncertain or right.tuple_uncertain,
            left.uncertain_cols | right.uncertain_cols,
            left.sample_weighted or right.sample_weighted,
            left.raw_stream or right.raw_stream,
        )

    if isinstance(node, Aggregate):
        child = _infer(node.child, streamed, tags, diags)
        for g in node.group_by:
            if g in child.uncertain_cols:
                diags.append(
                    _diag(
                        "TC104",
                        loc,
                        f"group-by key {g!r} is uncertain under sampling",
                        "group by certain columns only (§3.3)",
                    )
                )
        agg_uncertain: set[str] = set()
        for spec in node.aggs:
            arg_uncertain = bool(spec.attrs() & child.uncertain_cols)
            input_changes = (
                child.tuple_uncertain or child.sample_weighted or arg_uncertain
            )
            if input_changes and not spec.func.hadamard_differentiable:
                diags.append(
                    _diag(
                        "TC105",
                        loc,
                        f"aggregate {spec.func.name.upper()} ({spec.name!r}) is "
                        "not Hadamard differentiable but its input changes "
                        "across batches",
                        "use SUM/COUNT/AVG-style aggregates, or run this query "
                        "on the batch engine",
                    )
                )
            if arg_uncertain and child.raw_stream:
                if not spec.func.decomposable:
                    diags.append(
                        _diag(
                            "TC110",
                            loc,
                            f"holistic aggregate {spec.name!r} reads the "
                            f"uncertain columns {sorted(spec.attrs() & child.uncertain_cols)}",
                            "holistic UDAFs require certain arguments online",
                        )
                    )
                elif spec.func.num_features != 1:
                    diags.append(
                        _diag(
                            "TC109",
                            loc,
                            f"aggregate {spec.name!r} over an uncertain argument "
                            f"has {spec.func.num_features} features; lazy "
                            "re-evaluation needs a single identity feature",
                            "SUM/AVG-style aggregates only over uncertain "
                            "arguments (§6.2)",
                        )
                    )
            if input_changes:
                agg_uncertain.add(spec.name)
        return NodeTags(child.tuple_uncertain, frozenset(agg_uncertain), False, False)

    if isinstance(node, Distinct):
        child = _infer(node.child, streamed, tags, diags)
        for c in node.columns:
            if c in child.uncertain_cols:
                diags.append(
                    _diag(
                        "TC106",
                        loc,
                        f"DISTINCT over uncertain column {c!r}",
                        "resolve the column (aggregate it) before DISTINCT",
                    )
                )
        return NodeTags(child.tuple_uncertain, frozenset(), False, False)

    diags.append(
        _diag(
            "TC101",
            loc,
            f"cannot type plan node {type(node).__name__}",
            "only SELECT/PROJECT/RENAME/JOIN/UNION/AGGREGATE/DISTINCT over "
            "base scans run online",
        )
    )
    return STATIC_TAGS


def _union_side_kind(node: PlanNode, side_tags: NodeTags, streamed: set[str]) -> str:
    """How the compiler will realize a UNION input: static / stream / small."""
    if not (streamed & set(node.base_tables())):
        return "static"
    return "stream" if side_tags.raw_stream else "small"


# ---------------------------------------------------------------------------
# Pass 2: checks over what the compiler actually emitted.
# ---------------------------------------------------------------------------


def _label_node_id(label: str) -> int | None:
    prefix, _, suffix = label.partition(":")
    if prefix in ("select", "join", "aggregate") and suffix.isdigit():
        return int(suffix)
    return None


def _expected_spec_split(
    op: AggregateOp,
) -> tuple[list[AggSpec], list[AggSpec], list[AggSpec]]:
    """Re-derive the (sketch, lazy, holistic) split §4.2/§6.2 demand."""
    sketch: list[AggSpec] = []
    lazy: list[AggSpec] = []
    holistic: list[AggSpec] = []
    for spec in op.specs:
        if spec.attrs() & op.child.uncertain_cols:
            lazy.append(spec)
        elif spec.func.decomposable:
            sketch.append(spec)
        else:
            holistic.append(spec)
    return sketch, lazy, holistic


def _subtree_certain_append(op: SpineOp) -> bool:
    """No operator below can put rows on the volatile channel."""
    return not any(type(o).tag_rule.introduces_nd for o in iter_ops(op))


def check_pipeline(
    root_op: SpineOp, tags: dict[int, NodeTags] | None = None
) -> list[AnalysisDiagnostic]:
    """Check one stream pipeline's operators against their declared rules."""
    diags: list[AnalysisDiagnostic] = []
    for op in iter_ops(root_op):
        diags.extend(_check_op(op, tags or {}))
    return diags


def _check_op(op: SpineOp, tags: dict[int, NodeTags]) -> Iterator[AnalysisDiagnostic]:
    cls = type(op)
    loc = op.label

    # TC303: the store must hold exactly the declared §4.2 entries.
    keys = {k for k, _ in op.state_items()}
    if keys != set(cls.state_rule.entries):
        yield _diag(
            "TC303",
            loc,
            f"state entries {sorted(keys)} do not match the declared "
            f"StateRule entries {sorted(cls.state_rule.entries)}",
            "seed every between-batch entry in _init_state and declare it "
            "in the class's state_rule",
        )

    # TC304: ND cache declared iff the tag rule says an ND set can exist.
    if (cls.state_rule.nd_entry is not None) != cls.tag_rule.introduces_nd:
        yield _diag(
            "TC304",
            loc,
            f"{cls.__name__} declares nd_entry={cls.state_rule.nd_entry!r} but "
            f"tag_rule.introduces_nd={cls.tag_rule.introduces_nd}",
            "an operator keeps a non-deterministic cache exactly when its "
            "tag rule lets tuples become non-deterministic (§4.2)",
        )

    # TC306: uncertain columns must exist in the output schema.
    stray = set(op.uncertain_cols) - set(op.schema.names)
    if stray:
        yield _diag(
            "TC306",
            loc,
            f"uncertain columns {sorted(stray)} are not in the output schema "
            f"{list(op.schema.names)}",
        )

    if isinstance(op, UncertainFilterOp):
        child_uncertain = op.child.uncertain_cols
        consumed = set().union(
            *(c.attrs() for c in op.uncertain_conjuncts)
        ) if op.uncertain_conjuncts else set()
        if not (consumed & child_uncertain):
            yield _diag(
                "TC301",
                loc,
                "uncertain-filter operator consumes no uncertain attribute "
                f"(conjunct columns {sorted(consumed)}, input uncertain "
                f"columns {sorted(child_uncertain)})",
                "the compiler must emit a plain FilterOp for fully "
                "deterministic predicates",
            )
        for part in op.det_conjuncts:
            touched = part.attrs() & child_uncertain
            if touched:
                yield _diag(
                    "TC302",
                    loc,
                    f"deterministic conjunct {part!r} reads uncertain columns "
                    f"{sorted(touched)}",
                    "classify the conjunct as uncertain so its decisions are "
                    "range-checked and sentinel-guarded",
                )
    elif isinstance(op, FilterOp):
        touched = op.predicate.attrs() & op.child.uncertain_cols
        if touched:
            yield _diag(
                "TC302",
                loc,
                f"deterministic FilterOp predicate reads uncertain columns "
                f"{sorted(touched)}",
                "the compiler must emit UncertainFilterOp where an uncertain "
                "attribute is consumed",
            )

    if isinstance(op, AggregateOp):
        sketch, lazy, holistic = _expected_spec_split(op)
        actual = (
            [s.name for s in op.sketch_specs],
            [s.name for s in op.lazy_specs],
            [s.name for s in op.holistic_specs],
        )
        expected = ([s.name for s in sketch], [s.name for s in lazy], [s.name for s in holistic])
        if actual != expected:
            yield _diag(
                "TC305",
                loc,
                f"aggregate split (sketch/lazy/holistic) is {actual}, but the "
                f"input tags demand {expected}",
                "certain decomposable arguments fold into sketches; uncertain "
                "arguments are re-evaluated lazily; holistic functions keep "
                "the row store (§4.2/§6.2)",
            )
        if _subtree_certain_append(op.child) and not op.child.uncertain_cols:
            if op.lazy_specs:
                yield _diag(
                    "TC305",
                    loc,
                    "input is certain-append but the aggregate keeps lazy "
                    f"re-evaluation specs {[s.name for s in op.lazy_specs]}",
                    "certain-append input must fold into sketches only",
                )

    # TC307: tags attached to the emitted operator vs the inferred tags.
    node_id = _label_node_id(op.label)
    if node_id is not None and node_id in tags and not cls.tag_rule.resets_tags:
        inferred = tags[node_id].uncertain_cols
        if set(op.uncertain_cols) != set(inferred):
            yield _diag(
                "TC307",
                loc,
                f"operator carries uncertain columns {sorted(op.uncertain_cols)} "
                f"but inference derives {sorted(inferred)} for plan node "
                f"{node_id}",
            )


def check_units(
    units: list[ExecutionUnit], tags: dict[int, NodeTags] | None = None
) -> list[AnalysisDiagnostic]:
    """Check a compiled unit list: pipelines plus the block dependency graph."""
    diags: list[AnalysisDiagnostic] = []
    producers: dict[int, str] = {}
    for unit in units:
        for block_id in unit.produces:
            if block_id in producers:
                diags.append(
                    _diag(
                        "TC308",
                        unit.label,
                        f"block {block_id} is already produced by "
                        f"{producers[block_id]!r}",
                        "every lineage block has exactly one producing unit; "
                        "cross-unit dataflow relies on it (§4.2 "
                        "single-writer discipline)",
                    )
                )
            else:
                producers[block_id] = unit.label
    produced = set(producers)
    for unit in units:
        missing = unit.consumes - produced
        if missing:
            diags.append(
                _diag(
                    "TC309",
                    unit.label,
                    f"consumes blocks {sorted(missing)} that no unit produces",
                    "the lineage reference would never resolve; check the "
                    "compiler's unit ordering",
                )
            )
    for unit in units:
        if isinstance(unit, StreamPipelineUnit):
            diags.extend(check_pipeline(unit.root_op, tags))
    return diags


# ---------------------------------------------------------------------------
# The full typecheck: inference + engine cross-check + emission checks.
# ---------------------------------------------------------------------------


def check_plan(
    plan: PlanNode,
    catalog: Catalog,
    streamed_table: str,
    subject: str = "plan",
) -> AnalysisReport:
    """Typecheck ``plan`` for online execution over ``streamed_table``.

    Returns a report with every violated rule; ``report.ok`` means the
    plan's tag flow, the engine's own analysis, and the compiled
    operators are all mutually consistent.
    """
    started = time.perf_counter()
    report = AnalysisReport(subject)
    tags, diags = infer_tags(plan, {streamed_table})
    report.extend(diags)
    inference_ok = not diags

    engine_tags: dict[int, NodeTags] | None = None
    try:
        engine_tags = engine_analyze(plan, {streamed_table})
    except UnsupportedQueryError as exc:
        if inference_ok:
            report.extend(
                [
                    _diag(
                        "TC202",
                        _node_loc(plan),
                        "the engine's analysis rejects a plan the typechecker "
                        f"accepts: {exc}",
                        "teach infer_tags the missing restriction",
                    )
                ]
            )
    else:
        if not inference_ok:
            report.extend(
                [
                    _diag(
                        "TC202",
                        _node_loc(plan),
                        "the typechecker rejects a plan the engine's analysis "
                        "accepts (see the TC1xx findings above)",
                        "either the engine misses a restriction or a TC1xx "
                        "rule is too strict",
                    )
                ]
            )

    if engine_tags is not None and inference_ok:
        for node_id, inferred in tags.items():
            engine = engine_tags.get(node_id)
            if engine is not None and engine != inferred:
                report.extend(
                    [
                        _diag(
                            "TC201",
                            f"node#{node_id}",
                            f"inferred tags {inferred} diverge from the "
                            f"engine's {engine}",
                        )
                    ]
                )

    compiled: CompiledQuery | None = None
    if report.ok and engine_tags is not None:
        try:
            compiled = compile_online(plan, catalog, streamed_table)
        except UnsupportedQueryError as exc:
            at = _node_loc(exc.node) if isinstance(exc.node, PlanNode) else _node_loc(plan)
            report.extend(
                [
                    _diag(
                        "TC202",
                        at,
                        f"the compiler rejects a plan the typechecker accepts: {exc}",
                        "teach infer_tags the compiler's restriction",
                    )
                ]
            )
    if compiled is not None:
        report.extend(check_units(compiled.units, tags))

    report.wall_seconds = time.perf_counter() - started
    return report


def analyze_query(
    sql: str,
    catalog: Catalog,
    streamed_table: str,
    subject: str | None = None,
) -> AnalysisReport:
    """Plan one SQL statement and typecheck it for online execution.

    The ``iolap analyze`` entry point: SQL that fails to parse or plan is
    reported as a TC101 diagnostic rather than an exception, so a batch
    of queries always yields a report per query.
    """
    started = time.perf_counter()
    if subject is None:
        subject = " ".join(sql.split())[:60]
    try:
        plan = plan_sql(sql, catalog.schemas())
    except ReproError as exc:
        report = AnalysisReport(subject)
        report.extend(
            [
                _diag(
                    "TC101",
                    "sql",
                    f"statement does not plan: {exc}",
                    "only the supported SELECT-project-join-aggregate "
                    "dialect reaches the online engine",
                )
            ]
        )
        report.wall_seconds = time.perf_counter() - started
        return report
    report = check_plan(plan, catalog, streamed_table, subject=subject)
    report.wall_seconds = time.perf_counter() - started
    return report

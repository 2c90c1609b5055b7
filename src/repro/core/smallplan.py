"""Interpreter for *small* plan segments over lineage-block outputs.

Everything in a query that does not touch the streamed fact table
row-by-row — HAVING clauses, scalar comparisons between aggregates,
aggregates of aggregates, IN-subquery membership views — operates on the
small outputs of lineage blocks. iOLAP recomputes these segments every
batch (they are tiny), but does so *uncertainty-aware*:

* every row carries its membership classification (stable-in, stable-out,
  or unknown) derived from variation ranges, so stream-side consumers can
  prune near-deterministic tuples (Section 5.2);
* every row carries per-bootstrap-trial existence, and aggregate values
  carry per-trial values, so the piggybacked bootstrap stays faithful
  through arbitrarily nested blocks;
* aggregate segments publish their own block outputs (with monitored
  variation ranges), making nesting compositional.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.blocks import (
    MEMBER_FALSE,
    MEMBER_TRUE,
    MEMBER_UNKNOWN,
    BlockOutput,
    GroupKey,
    GroupValue,
    RuntimeContext,
)
from repro.core.values import LineageRef, UncertainValue, VariationRange, point_of, range_of, trials_of
from repro.errors import UnsupportedQueryError
from repro.relational.aggregates import AggSpec
from repro.relational.expressions import Comparison, Expression
from repro.relational.relation import Relation


@dataclass
class URow:
    """One row of a small segment, with uncertainty bookkeeping."""

    values: dict[str, object]
    #: Existence/membership is fully settled (stable-in).
    certain: bool = True
    member_status: int = MEMBER_TRUE
    member_point: bool = True
    exist_trials: np.ndarray | None = None

    def exists(self, num_trials: int) -> np.ndarray:
        if self.exist_trials is None:
            return np.ones(num_trials, dtype=bool)
        return self.exist_trials


class SmallNode:
    """Base class of small-segment plan nodes."""

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        raise NotImplementedError


def iter_small_nodes(root: SmallNode):
    """All nodes of a small segment, root first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        child = getattr(node, "child", None)
        if child is not None:
            stack.append(child)
        left = getattr(node, "left", None)
        if left is not None:
            stack.append(left)
        right = getattr(node, "right", None)
        if right is not None:
            stack.append(right)


class SmallBlockLeaf(SmallNode):
    """Reads the current output of a lineage block."""

    def __init__(self, block_id: int):
        self.block_id = block_id

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        output = ctx.blocks.get(self.block_id)
        if output is None:
            return []
        out = []
        for group in output.groups.values():
            out.append(
                URow(
                    dict(group.values),
                    certain=group.certain,
                    member_status=MEMBER_TRUE if group.certain else MEMBER_UNKNOWN,
                    member_point=group.member_point,
                    exist_trials=group.exist_trials,
                )
            )
        return out


class SmallStaticLeaf(SmallNode):
    """Reads a fully static relation (a dimension table)."""

    def __init__(self, relation: Relation):
        self.relation = relation

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        return [URow(self.relation.row(i)) for i in range(len(self.relation))]


class SmallSelect(SmallNode):
    """σ over small rows, with range-based membership classification.

    Stable-false rows are *retained* with ``MEMBER_FALSE`` so that
    stream-side consumers (semi-joins) can distinguish "stably filtered
    out" from "group not yet seen"; every other consumer skips them.
    """

    def __init__(self, child: SmallNode, conjuncts: list[Expression]):
        self.child = child
        self.conjuncts = conjuncts

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        out = []
        for row in self.child.rows(ctx):
            if row.member_status == MEMBER_FALSE:
                out.append(row)
                continue
            out.append(self._apply(row, ctx))
        return out

    def _apply(self, row: URow, ctx: RuntimeContext) -> URow:
        status = row.member_status
        point = row.member_point
        trials = row.exist_trials
        certain = row.certain
        for pred in self.conjuncts:
            p_status, p_point, p_trials, _sources = classify_row_predicate(
                pred, row.values, ctx.num_trials
            )
            if p_status == MEMBER_FALSE:
                return replace(row, member_status=MEMBER_FALSE, member_point=False)
            if p_status == MEMBER_UNKNOWN:
                status = MEMBER_UNKNOWN if status == MEMBER_TRUE else status
                certain = False
                trials = p_trials if trials is None else (trials & p_trials)
            point = point and p_point
        return URow(
            row.values,
            certain=certain,
            member_status=status,
            member_point=point,
            exist_trials=trials,
        )


class SmallProject(SmallNode):
    """π over small rows; uncertain-value arithmetic propagates trials
    and ranges through the projection expressions."""

    def __init__(self, child: SmallNode, outputs: list[tuple[str, Expression]]):
        self.child = child
        self.outputs = outputs

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        out = []
        for row in self.child.rows(ctx):
            values = {
                name: expr.evaluate_row(row.values) for name, expr in self.outputs
            }
            out.append(replace(row, values=values))
        return out


class SmallRename(SmallNode):
    def __init__(self, child: SmallNode, mapping: dict[str, str]):
        self.child = child
        self.mapping = mapping

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        out = []
        for row in self.child.rows(ctx):
            values = {self.mapping.get(k, k): v for k, v in row.values.items()}
            out.append(replace(row, values=values))
        return out


class SmallDistinct(SmallNode):
    """Duplicate elimination; memberships of duplicates OR together."""

    def __init__(self, child: SmallNode, columns: list[str]):
        self.child = child
        self.columns = columns

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        merged: dict[GroupKey, URow] = {}
        for row in self.child.rows(ctx):
            key = tuple(point_of_key(row.values[c]) for c in self.columns)
            slim = URow(
                {c: row.values[c] for c in self.columns},
                certain=row.certain and row.member_status == MEMBER_TRUE,
                member_status=row.member_status,
                member_point=row.member_point,
                exist_trials=row.exist_trials,
            )
            prev = merged.get(key)
            merged[key] = slim if prev is None else _or_membership(prev, slim, ctx)
        return list(merged.values())


def _or_membership(a: URow, b: URow, ctx: RuntimeContext) -> URow:
    status: int
    if MEMBER_TRUE in (a.member_status, b.member_status):
        status = MEMBER_TRUE
    elif MEMBER_UNKNOWN in (a.member_status, b.member_status):
        status = MEMBER_UNKNOWN
    else:
        status = MEMBER_FALSE
    return URow(
        a.values,
        certain=a.certain or b.certain,
        member_status=status,
        member_point=a.member_point or b.member_point,
        exist_trials=(
            None
            if a.exist_trials is None or b.exist_trials is None
            else (a.exist_trials | b.exist_trials)
        ),
    )


class SmallJoin(SmallNode):
    """Equi/cross join between two small inputs; memberships AND together."""

    def __init__(self, left: SmallNode, right: SmallNode, keys: list[tuple[str, str]]):
        self.left = left
        self.right = right
        self.keys = keys

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        left_rows = [
            r for r in self.left.rows(ctx) if r.member_status != MEMBER_FALSE
        ]
        right_rows = [
            r for r in self.right.rows(ctx) if r.member_status != MEMBER_FALSE
        ]
        index: dict[GroupKey, list[URow]] = {}
        for r in right_rows:
            key = tuple(point_of_key(r.values[rk]) for _, rk in self.keys)
            index.setdefault(key, []).append(r)
        out = []
        drop = {rk for _, rk in self.keys}
        for l in left_rows:
            key = tuple(point_of_key(l.values[lk]) for lk, _ in self.keys)
            for r in index.get(key, []):
                values = dict(l.values)
                values.update(
                    {k: v for k, v in r.values.items() if k not in drop}
                )
                status = min(l.member_status, r.member_status, key=_status_rank)
                lt = l.exist_trials
                rt = r.exist_trials
                out.append(
                    URow(
                        values,
                        certain=l.certain and r.certain,
                        member_status=status,
                        member_point=l.member_point and r.member_point,
                        exist_trials=(
                            lt
                            if rt is None
                            else rt
                            if lt is None
                            else (lt & rt)
                        ),
                    )
                )
        return out


def _status_rank(status: int) -> int:
    # AND-combination order: FALSE < UNKNOWN < TRUE.
    return {MEMBER_FALSE: 0, MEMBER_UNKNOWN: 1, MEMBER_TRUE: 2}[status]


class SmallAggregate(SmallNode):
    """γ over small rows — the per-trial recompute path.

    The actual result aggregates rows by their current point membership;
    trial ``j`` aggregates rows existing in trial ``j`` using trial-``j``
    argument values. Publishes a block output (with monitored variation
    ranges), so further nesting and stream-side pruning compose.
    """

    def __init__(
        self,
        child: SmallNode,
        group_by: list[str],
        specs: list[AggSpec],
        block_id: int,
    ):
        self.child = child
        self.group_by = group_by
        self.specs = specs
        self.block_id = block_id

    def rows(self, ctx: RuntimeContext) -> list[URow]:
        in_rows = [
            r for r in self.child.rows(ctx) if r.member_status != MEMBER_FALSE
        ]
        ctx.metrics.recomputed_tuples += len(in_rows)
        t = ctx.num_trials
        groups: dict[GroupKey, list[URow]] = {}
        for row in in_rows:
            key = tuple(point_of_key(row.values[c]) for c in self.group_by)
            groups.setdefault(key, []).append(row)
        if not self.group_by and not groups:
            # A scalar aggregate always yields one row, even over an empty
            # input (COUNT -> 0, AVG -> NaN), matching the batch evaluator.
            groups[()] = []

        output = BlockOutput(self.block_id, self.group_by, [s.name for s in self.specs])
        out_rows: list[URow] = []
        for key, members in groups.items():
            point_w = np.array([float(r.member_point) for r in members])
            exist = (
                np.vstack([r.exists(t) for r in members])
                if members
                else np.zeros((0, t), dtype=bool)
            )  # (n, T)
            values: dict[str, object] = {
                c: key[i] for i, c in enumerate(self.group_by)
            }
            for spec in self.specs:
                arg_point, arg_trials = _argument_matrix(spec, members, t)
                point = spec.func.compute(arg_point, point_w)
                trials = np.empty(t)
                for j in range(t):
                    trials[j] = spec.func.compute(
                        arg_trials[:, j], exist[:, j].astype(np.float64)
                    )
                vrange = ctx.monitor.observe(
                    (self.block_id, key, spec.name), ctx.batch_no, point, trials
                )
                values[spec.name] = UncertainValue(
                    point, trials, vrange, LineageRef(self.block_id, key, spec.name)
                )
            certain = any(
                r.certain and r.member_status == MEMBER_TRUE for r in members
            )
            exist_any = exist.any(axis=0)
            group = GroupValue(
                key,
                values,
                certain,
                exist_trials=None if certain else exist_any,
            )
            output.publish(group, is_new=True)
            out_rows.append(
                URow(
                    dict(values),
                    certain=certain,
                    member_status=MEMBER_TRUE if certain else MEMBER_UNKNOWN,
                    member_point=bool(point_w.any()),
                    exist_trials=None if certain else exist_any,
                )
            )
        ctx.blocks[self.block_id] = output
        return out_rows


def _argument_matrix(
    spec: AggSpec, members: list[URow], num_trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """Point and per-trial argument values of an aggregate over urows."""
    n = len(members)
    if spec.arg is None:
        return np.ones(n), np.ones((n, num_trials))
    point = np.empty(n)
    trials = np.empty((n, num_trials))
    for i, row in enumerate(members):
        value = spec.arg.evaluate_row(row.values)
        point[i] = point_of(value)
        trials[i] = trials_of(value, num_trials)
    return point, trials


def classify_row_predicate(
    pred: Expression, values: dict[str, object], num_trials: int
) -> tuple[int, bool, np.ndarray | None, tuple]:
    """Classify one predicate over one small row.

    Returns ``(member status, current point decision, per-trial decisions
    or None, lineage sources involved)``. Non-comparison predicates must
    be deterministic over the row (checked at compile time for stream
    pipelines; here we verify at runtime because small rows mix certain
    and uncertain cells).
    """
    if isinstance(pred, Comparison):
        left = pred.left.evaluate_row(values)
        right = pred.right.evaluate_row(values)
        if not isinstance(left, UncertainValue) and not isinstance(
            right, UncertainValue
        ):
            ok = bool(_point_compare(pred.op, left, right))
            return (MEMBER_TRUE if ok else MEMBER_FALSE), ok, None, ()
        sources = tuple(
            dict.fromkeys(
                getattr(left, "sources", ()) + getattr(right, "sources", ())
            )
        )
        lr, rr = range_of(left), range_of(right)
        status = _range_compare(pred.op, lr, rr)
        point = bool(_point_compare(pred.op, point_of(left), point_of(right)))
        if status != MEMBER_UNKNOWN:
            return status, point, None, sources
        lt = trials_of(left, num_trials)
        rt = trials_of(right, num_trials)
        with np.errstate(invalid="ignore"):
            trials = _point_compare(pred.op, lt, rt)
        return MEMBER_UNKNOWN, point, np.asarray(trials, dtype=bool), sources
    # Boolean combinators / UDF predicates: require determinism.
    result = pred.evaluate_row(values)
    ok = bool(result)
    return (MEMBER_TRUE if ok else MEMBER_FALSE), ok, None, ()


def _point_compare(op: str, a, b):
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == "==":
        return a == b
    return a != b


def _range_compare(op: str, a: VariationRange, b: VariationRange) -> int:
    if op in (">", ">="):
        if (a.lo > b.hi) if op == ">" else (a.lo >= b.hi):
            return MEMBER_TRUE
        if (a.hi <= b.lo) if op == ">" else (a.hi < b.lo):
            return MEMBER_FALSE
        return MEMBER_UNKNOWN
    if op in ("<", "<="):
        flipped = ">" if op == "<" else ">="
        return _range_compare(flipped, b, a)
    if op == "==":
        if a.is_point and b.is_point and a.lo == b.lo:
            return MEMBER_TRUE
        if not a.intersects(b):
            return MEMBER_FALSE
        return MEMBER_UNKNOWN
    # "!=" mirrors "==".
    inner = _range_compare("==", a, b)
    if inner == MEMBER_TRUE:
        return MEMBER_FALSE
    if inner == MEMBER_FALSE:
        return MEMBER_TRUE
    return MEMBER_UNKNOWN


def point_of_key(value: object) -> object:
    """Group/join keys must be deterministic; unwrap defensively."""
    if isinstance(value, UncertainValue):
        raise UnsupportedQueryError(
            "group/join key over an uncertain value is not supported"
        )
    return value


@dataclass
class SmallPlanUnit:
    """An executable small segment: evaluate, then publish and/or expose.

    ``publish_id`` registers the segment's rows as a joinable view in the
    block registry (keyed by ``key_cols``); the root segment of a query
    instead exposes its rows as the final result via :meth:`result_rows`.
    """

    root: SmallNode
    publish_id: int | None = None
    key_cols: list[str] = field(default_factory=list)
    value_cols: list[str] = field(default_factory=list)
    _last_rows: list[URow] = field(default_factory=list)

    def run(self, ctx: RuntimeContext) -> None:
        rows = self.root.rows(ctx)
        self._last_rows = rows
        if self.publish_id is None:
            return
        output = BlockOutput(self.publish_id, self.key_cols, self.value_cols)
        for row in rows:
            key = tuple(point_of_key(row.values[c]) for c in self.key_cols)
            output.publish(
                GroupValue(
                    key,
                    row.values,
                    certain=row.certain and row.member_status == MEMBER_TRUE,
                    member_status=row.member_status,
                    member_point=row.member_point,
                    exist_trials=row.exist_trials,
                ),
                is_new=True,
            )
        ctx.blocks[self.publish_id] = output

    def result_rows(self) -> list[URow]:
        """Rows currently in the result (stable-false ones excluded)."""
        return [
            r
            for r in self._last_rows
            if r.member_status != MEMBER_FALSE and r.member_point
        ]

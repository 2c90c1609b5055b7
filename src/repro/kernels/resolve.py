"""Batched lineage resolution and array-wide interval arithmetic.

The per-row reference (``repro.core.classify.evaluate_side_per_row``)
evaluates a comparison side row by row: resolve the row's lineage cells, run
``UncertainValue`` arithmetic, copy ``lo/hi/point/trials`` out. Lineage
columns repeat a handful of distinct cell objects (one per side group),
so the kernel factorizes each column by cell identity, resolves every
*distinct* cell exactly once, and assembles the per-row arrays with
gathers. Arithmetic then runs array-wide: elementwise ufuncs for points
and trials (bit-identical to the per-row NumPy-scalar ops) and interval
arithmetic mirroring :class:`~repro.core.values.VariationRange` for the
bounds.

:func:`try_evaluate_side` returns ``None`` for expression shapes the
kernel does not cover (non-arithmetic nodes, ``%``, non-numeric
literals); the caller falls back to the per-row reference for those
inputs, keeping the fast path an optimization rather than a semantics
fork.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.values import LineageRef, UncertainValue
from repro.kernels.codec import factorize_cells
from repro.relational.expressions import Arith, Col, Expression, Literal

_INF = float("inf")


class UnsupportedKernel(Exception):
    """Raised internally when an expression needs the row-wise path."""


@dataclass
class _Node:
    """Evaluated subtree: bounds/point may be arrays or Python scalars;
    ``trials`` of None means "equal to point in every trial"."""

    lo: object
    hi: object
    point: object
    trials: np.ndarray | None
    pending: np.ndarray | None
    #: (cell codes, sources-per-distinct-cell) of every uncertain column
    #: under this subtree, for provenance (``SideValues.refs``).
    ref_entries: list = field(default_factory=list)


def try_evaluate_side(
    expr: Expression,
    rel,
    uncertain_cols: set[str],
    ctx,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, set] | None:
    """Vectorized ``evaluate_side`` payload, or ``None`` to fall back.

    Returns ``(lo, hi, point, trials, pending, refs)`` with the exact
    values the row-wise reference computes (pending rows NaN-filled).
    """
    n = len(rel)
    try:
        node = _eval(expr, rel, uncertain_cols, ctx, n)
    except UnsupportedKernel:
        return None
    lo = np.asarray(node.lo, dtype=np.float64)
    hi = np.asarray(node.hi, dtype=np.float64)
    point = np.asarray(node.point, dtype=np.float64)
    pending = (
        node.pending if node.pending is not None else np.zeros(n, dtype=bool)
    )
    trials = node.trials
    if trials is None:
        trials = np.broadcast_to(point[:, None], (n, ctx.num_trials))
    if pending.any():
        lo, hi, point = lo.copy(), hi.copy(), point.copy()
        trials = np.array(trials, dtype=np.float64)
        lo[pending] = hi[pending] = point[pending] = np.nan
        trials[pending] = np.nan
    return lo, hi, point, trials, pending, _collect_refs(node, pending)


def resolve_column(
    column: np.ndarray, n: int, ctx, lineage=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, set]:
    """Vectorized fast path for a bare uncertain column of refs/values.

    ``lineage`` may be the column's structured
    :class:`~repro.storage.lineage.LineageColumn` sidecar; when present
    the distinct cells come straight from its int32 slots instead of an
    identity sweep over the objects.
    """
    node = _resolve_column_node(column, n, ctx, lineage)
    pending = node.pending
    assert pending is not None and node.trials is not None
    refs = _collect_refs(node, pending)
    return node.lo, node.hi, node.point, node.trials, pending, refs  # type: ignore[return-value]


def _collect_refs(node: _Node, pending: np.ndarray) -> set:
    """Sources of every uncertain cell that reaches a non-pending row —
    the reference skips rows it cannot evaluate, so pending-only cells
    must not contribute."""
    refs: set = set()
    mask = ~pending
    for codes, sources_per_cell in node.ref_entries:
        for u in np.unique(codes[mask]):
            refs.update(sources_per_cell[u])
    return refs


# -- evaluation --------------------------------------------------------------------


def _eval(expr, rel, uncertain_cols: set[str], ctx, n: int) -> _Node:
    if isinstance(expr, Literal):
        v = expr.value
        if not isinstance(v, (int, float, np.integer, np.floating)):
            raise UnsupportedKernel(f"non-numeric literal {v!r}")
        return _Node(v, v, v, None, None)
    if isinstance(expr, Col):
        values = rel.columns[expr.name]
        if expr.name in uncertain_cols:
            return _resolve_column_node(values, n, ctx, rel.lineage.get(expr.name))
        if values.dtype == object:
            raise UnsupportedKernel(f"object column {expr.name!r}")
        return _Node(values, values, values, None, None)
    if isinstance(expr, Arith) and expr.op in ("+", "-", "*", "/"):
        a = _eval(expr.left, rel, uncertain_cols, ctx, n)
        b = _eval(expr.right, rel, uncertain_cols, ctx, n)
        return _combine(expr.op, a, b)
    raise UnsupportedKernel(f"cannot vectorize {type(expr).__name__}")


def _resolve_column_node(column: np.ndarray, n: int, ctx, lineage=None) -> _Node:
    """Resolve each *distinct* cell once, then gather per row.

    With a structured lineage sidecar the distinct-cell factorization is
    a pure int32 ``np.unique`` over slot indices (the pool holds one
    distinct object per slot, so slot-distinctness equals the identity
    factorization); mixed or sidecar-less columns fall back to the
    ``id()`` sweep.
    """
    fact = None
    if lineage is not None and len(lineage) == n:
        fact = lineage.factorized()
    if fact is None:
        fact = factorize_cells(np.asarray(column, dtype=object))
    codes, cells = fact
    u = len(cells)
    t = ctx.num_trials
    u_lo = np.empty(u)
    u_hi = np.empty(u)
    u_point = np.empty(u)
    u_trials = np.empty((u, t))
    u_pending = np.zeros(u, dtype=bool)
    sources_per_cell: list[tuple] = [()] * u
    for j in range(u):
        cell = cells[j]
        value = ctx.resolve(cell) if isinstance(cell, LineageRef) else cell
        if value is None:
            u_pending[j] = True
            u_lo[j] = u_hi[j] = u_point[j] = np.nan
            u_trials[j] = np.nan
        elif isinstance(value, UncertainValue):
            u_lo[j], u_hi[j] = value.vrange.lo, value.vrange.hi
            u_point[j] = value.value
            u_trials[j] = value.trials
            sources_per_cell[j] = value.sources
        else:
            u_lo[j] = u_hi[j] = u_point[j] = float(value)  # type: ignore[arg-type]
            u_trials[j] = float(value)  # type: ignore[arg-type]
    return _Node(
        u_lo[codes],
        u_hi[codes],
        u_point[codes],
        u_trials[codes],
        u_pending[codes],
        [(codes, sources_per_cell)],
    )


# -- interval / trial arithmetic ---------------------------------------------------


def _trials_view(node: _Node):
    """Operand's (n, T)-broadcastable trial values."""
    if node.trials is not None:
        return node.trials
    point = node.point
    return point[:, None] if isinstance(point, np.ndarray) else point


def _merge_pending(a: _Node, b: _Node) -> np.ndarray | None:
    if a.pending is None:
        return b.pending
    if b.pending is None:
        return a.pending
    return a.pending | b.pending


def _combine(op: str, a: _Node, b: _Node) -> _Node:
    trials = None
    if a.trials is not None or b.trials is not None:
        ta, tb = _trials_view(a), _trials_view(b)
    pending = _merge_pending(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        if op == "+":
            lo, hi = a.lo + b.lo, a.hi + b.hi
            point = a.point + b.point
            if a.trials is not None or b.trials is not None:
                trials = ta + tb
        elif op == "-":
            lo, hi = a.lo - b.hi, a.hi - b.lo
            point = a.point - b.point
            if a.trials is not None or b.trials is not None:
                trials = ta - tb
        elif op == "*":
            lo, hi = _interval_mul(a.lo, a.hi, b.lo, b.hi)
            point = a.point * b.point
            if a.trials is not None or b.trials is not None:
                trials = ta * tb
        else:  # "/"
            # Denominator interval crossing zero -> unbounded quotient,
            # mirroring VariationRange.__truediv__.
            cross = np.asarray(b.lo <= 0.0) & np.asarray(np.asarray(b.hi) >= 0.0)
            inv_lo, inv_hi = 1.0 / np.asarray(b.hi, dtype=np.float64), 1.0 / np.asarray(
                b.lo, dtype=np.float64
            )
            lo, hi = _interval_mul(a.lo, a.hi, inv_lo, inv_hi)
            lo = np.where(cross, -_INF, lo)
            hi = np.where(cross, _INF, hi)
            point = a.point / b.point
            if a.trials is not None or b.trials is not None:
                trials = ta / tb
    return _Node(lo, hi, point, trials, pending, a.ref_entries + b.ref_entries)


def _interval_mul(alo, ahi, blo, bhi):
    """[lo, hi] of the product interval — NaN products (0·inf) ignored,
    matching the reference's NaN-filtered min/max."""
    with np.errstate(invalid="ignore"):
        p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
        lo = np.fmin(np.fmin(p1, p2), np.fmin(p3, p4))
        hi = np.fmax(np.fmax(p1, p2), np.fmax(p3, p4))
    return lo, hi

"""JOIN operators: static dimension sides and uncertain small sides."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockOutput, GroupKey, GroupValue, RuntimeContext
from repro.core.classify import FALSE, PENDING, TRUE, UNKNOWN
from repro.core.operators.base import (
    DeltaBatch,
    SpineOp,
    StateRule,
    TagRule,
    empty_relation,
    mask_contribution,
)
from repro.core.sentinels import MembershipSentinels
from repro.core.values import LineageRef
from repro.kernels.codec import factorize_keys
from repro.kernels.joins import SideIndex, vectorized_join
from repro.kernels.stats import STATS
from repro.kernels.views import GroupTable, group_table
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.lineage import lineage_from_refs


class StaticJoinOp(SpineOp):
    """JOIN of the stream with a static (dimension) side.

    The paper's JOIN state rule: when only the fact table is streamed, the
    operator state is just the dimension side, kept in memory from batch 1
    (and reported as join state for the Figure 9(b) accounting). With the
    vectorized kernels the dimension side's hash index is built once into
    the state store ("side_index", accounted in state bytes) and reused
    every batch.
    """

    #: The paper's JOIN state rule with a certain side: state is exactly
    #: the broadcast dimension side (plus its derived hash index); no
    #: non-deterministic set can arise.
    tag_rule = TagRule(consumes_uncertain="forbidden")
    state_rule = StateRule(frozenset({"side", "side_index", "announced"}))

    def __init__(
        self,
        child: SpineOp,
        side: Relation,
        keys: list[tuple[str, str]],
        schema: Schema,
        stream_is_left: bool,
        node_id: int,
    ):
        super().__init__(f"join:{node_id}", schema, child.uncertain_cols, (child,))
        self.child = child
        self.side = side
        self.keys = keys
        self.stream_is_left = stream_is_left
        self._init_state()

    def _init_state(self) -> None:
        # The broadcast side is immutable configuration, but it *is* the
        # operator's state footprint, so it lives in the store (as a
        # static entry: accounted, checkpointed by reference). The derived
        # hash index is built lazily on the first vectorized join.
        self.state.put("side", self.side, static=True)
        self.state.put("side_index", None, static=True)
        self.state.put("announced", False)

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        if not self.state.get("announced"):
            # Broadcasting the dimension table is a one-time shipping cost.
            ctx.metrics.shipped_bytes += self.side.estimated_bytes()
            self.state.put("announced", True)
        return DeltaBatch(
            self._join(delta.certain, ctx), self._join(delta.volatile, ctx)
        )

    def _side_index(self) -> SideIndex:
        """Cross-batch cached hash index over the dimension side."""
        index = self.state.get("side_index")
        if index is None:
            STATS.inc("side_index_misses")
            index = SideIndex(self.side, [rk for _, rk in self.keys])
            self.state.put("side_index", index, static=True)
        else:
            STATS.inc("side_index_hits")
        return index

    def _join(self, rel: Relation, ctx: RuntimeContext) -> Relation:
        # A keyless (cross) join has no key to index; ``vectorized_join``
        # hands it to the evaluator's nested product.
        if self.stream_is_left:
            index = self._side_index() if self.keys else None
            return vectorized_join(rel, self.side, self.keys, index)
        # Stream on the probe side: the per-batch index is over the stream
        # delta, so there is nothing to cache.
        flipped = [(rk, lk) for lk, rk in self.keys]
        return _reorder_columns(vectorized_join(self.side, rel, flipped), self.schema)


def _reorder_columns(rel: Relation, schema: Schema) -> Relation:
    """Project columns into the compiler's expected order, tolerating the
    key-drop asymmetry of flipped joins."""
    cols = {name: rel.columns[name] for name in schema.names}
    return Relation._from_parts(
        schema,
        cols,
        rel.mult,
        rel.trial_mults,
        encodings={n: e for n, e in rel.encodings.items() if n in cols} or None,
        lineage={n: s for n, s in rel.lineage.items() if n in cols} or None,
    )


class UncertainJoinOp(SpineOp):
    """JOIN of the stream with an uncertain small side (a lineage-block
    boundary, Section 6).

    Each stream row looks up its group in the side view and attaches the
    side's columns — uncertain ones as :class:`LineageRef` so their values
    stay lazily up to date, deterministic ones by value. Rows whose group
    membership is unresolved form this operator's non-deterministic store;
    rows whose group has not been published at all wait in the pending
    store (re-tried every batch).
    """

    #: JOIN against an uncertain block output: unresolved-membership rows
    #: form the non-deterministic set ("nd"), unpublished-group rows wait
    #: in "pending", and resolved memberships are sentinel-guarded — the
    #: §4.2 JOIN rule when the other input carries uncertainty.
    tag_rule = TagRule(consumes_uncertain="required", introduces_nd=True)
    state_rule = StateRule(
        frozenset({"nd", "pending", "member_sentinels"}), nd_entry="nd"
    )

    def __init__(
        self,
        child: SpineOp,
        side_id: int,
        stream_keys: list[str],
        attach_cols: list[tuple[str, bool]],
        schema: Schema,
        node_id: int,
    ):
        uncertain = child.uncertain_cols | {
            name for name, is_uncertain in attach_cols if is_uncertain
        }
        super().__init__(f"join:{node_id}", schema, uncertain, (child,))
        self.child = child
        self.side_id = side_id
        self.stream_keys = stream_keys
        self.attach_cols = attach_cols
        self._init_state()

    def _init_state(self) -> None:
        self.state.put("nd", None)
        self.state.put("pending", None)
        self.state.put("member_sentinels", MembershipSentinels())

    @property
    def nd_store(self) -> Relation | None:
        return self.state.get("nd")

    @nd_store.setter
    def nd_store(self, value: Relation | None) -> None:
        self.state.put("nd", value)

    @property
    def pending(self) -> Relation | None:
        return self.state.get("pending")

    @pending.setter
    def pending(self, value: Relation | None) -> None:
        self.state.put("pending", value)

    @property
    def member_sentinels(self) -> MembershipSentinels:
        return self.state.get("member_sentinels")

    # -- helpers -----------------------------------------------------------------

    def _keys_of(self, rel: Relation) -> list[GroupKey]:
        if not self.stream_keys:
            return [() for _ in range(len(rel))]
        return rel.key_tuples(self.stream_keys)

    def _attach_coded(
        self, rel: Relation, table: GroupTable | None, slot_rows: np.ndarray
    ) -> Relation:
        """Vectorized :meth:`_attach`: gather side columns from the group
        table's per-column pools instead of filling row by row.

        Uncertain columns additionally get a structured
        :class:`~repro.storage.lineage.LineageColumn` sidecar — the slot
        rows *are* the ``(block_id, row_idx)`` lineage, so downstream
        resolve/sentinel passes consume int32 slots and the ND bitmask
        instead of re-factorizing the ref objects by identity."""
        n = len(rel)
        cols = dict(rel.columns)
        lineage = dict(rel.lineage)
        for name, is_uncertain in self.attach_cols:
            if n == 0:
                dtype = (
                    np.dtype(object) if is_uncertain else self.schema.type_of(name).dtype
                )
                cols[name] = np.empty(0, dtype=dtype)
            elif is_uncertain:
                pool = table.ref_pool(self.side_id, name, LineageRef)
                cols[name] = pool[slot_rows]
                lineage[name] = lineage_from_refs(str(self.side_id), pool, slot_rows)
            else:
                cols[name] = table.value_pool(name, self.schema.type_of(name).dtype)[
                    slot_rows
                ]
        return Relation._from_parts(
            self.schema,
            cols,
            rel.mult,
            rel.trial_mults,
            encodings=rel.encodings or None,
            lineage=lineage or None,
        )

    def _attach(self, rel: Relation, groups: list[GroupValue]) -> Relation:
        """Append side columns for rows whose group is known."""
        n = len(rel)
        cols = dict(rel.columns)
        for name, is_uncertain in self.attach_cols:
            if is_uncertain:
                arr = np.empty(n, dtype=object)
                for i, g in enumerate(groups):
                    arr[i] = LineageRef(self.side_id, g.key, name)
            else:
                arr = np.empty(n, dtype=self.schema.type_of(name).dtype)
                for i, g in enumerate(groups):
                    arr[i] = g.values[name]
            cols[name] = arr
        return Relation(self.schema, cols, rel.mult, rel.trial_mults)

    def _probe_status(
        self,
        rel: Relation,
        view: BlockOutput | None,
        missing: np.int8,
        record: bool,
        batch_no: int,
    ) -> tuple[GroupTable | None, np.ndarray, np.ndarray]:
        """Membership status and group-table slot of every row of ``rel``.

        The side view is probed once per *distinct* stream key; a key with
        no published group gets status ``missing`` and slot -1. With
        ``record=True`` every stable membership decision leaves a sentinel
        so a later flip triggers recovery (recording is setdefault-
        idempotent and keyed by group, so once per distinct key matches
        once per row)."""
        kc = factorize_keys(rel, self.stream_keys)
        table = group_table(view) if view is not None else None
        if table is None or not len(table.status):
            status_u = np.full(kc.num_keys, missing, dtype=np.int8)
            slots_u = np.full(kc.num_keys, -1, dtype=np.intp)
        else:
            slots_u = table.probe(kc.keys)
            status_u = np.where(
                slots_u < 0, missing, table.status[np.maximum(slots_u, 0)]
            ).astype(np.int8, copy=False)
        if record:
            for u in np.flatnonzero(status_u == TRUE):
                self.member_sentinels.record(kc.keys[u], True, batch_no=batch_no)
            for u in np.flatnonzero(status_u == FALSE):
                self.member_sentinels.record(kc.keys[u], False, batch_no=batch_no)
        return table, status_u[kc.codes], slots_u[kc.codes]

    def _partition_new(
        self,
        rel: Relation,
        view: BlockOutput | None,
        ctx: RuntimeContext,
        record: bool = False,
    ) -> tuple[Relation, Relation, Relation]:
        """Split incoming certain rows into (certain-out, nd, pending).

        ``record=True`` marks the permanent actions of the certain input
        path, which are sentinel-guarded (see :meth:`_probe_status`)."""
        if len(rel) == 0:
            return self._empty_out(ctx), self._empty_out(ctx), rel
        table, status, slots = self._probe_status(
            rel, view, PENDING, record, ctx.batch_no
        )
        sure = status == TRUE
        unknown = status == UNKNOWN
        certain_out = self._attach_coded(rel.filter(sure), table, slots[sure])
        nd = self._attach_coded(rel.filter(unknown), table, slots[unknown])
        return certain_out, nd, rel.filter(status == PENDING)

    def _volatile_of(self, rel: Relation, ctx: RuntimeContext) -> Relation:
        """Current contribution of attached-but-unresolved rows."""
        view = ctx.blocks.get(self.side_id)
        n = len(rel)
        if n == 0 or view is None:
            return self._empty_out(ctx)
        table, _, slots = self._probe_status(rel, view, UNKNOWN, False, 0)
        present = slots >= 0
        point = np.zeros(n, dtype=bool)
        trials = np.zeros((n, ctx.num_trials), dtype=bool)
        if present.any():
            point[present] = table.member_point[slots[present]]
            trials[present] = table.exist_matrix(ctx.num_trials)[slots[present]]
        return mask_contribution(rel, (point, trials))

    def _empty_out(self, ctx: RuntimeContext) -> Relation:
        return empty_relation(self.schema, self.uncertain_cols, ctx.num_trials)

    # -- processing -----------------------------------------------------------------

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        view = ctx.blocks.get(self.side_id)
        # Integrity: previously resolved memberships must not have flipped.
        ctx.fault("sentinel", self.label)
        self.member_sentinels.check(ctx, view)

        certain_new, nd_new, pending_new = self._partition_new(
            delta.certain, view, ctx, record=True
        )

        # Retry rows that were waiting for their group to be published.
        if self.pending is not None and len(self.pending):
            ctx.metrics.recomputed_tuples += len(self.pending)
            certain_retry, nd_retry, still_pending = self._partition_new(
                self.pending, view, ctx, record=True
            )
            certain_new = certain_new.concat(certain_retry)
            nd_new = nd_new.concat(nd_retry)
            self.pending = still_pending.concat(pending_new)
        else:
            self.pending = pending_new

        # Re-examine the non-deterministic store against fresh membership.
        nd_old = self.nd_store if self.nd_store is not None else self._empty_out(ctx)
        ctx.metrics.recomputed_tuples += len(nd_old)
        if not ctx.config.lazy_lineage and len(nd_old) and view is not None:
            # OPT2 off: regenerate cached tuples instead of updating them
            # in place — re-do the join lookup and rebuild every attached
            # column for the whole store (the paper's "re-generating the
            # tuple from scratch" cost that lineage + lazy evaluation
            # avoids).
            groups = [view.get(key) for key in self._keys_of(nd_old)]
            keep = np.array(
                [g is not None for g in groups], dtype=bool
            )
            nd_old = self._attach(
                nd_old.filter(keep), [g for g in groups if g is not None]
            )
        if len(nd_old) and view is not None:
            # A stored row's group was published when the row was parked
            # here, so a missing group stays undecided (UNKNOWN), never
            # PENDING.
            _, status, _ = self._probe_status(
                nd_old, view, UNKNOWN, True, ctx.batch_no
            )
            certain_new = certain_new.concat(nd_old.filter(status == TRUE))
            nd_old = nd_old.filter(status == UNKNOWN)
        self.nd_store = nd_old.concat(nd_new)

        volatile = self._volatile_of(self.nd_store, ctx)
        if len(delta.volatile):
            vol_view = ctx.blocks.get(self.side_id)
            v_certain, v_nd, _ = self._partition_new(delta.volatile, vol_view, ctx)
            # Upstream volatile rows are never stored here; they contribute
            # whatever their current membership allows.
            volatile = volatile.concat(v_certain)
            volatile = volatile.concat(self._volatile_of(v_nd, ctx))
        if ctx.obs.enabled:
            reg = ctx.obs.metrics
            nd, pending = self.nd_store, self.pending
            reg.gauge("nd.rows", op=self.label).set(0 if nd is None else len(nd))
            reg.gauge("pending.rows", op=self.label).set(
                0 if pending is None else len(pending)
            )
            reg.gauge("sentinels", op=self.label).set(len(self.member_sentinels))
        return DeltaBatch(certain_new, volatile)

"""Online AGGREGATE: sketch folding, lazy/holistic paths, block publishing."""

from __future__ import annotations

import numpy as np

from repro.core.blocks import BlockOutput, GroupKey, GroupValue, RuntimeContext
from repro.core.classify import evaluate_side
from repro.core.operators.base import DeltaBatch, SpineOp, StateRule, TagRule
from repro.core.sketch import AggBundle
from repro.state.store import SelfSizingSet
from repro.core.values import LineageRef, UncertainValue
from repro.kernels.codec import factorize_keys, recode_subset
from repro.kernels.holistic import grouped_indices
from repro.errors import UnsupportedQueryError
from repro.relational.aggregates import AggSpec
from repro.relational.relation import Relation
from repro.relational.schema import Schema


class AggregateOp(SpineOp):
    """Online AGGREGATE (Section 4.2's state rules + Section 5's pruning).

    Certain input rows with deterministic aggregate arguments fold into
    per-group per-trial sketches and are forgotten. Rows whose argument is
    uncertain go to a row store and are lazily re-evaluated each batch
    through their lineage references; volatile input rows are re-aggregated
    from scratch each batch (they are few — that is the point). The
    combined result is published as this lineage block's output.
    """

    #: AGGREGATE ends a lineage block: input tags are absorbed into the
    #: published block output (fresh ``u#``/``uA`` tags downstream). The
    #: §4.2 state rule is sketch-only over certain-append input; the row
    #: store ("rows") is populated only when a lazy/holistic aggregate
    #: argument demands re-evaluation.
    tag_rule = TagRule(consumes_uncertain="allowed", resets_tags=True)
    state_rule = StateRule(
        frozenset(
            {
                "sketch",
                "sketch_ready",
                "rows",
                "certain_groups",
                "published_keys",
                "tombstones",
            }
        ),
    )

    def __init__(
        self,
        child: SpineOp,
        group_by: list[str],
        specs: list[AggSpec],
        schema: Schema,
        block_id: int,
        sample_weighted: bool,
    ):
        super().__init__(f"aggregate:{block_id}", schema, set(), (child,))
        self.child = child
        self.group_by = group_by
        self.specs = specs
        self.block_id = block_id
        self.sample_weighted = sample_weighted

        self.sketch_specs: list[AggSpec] = []
        self.lazy_specs: list[AggSpec] = []
        self.holistic_specs: list[AggSpec] = []
        for spec in specs:
            arg_uncertain = bool(spec.attrs() & child.uncertain_cols)
            if arg_uncertain and not spec.func.decomposable:
                raise UnsupportedQueryError(
                    f"aggregate {spec.name!r}: holistic UDAF over an "
                    "uncertain argument is not supported online"
                )
            if arg_uncertain:
                if spec.func.num_features != 1:
                    raise UnsupportedQueryError(
                        f"aggregate {spec.name!r} over an uncertain argument "
                        "requires a single identity feature (SUM/AVG-style)"
                    )
                self.lazy_specs.append(spec)
            elif spec.func.decomposable:
                self.sketch_specs.append(spec)
            else:
                self.holistic_specs.append(spec)
        self._init_state()

    def _init_state(self) -> None:
        self.state.put("sketch", AggBundle(self.sketch_specs, 0))
        self.state.put("sketch_ready", False)
        self.state.put("rows", None)
        self.state.put("certain_groups", SelfSizingSet())
        self.state.put("published_keys", SelfSizingSet())
        self.state.put("tombstones", {})

    @property
    def sketch(self) -> AggBundle:
        return self.state.get("sketch")

    @sketch.setter
    def sketch(self, value: AggBundle) -> None:
        self.state.put("sketch", value)

    @property
    def row_store(self) -> Relation | None:
        return self.state.get("rows")

    @row_store.setter
    def row_store(self, value: Relation | None) -> None:
        self.state.put("rows", value)

    @property
    def certain_groups(self) -> set[GroupKey]:
        return self.state.get("certain_groups")

    @property
    def _published_keys(self) -> set[GroupKey]:
        return self.state.get("published_keys")

    @property
    def _tombstones(self) -> dict[GroupKey, GroupValue]:
        return self.state.get("tombstones")

    @property
    def needs_row_store(self) -> bool:
        return bool(self.lazy_specs or self.holistic_specs)

    def process(self, delta: DeltaBatch, ctx: RuntimeContext) -> DeltaBatch:
        if not self.state.get("sketch_ready"):
            self.sketch = AggBundle(self.sketch_specs, ctx.num_trials)
            self.state.put("sketch_ready", True)
            if not self.group_by:
                # A scalar aggregate always yields one row, even if no
                # input ever arrives (COUNT -> 0, AVG -> NaN) — matching
                # the batch evaluator.
                self.sketch._ensure_groups([()])
                self.certain_groups.add(())
        cin, vin = delta.certain, delta.volatile
        ctx.metrics.shipped_bytes += cin.estimated_bytes() + vin.estimated_bytes()

        self.sketch.fold(cin, self.group_by)
        if self.needs_row_store and len(cin):
            store = self.row_store
            self.row_store = cin if store is None else store.concat(cin)
        if len(cin):
            if ctx.config.vectorize:
                # The codec's distinct keys update the set identically to
                # the per-row tuples (set semantics), without building a
                # tuple per row.
                self.certain_groups.update(factorize_keys(cin, self.group_by).keys)
            else:
                self.certain_groups.update(
                    cin.key_tuples(self.group_by) if self.group_by else [()]
                )

        volatile_bundle = None
        if len(vin):
            ctx.metrics.recomputed_tuples += len(vin)
            volatile_bundle = AggBundle.from_relation(
                vin, self.group_by, self.sketch_specs, ctx.num_trials
            )
        combined = self.sketch.merged_with(volatile_bundle)

        scale = ctx.scale if self.sample_weighted else 1.0
        per_group: dict[GroupKey, dict[str, object]] = {}
        exist_trials: dict[GroupKey, np.ndarray] = {}
        exist_point: dict[GroupKey, bool] = {}
        g = len(combined)
        finals = [combined.finalize(s, scale) for s in range(len(self.sketch_specs))]
        trial_weight = combined.trial_weight[:g]
        weight = combined.weight[:g]
        for gi, key in enumerate(combined.keys):
            vals: dict[str, object] = {}
            for s, spec in enumerate(self.sketch_specs):
                vals[spec.name] = (finals[s][0][gi], finals[s][1][gi])
            per_group[key] = vals
            exist_trials[key] = trial_weight[gi] > 0
            exist_point[key] = bool(weight[gi] > 0)

        if self.lazy_specs or self.holistic_specs:
            self._add_lazy_and_holistic(
                ctx, vin, scale, per_group, exist_trials, exist_point
            )

        self._publish(ctx, per_group, exist_trials, exist_point)
        return DeltaBatch(self.empty(ctx), self.empty(ctx))

    # -- lazy / holistic paths ---------------------------------------------------------

    def _lazy_input(self, ctx: RuntimeContext, vin: Relation) -> Relation:
        store = self.row_store
        if store is None:
            return vin
        return store.concat(vin) if len(vin) else store

    def _add_lazy_and_holistic(
        self,
        ctx: RuntimeContext,
        vin: Relation,
        scale: float,
        per_group: dict[GroupKey, dict[str, object]],
        exist_trials: dict[GroupKey, np.ndarray],
        exist_point: dict[GroupKey, bool],
    ) -> None:
        rows = self._lazy_input(ctx, vin)
        ctx.metrics.recomputed_tuples += len(rows)
        vectorize = ctx.config.vectorize
        kc = factorize_keys(rows, self.group_by) if vectorize else None
        keys = (
            None
            if vectorize
            else rows.key_tuples(self.group_by) if self.group_by else [()] * len(rows)
        )
        # Deterministic-mult stores never materialize the (n, T) copy —
        # the broadcast is read-only and all uses below fancy-index it.
        trial_w = (
            rows.trial_mults
            if rows.trial_mults is not None
            else np.broadcast_to(rows.mult[:, None], (len(rows), ctx.num_trials))
        )
        for spec in self.lazy_specs:
            side = evaluate_side(spec.arg, rows, self.child.uncertain_cols, ctx)
            ok = ~side.pending
            bundle = AggBundle([spec], ctx.num_trials)
            if vectorize:
                sub_keys, sub_codes = recode_subset(kc, ok)
                bundle.fold_values_coded(
                    sub_keys,
                    sub_codes,
                    0,
                    side.point[ok],
                    side.trial_matrix(ctx.num_trials)[ok],
                    rows.mult[ok],
                    trial_w[ok],
                )
            else:
                bundle.fold_values(
                    [k for k, good in zip(keys, ok) if good],
                    0,
                    side.point[ok],
                    side.trial_matrix(ctx.num_trials)[ok],
                    rows.mult[ok],
                    trial_w[ok],
                )
            values, trial_values = bundle.finalize(0, scale)
            for gi, key in enumerate(bundle.keys):
                vals = per_group.setdefault(key, {})
                vals[spec.name] = (values[gi], trial_values[gi])
                exist_trials.setdefault(key, bundle.trial_weight[gi] > 0)
                exist_point.setdefault(key, bool(bundle.weight[gi] > 0))
        for spec in self.holistic_specs:
            values_arr = spec.arg_values(rows)
            if vectorize:
                group_iter = zip(kc.keys, grouped_indices(kc.codes, kc.num_keys))
            else:
                by_group: dict[GroupKey, list[int]] = {}
                for i, key in enumerate(keys):
                    by_group.setdefault(key, []).append(i)
                group_iter = (
                    (key, np.asarray(idx, dtype=np.intp))
                    for key, idx in by_group.items()
                )
            for key, ix in group_iter:
                point = spec.func.compute(values_arr[ix], rows.mult[ix]) * (
                    scale if spec.func.scales_with_m else 1.0
                )
                if vectorize:
                    trials = spec.func.trial_compute(values_arr[ix], trial_w[ix])
                else:
                    trials = np.empty(ctx.num_trials)
                    for j in range(ctx.num_trials):
                        trials[j] = spec.func.compute(values_arr[ix], trial_w[ix, j])
                if spec.func.scales_with_m:
                    trials = trials * scale
                vals = per_group.setdefault(key, {})
                vals[spec.name] = (point, trials)
                exist_trials.setdefault(key, trial_w[ix].sum(axis=0) > 0)
                exist_point.setdefault(key, bool(rows.mult[ix].sum() > 0))

    # -- publishing ------------------------------------------------------------------

    def _publish(
        self,
        ctx: RuntimeContext,
        per_group: dict[GroupKey, dict[str, object]],
        exist_trials: dict[GroupKey, np.ndarray],
        exist_point: dict[GroupKey, bool],
    ) -> None:
        value_cols = [s.name for s in self.specs]
        output = BlockOutput(self.block_id, self.group_by, value_cols)
        obs_on = ctx.obs.enabled
        width_hist = (
            ctx.obs.metrics.histogram("range.width", block=str(self.block_id))
            if obs_on
            else None
        )
        # Vectorized mode batches the range estimation per spec column —
        # one (G, T) reduction instead of G scalar observe() calls — with
        # bit-identical bounds (see RangeMonitor.observe_batch).
        batched_ranges: dict[str, list] | None = None
        if ctx.config.vectorize and per_group:
            keys_order = list(per_group)
            batched_ranges = {}
            for spec in self.specs:
                points = np.fromiter(
                    (float(per_group[k][spec.name][0]) for k in keys_order),  # type: ignore[index]
                    dtype=np.float64,
                    count=len(keys_order),
                )
                trials_mat = np.vstack(
                    [
                        np.asarray(per_group[k][spec.name][1], dtype=np.float64)  # type: ignore[index]
                        for k in keys_order
                    ]
                )
                batched_ranges[spec.name] = ctx.monitor.observe_batch(
                    self.block_id, spec.name, keys_order, ctx.batch_no, points, trials_mat
                )
        for row_i, (key, raw) in enumerate(per_group.items()):
            values: dict[str, object] = {}
            for gi, col_name in enumerate(self.group_by):
                values[col_name] = key[gi]
            for spec in self.specs:
                point, trials = raw[spec.name]  # type: ignore[misc]
                if batched_ranges is not None:
                    vrange = batched_ranges[spec.name][row_i]
                else:
                    vrange = ctx.monitor.observe(
                        (self.block_id, key, spec.name),
                        ctx.batch_no,
                        float(point),
                        trials,
                    )
                if width_hist is not None and vrange is not None:
                    width_hist.observe(vrange.width)
                values[spec.name] = UncertainValue(
                    float(point),
                    trials,
                    vrange,
                    LineageRef(self.block_id, key, spec.name),
                )
            certain = key in self.certain_groups
            group = GroupValue(
                key,
                values,
                certain,
                member_point=certain or exist_point.get(key, True),
                exist_trials=None if certain else exist_trials.get(key),
            )
            output.publish(group, is_new=key not in self._published_keys)
            self._published_keys.add(key)
        # Groups that vanished (all their volatile contributors currently
        # excluded) stay visible with empty existence, so downstream
        # lineage references keep resolving. Sorted so the tombstone order
        # (and hence the output's group iteration order) does not depend
        # on set hashing.
        vanished = self._published_keys - set(per_group)
        for key in sorted(vanished):
            tomb = self._tombstones.get(key)
            if tomb is None:
                values = {c: k for c, k in zip(self.group_by, key)}
                for spec in self.specs:
                    values[spec.name] = UncertainValue(
                        float("nan"),
                        np.full(ctx.num_trials, np.nan),
                        lineage=LineageRef(self.block_id, key, spec.name),
                    )
                tomb = GroupValue(
                    key,
                    values,
                    certain=False,
                    member_point=False,
                    exist_trials=np.zeros(ctx.num_trials, dtype=bool),
                )
                self._tombstones[key] = tomb
            output.groups[key] = tomb
        ctx.metrics.nd_groups += len(per_group)
        if obs_on:
            ctx.obs.metrics.gauge("block.groups", op=self.label).set(
                len(output.groups)
            )
        ctx.blocks[self.block_id] = output

"""Lineage blocks, block outputs, and the per-batch runtime context.

Section 6.1 divides a query plan into maximal SPJA *lineage blocks*, each
ending at an AGGREGATE. iOLAP propagates fine-grained lineage within a
block and only ``(relation, group key)`` references across block
boundaries. This module holds the runtime datastructures that make that
work:

* :class:`GroupValue` / :class:`BlockOutput` — the published output of an
  aggregate block: per group key, the uncertain aggregate values (point
  estimate + bootstrap trials + variation range) and the group's own
  existence uncertainty (a group backed only by non-deterministic tuples
  may still disappear from some bootstrap trials);
* :class:`RuntimeContext` — everything an operator needs during one
  mini-batch: the batch number and scale factor, this batch's delta
  relations (with their Poisson trial multiplicities), the block registry
  for lazy lineage resolution, the range monitor, metrics, and the
  feature flags for the Figure 9(a) ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bootstrap.poisson import trial_multiplicities
from repro.core.ranges import RangeMonitor
from repro.core.values import LineageRef, UncertainValue
from repro.errors import ReproError
from repro.metrics.stats import BatchMetrics
from repro.obs.session import NULL_OBS
from repro.relational.catalog import Catalog
from repro.relational.relation import Relation
from repro.state import StateRegistry

GroupKey = tuple


#: Membership status codes (aligned with repro.core.classify constants).
MEMBER_FALSE, MEMBER_TRUE, MEMBER_UNKNOWN = 0, 1, 2


@dataclass
class GroupValue:
    """One group's published state in a block output.

    Besides the aggregate values, a group carries its *membership* state
    for consumers that join against the block: plain aggregate blocks
    publish every group as a member, while filtered views (HAVING /
    IN-subquery sides) classify membership against variation ranges —
    ``MEMBER_TRUE``/``MEMBER_FALSE`` are stable decisions, and
    ``MEMBER_UNKNOWN`` groups expose their current point decision and the
    per-bootstrap-trial decisions.
    """

    key: GroupKey
    #: column name -> UncertainValue (aggregates) or scalar (group keys).
    values: dict[str, object]
    #: The group contains at least one tuple without tuple uncertainty, so
    #: its existence is settled (the AGGREGATE ``u#`` rule of Section 4.1).
    certain: bool
    #: Range-classified membership: MEMBER_TRUE / MEMBER_FALSE / MEMBER_UNKNOWN.
    member_status: int = MEMBER_TRUE
    #: Current point decision of the membership predicate.
    member_point: bool = True
    #: Per-bootstrap-trial existence/membership (None = all trials).
    exist_trials: np.ndarray | None = None

    def exist_in_trial(self, num_trials: int) -> np.ndarray:
        if self.exist_trials is None:
            return np.ones(num_trials, dtype=bool)
        return self.exist_trials

    @property
    def certainly_in(self) -> bool:
        return self.certain and self.member_status == MEMBER_TRUE

    @property
    def certainly_out(self) -> bool:
        return self.member_status == MEMBER_FALSE


class BlockOutput:
    """The (small) current output relation of a lineage block."""

    def __init__(self, block_id: int, key_cols: list[str], value_cols: list[str]):
        self.block_id = block_id
        self.key_cols = key_cols
        self.value_cols = value_cols
        self.groups: dict[GroupKey, GroupValue] = {}
        #: Keys first published this batch (delta of the block boundary).
        self.new_keys: list[GroupKey] = []

    def get(self, key: GroupKey) -> GroupValue | None:
        return self.groups.get(key)

    def publish(self, group: GroupValue, is_new: bool) -> None:
        self.groups[group.key] = group
        if is_new:
            self.new_keys.append(group.key)

    def __len__(self) -> int:
        return len(self.groups)

    def estimated_bytes(self) -> int:
        if not self.groups:
            return 0
        sample = next(iter(self.groups.values()))
        per_group = 32
        for v in sample.values.values():
            per_group += 8
            if isinstance(v, UncertainValue):
                per_group += 8 * len(v.trials)
        return per_group * len(self.groups)


@dataclass
class OnlineConfig:
    """Tunable knobs of an online execution (paper Sections 5, 7, 8.4)."""

    #: Bootstrap trials used for error estimation / variation ranges.
    num_trials: int = 100
    #: Slack parameter ε of the variation-range estimator.
    slack: float = 2.0
    #: OPT1 — tuple-uncertainty partitioning via variation ranges. Off =
    #: the conservative Section 4 algorithm (everything touched by an
    #: uncertain predicate stays non-deterministic forever).
    prune_with_ranges: bool = True
    #: OPT2 — lineage propagation + lazy evaluation. Off = regenerate
    #: non-deterministic tuples from their source rows through the full
    #: upstream operator chain every batch.
    lazy_lineage: bool = True
    #: RNG seed for partitioning and bootstrap draws.
    seed: int = 0
    #: Use the vectorized hot-path kernels (``repro.kernels``). Off = the
    #: row-wise reference implementations; results are bit-identical
    #: either way (enforced by tests), so this is a perf escape hatch and
    #: an A/B lever for the kernel benchmarks, not a semantics switch.
    vectorize: bool = True
    #: Contract-check mode: cross-check the static analyzer's claims at
    #: runtime (input fingerprints around each ``process`` call, state-key
    #: snapshots per batch). Purely observational — results are bit-identical to a non-verify run.
    verify: bool = False
    #: Take a state checkpoint every N batches (Section 5.1 recovery):
    #: failure recovery restores the newest checkpoint at or before the
    #: failure's ``recover_from_batch`` and replays only the suffix. 0
    #: disables periodic checkpoints (recovery replays from the pristine
    #: pre-run snapshot, the pre-checkpoint behavior).
    checkpoint_interval: int = 8
    #: Ring-buffer capacity: at most this many checkpoints are retained
    #: (oldest evicted first; the pristine baseline is kept separately).
    checkpoint_keep: int = 4
    #: Byte budget across retained checkpoints (``estimate_nbytes`` of
    #: each snapshot); oldest checkpoints are evicted to stay under it.
    checkpoint_budget_bytes: int = 256 * 1024 * 1024
    #: Deterministic fault-injection plan: a spec string like
    #: ``"sentinel@16,unit@5:aggregate*2,checkpoint@12"`` (see
    #: :mod:`repro.faults`), an already-parsed ``FaultPlan``, or None
    #: (no faults — the production setting).
    faults: object = None
    #: Executor retries per unit for transient failures (errors carrying
    #: ``transient = True``, e.g. injected unit faults); anything else
    #: propagates immediately.
    unit_retry_attempts: int = 2
    #: Base backoff seconds between unit retries (doubled per retry); 0
    #: retries immediately (the test/benchmark setting).
    unit_retry_backoff: float = 0.0
    #: Run the TSan-style buffer sanitizer
    #: (:class:`repro.analysis.sanitize.BufferSanitizer`): freeze every
    #: buffer handed to ``process`` and every zero-copy view base, and
    #: track view provenance. Off by default (zero cost when off).
    sanitize: bool = False
    #: Continuous profiling (:mod:`repro.obs.profile`): fold every batch
    #: into a rolling per-operator EWMA profile and fit the predictive
    #: cost model from it. Purely observational — results are
    #: bit-identical to an unprofiled run (enforced by tests); zero cost
    #: when off (one ``is None`` test per batch).
    profile: bool = False
    #: Path of the ``profiles.json`` artifact: loaded (if present) at
    #: run start so predictions warm-start from prior runs of the same
    #: plan shape, saved at run end. None keeps profiles in memory only.
    profile_path: str | None = None
    #: Also run the sampling stack profiler (daemon thread reading
    #: ``sys._current_frames()`` of the controller thread); implies the
    #: same bit-identical guarantee — it only reads frames.
    profile_stack: bool = False
    #: Batches of samples the cost model needs before it starts issuing
    #: predictions (calibration counts only scored predictions).
    profile_warmup_batches: int = 5
    #: Accuracy target (worst relative stdev) the telemetry layer
    #: reports distance-to-convergence against (the
    #: ``costmodel.batches_to_target`` gauge and ``iolap top``'s ETA);
    #: None disables the gauge. Does not stop the run — early stopping
    #: stays the caller's decision, as in the paper's interaction model.
    target_rsd: float | None = None
    #: Process-level scale-out (:mod:`repro.engine.shards`): hash-partition
    #: the streamed table across this many worker processes, each running
    #: the full delta algorithm over its shard with shared-nothing state,
    #: merging per-batch results deterministically at the sink. 0/1 = off
    #: (single-process execution). Plans without a fact-column group key
    #: fall back to single-process execution automatically.
    shards: int = 0


class RuntimeContext:
    """Mutable per-execution state threaded through all online operators."""

    def __init__(
        self,
        statics: Catalog,
        streamed_table: str,
        total_rows: int,
        config: OnlineConfig,
    ):
        self.statics = statics
        self.streamed_table = streamed_table
        self.total_rows = total_rows
        self.config = config
        self.monitor = RangeMonitor(slack=config.slack, enabled=config.prune_with_ranges)
        self.blocks: dict[int, BlockOutput] = {}
        self.batch_no = 0
        self.seen_rows = 0
        #: Operator state stores, registered by ``SpineOp.open``; the
        #: engine checkpoints/restores through this registry.
        self.stores = StateRegistry()
        self.metrics = BatchMetrics(0)
        self._delta: Relation | None = None
        #: True while replaying batches during failure recovery: range
        #: observations neither check integrity nor tighten ranges.
        self.replaying = False
        #: Runtime contract verifier (``--verify`` mode), or None. Imported
        #: lazily: repro.analysis must stay optional on the hot path.
        self.verifier = None
        if config.verify:
            from repro.analysis.verify import ContractVerifier

            self.verifier = ContractVerifier()
        #: Runtime buffer sanitizer (``config.sanitize``), or None. Like
        #: the verifier, imported lazily so the analysis layer stays off
        #: the engine's import path unless requested.
        self.sanitizer = None
        if config.sanitize:
            from repro.analysis.sanitize import BufferSanitizer

            self.sanitizer = BufferSanitizer()
        #: Observability session (tracer + metrics registry + event bus).
        #: The inert NULL_OBS by default; the engine attaches a real one.
        self.obs = NULL_OBS
        #: Deterministic fault injector (``config.faults``), or None. The
        #: operators and executors poke :meth:`fault` at their designated
        #: injection points; with no plan configured that is one attribute
        #: test per point.
        self.faults = None
        if config.faults:
            from repro.faults import FaultInjector, as_plan

            self.faults = FaultInjector(as_plan(config.faults))

    def fault(self, point: str, label: str | None = None) -> None:
        """Fault-injection hook: raises if an armed fault matches
        ``point`` at the current batch (no-op without a fault plan)."""
        if self.faults is not None:
            self.faults.fire(point, self, label=label)

    def attach_obs(self, obs) -> None:
        """Install an observability session (and wire the verifier's
        warning emitter into its trace timeline)."""
        self.obs = obs
        if self.verifier is not None and obs.enabled:
            self.verifier.emit = obs.tracer.warning
        if self.sanitizer is not None and obs.enabled:
            self.sanitizer.emit = obs.tracer.warning

    # -- per-batch lifecycle -------------------------------------------------------

    def begin_batch(
        self, batch_no: int, delta: Relation, metrics: BatchMetrics
    ) -> None:
        """Install this batch's streamed delta (tagging bootstrap trials)."""
        self.batch_no = batch_no
        self.metrics = metrics
        tracer = self.obs.tracer
        if tracer.enabled:
            with tracer.span(
                "bootstrap", cat="bootstrap", batch=batch_no,
                rows=len(delta), trials=self.config.num_trials,
            ):
                trials = trial_multiplicities(
                    len(delta),
                    self.config.num_trials,
                    self.config.seed,
                    self.streamed_table,
                    batch_no,
                )
        else:
            trials = trial_multiplicities(
                len(delta),
                self.config.num_trials,
                self.config.seed,
                self.streamed_table,
                batch_no,
            )
        self._delta = delta.with_mult(delta.mult, trials)
        self.seen_rows += len(delta)
        metrics.new_tuples += len(delta)

    @property
    def delta(self) -> Relation:
        if self._delta is None:
            raise ReproError("no delta installed; call begin_batch first")
        return self._delta

    @property
    def scale(self) -> float:
        """The extrapolation factor ``m_i = |D| / |D_i|``."""
        if self.seen_rows == 0:
            return 1.0
        return self.total_rows / self.seen_rows

    @property
    def num_trials(self) -> int:
        return self.config.num_trials

    # -- lineage resolution (Section 6.2's broadcast-join lookup) -------------------

    def block(self, block_id: int) -> BlockOutput:
        try:
            return self.blocks[block_id]
        except KeyError:
            raise ReproError(f"block {block_id} has not published output yet") from None

    def resolve(self, ref: LineageRef) -> object | None:
        """Current value of a lineage reference (None if group unseen)."""
        output = self.blocks.get(ref.block_id)
        if output is None:
            return None
        group = output.groups.get(ref.key)
        if group is None:
            return None
        return group.values.get(ref.column)

    def reset_for_replay(self, batch_no: int = 0, seen_rows: int = 0) -> None:
        """Rewind the batch cursor before a recovery replay.

        Published block outputs are dropped (the first replayed batch
        republishes every block: producers run before consumers within a
        batch); ``batch_no``/``seen_rows`` rewind to the restored
        checkpoint's position so ``ctx.scale`` extrapolates correctly
        through the replayed suffix.
        """
        self.blocks.clear()
        self.seen_rows = seen_rows
        self.batch_no = batch_no
        self._delta = None

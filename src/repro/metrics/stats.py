"""Execution instrumentation for the benchmark harness.

The paper evaluates iOLAP with per-batch latency (Fig. 7/8), counts of
recomputed tuples (Fig. 8(e)/(f)), operator state sizes (Fig. 9(b)/10(c)),
shipped-data volume (Fig. 9(c)/10(d)) and failure-recovery probability
(Fig. 9(d)/10(e)). :class:`BatchMetrics` collects all of these for one
mini-batch; :class:`RunMetrics` aggregates a full online execution.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class BatchMetrics:
    """Counters for one mini-batch iteration."""

    batch_no: int
    #: True elapsed wall-clock seconds of the batch (incl. bootstrap).
    #: Owned by the controller, which stamps it once per batch.
    wall_seconds: float = 0.0
    #: Sum of per-execution-unit elapsed seconds: ``wall_seconds`` minus
    #: the engine overhead outside the units (bootstrap, checkpoints).
    #: Merged shard metrics sum the workers' unit time.
    unit_seconds: float = 0.0
    #: Rows newly ingested from the streamed table this batch.
    new_tuples: int = 0
    #: Rows recomputed: ND-set re-evaluations, row-store re-aggregation,
    #: pending-join retries, and small-block inputs (Fig. 8(e)/(f)).
    recomputed_tuples: int = 0
    #: Bytes crossing shuffle boundaries this batch (Fig. 9(c)).
    shipped_bytes: int = 0
    #: Current state footprint per operator label (Fig. 9(b)).
    state_bytes: dict[str, int] = field(default_factory=dict)
    #: Wall seconds per operator / execution-unit label this batch.
    op_seconds: dict[str, float] = field(default_factory=dict)
    #: Whether a variation-range integrity failure triggered recovery.
    recovered: bool = False
    #: Seconds spent inside the recovery replay (included in wall_seconds).
    recovery_seconds: float = 0.0
    #: Cost-model prediction of this batch's wall seconds, issued by the
    #: continuous profiler *before* the batch ran (0.0 when profiling is
    #: off or the model was still warming up). Compared against
    #: ``wall_seconds - recovery_seconds`` for calibration.
    predicted_seconds: float = 0.0
    #: Groups recomputed by the aggregate sinks this batch, summed over
    #: sinks.
    nd_groups: int = 0

    def reset_attempt(self) -> None:
        """Discard the accumulators of a failed batch attempt.

        When an integrity failure aborts a batch mid-execution, the
        controller replays and re-runs the batch with the *same*
        ``BatchMetrics``; without this reset the failed attempt's rows
        in/out, shipped bytes, and per-unit timings double-count against
        the successful attempt. ``recovered``/``recovery_seconds`` (the
        failure happened; the replay cost is real) and ``wall_seconds``
        (stamped once by the controller with the true batch elapsed time)
        are deliberately preserved.
        """
        self.unit_seconds = 0.0
        self.new_tuples = 0
        self.recomputed_tuples = 0
        self.shipped_bytes = 0
        self.state_bytes = {}
        self.op_seconds = {}
        self.nd_groups = 0

    def add_state(self, label: str, nbytes: int) -> None:
        self.state_bytes[label] = self.state_bytes.get(label, 0) + nbytes

    def add_op_seconds(self, label: str, seconds: float) -> None:
        self.op_seconds[label] = self.op_seconds.get(label, 0.0) + seconds

    def merge_from(self, other: "BatchMetrics") -> None:
        """Fold another batch's counters into this one.

        The shard scheduler merges each worker's batch metrics in
        shard-index order, so the merged totals are deterministic.

        ``wall_seconds`` is deliberately *not* merged: summing the
        workers' elapsed time would inflate it past the true batch
        latency. Per-unit time folds into ``unit_seconds`` instead; the
        scheduler stamps ``wall_seconds`` with the real batch elapsed time.
        """
        self.unit_seconds += other.unit_seconds
        self.new_tuples += other.new_tuples
        self.recomputed_tuples += other.recomputed_tuples
        self.shipped_bytes += other.shipped_bytes
        for label, nbytes in other.state_bytes.items():
            self.add_state(label, nbytes)
        for label, seconds in other.op_seconds.items():
            self.add_op_seconds(label, seconds)
        self.recovered = self.recovered or other.recovered
        self.recovery_seconds += other.recovery_seconds
        self.nd_groups += other.nd_groups

    @property
    def total_state_bytes(self) -> int:
        return sum(self.state_bytes.values())

    def state_bytes_matching(self, prefix: str) -> int:
        return sum(v for k, v in self.state_bytes.items() if k.startswith(prefix))

    def to_dict(self) -> dict:
        return {
            "batch_no": self.batch_no,
            "wall_seconds": self.wall_seconds,
            "unit_seconds": self.unit_seconds,
            "new_tuples": self.new_tuples,
            "recomputed_tuples": self.recomputed_tuples,
            "shipped_bytes": self.shipped_bytes,
            "state_bytes": dict(self.state_bytes),
            "total_state_bytes": self.total_state_bytes,
            "op_seconds": dict(self.op_seconds),
            "recovered": self.recovered,
            "recovery_seconds": self.recovery_seconds,
            "predicted_seconds": self.predicted_seconds,
            "nd_groups": self.nd_groups,
        }


@dataclass
class RunMetrics:
    """All batch metrics of one online query execution."""

    batches: list[BatchMetrics] = field(default_factory=list)
    #: True when the failure-recovery safety valve tripped: the run
    #: exhausted its recovery budget and finished in conservative mode
    #: (range monitor disabled, no pruning).
    pruning_disabled: bool = False
    #: Wall seconds the static plan analysis took before execution (zero
    #: when the run skipped analysis); the harness records it so the
    #: analyzer's fixed per-query cost is visible next to execution time.
    analysis_seconds: float = 0.0
    #: Wall seconds spent inside the runtime buffer sanitizer
    #: (``OnlineConfig(sanitize=True)``): buffer freezes and provenance
    #: tracking. Exactly 0.0 when sanitizing is off — the perf suite
    #: asserts the zero-cost claim.
    sanitize_seconds: float = 0.0
    #: Wall seconds spent inside the continuous profiler + cost model
    #: (``OnlineConfig(profile=True)``): per-batch profile folds,
    #: refits, and prediction scoring. Exactly 0.0 when profiling is off
    #: — the perf suite asserts the zero-cost claim.
    profile_seconds: float = 0.0
    #: Cost-model calibration of this run (prediction count, mean
    #: absolute error in seconds, MAPE, warm-up quota); empty when
    #: profiling is off.
    cost_calibration: dict = field(default_factory=dict)

    def start_batch(self, batch_no: int) -> BatchMetrics:
        bm = BatchMetrics(batch_no)
        self.batches.append(bm)
        return bm

    @property
    def total_seconds(self) -> float:
        return sum(b.wall_seconds for b in self.batches)

    @property
    def total_unit_seconds(self) -> float:
        """Summed per-unit elapsed time (CPU-occupancy view; exceeds
        ``total_seconds`` when shard workers run in parallel)."""
        return sum(b.unit_seconds for b in self.batches)

    @property
    def total_recomputed(self) -> int:
        return sum(b.recomputed_tuples for b in self.batches)

    @property
    def total_shipped_bytes(self) -> int:
        return sum(b.shipped_bytes for b in self.batches)

    @property
    def num_recoveries(self) -> int:
        return sum(1 for b in self.batches if b.recovered)

    def seconds_until_fraction(self, fraction: float) -> float:
        """Wall time until the given fraction of batches completed.

        Used for the paper's "iOLAP on 5%/10% data" bars: the latency to
        deliver the approximate answer after that share of the stream.
        """
        upto = max(1, round(len(self.batches) * fraction))
        return sum(b.wall_seconds for b in self.batches[:upto])

    def total_op_seconds(self) -> dict[str, float]:
        """Per-label wall seconds summed over all batches."""
        totals: dict[str, float] = {}
        for bm in self.batches:
            for label, seconds in bm.op_seconds.items():
                totals[label] = totals.get(label, 0.0) + seconds
        return totals

    def to_dict(self) -> dict:
        from repro.metrics.schema import RUN_METRICS_SCHEMA_VERSION

        return {
            "schema_version": RUN_METRICS_SCHEMA_VERSION,
            "num_batches": len(self.batches),
            "total_seconds": self.total_seconds,
            "total_unit_seconds": self.total_unit_seconds,
            "total_recomputed": self.total_recomputed,
            "total_shipped_bytes": self.total_shipped_bytes,
            "num_recoveries": self.num_recoveries,
            "pruning_disabled": self.pruning_disabled,
            "analysis_seconds": self.analysis_seconds,
            "sanitize_seconds": self.sanitize_seconds,
            "profile_seconds": self.profile_seconds,
            "cost_calibration": dict(self.cost_calibration),
            "op_seconds": self.total_op_seconds(),
            "batches": [bm.to_dict() for bm in self.batches],
        }

    def to_json(self, indent: int | None = None) -> str:
        """JSON dump of all per-batch metrics (for benchmark trajectories)."""
        return json.dumps(self.to_dict(), indent=indent)

    def max_state_bytes(self, prefix: str = "") -> int:
        return max(
            (b.state_bytes_matching(prefix) for b in self.batches), default=0
        )

    def avg_state_bytes(self, prefix: str = "") -> float:
        if not self.batches:
            return 0.0
        return sum(b.state_bytes_matching(prefix) for b in self.batches) / len(
            self.batches
        )

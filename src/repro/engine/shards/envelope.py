"""Shard worker protocol: pickle-able task/result envelopes + row hashing.

Everything that crosses the process boundary is defined here, as plain
dataclasses over already-picklable engine types (:class:`Relation`,
:class:`PartialResult` rows, :class:`BatchMetrics`). The parent hands
each worker one :class:`InitTask` at spawn time (as a process argument,
so a forked worker inherits the catalog copy-on-write instead of
unpickling it), then sends one :class:`BatchTask` per mini-batch; the
worker answers each batch with a :class:`ShardResult`
(or a :class:`ShardFailure` carrying the formatted traceback — raw
exceptions never cross the pipe, so an unpicklable error cannot wedge
the scheduler).

Shard ownership is a pure function of the row's shard-key values —
:func:`shard_ids` — so every worker computes identical assignments from
its own copy of the stream with no coordination, and a respawned worker
re-derives exactly the rows its predecessor owned.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.blocks import OnlineConfig
from repro.metrics.stats import BatchMetrics
from repro.relational.algebra import PlanNode
from repro.relational.relation import Relation

_FNV_PRIME = np.uint64(1099511628211)
_FNV_OFFSET = np.uint64(14695981039346656037)


@dataclass(frozen=True)
class ShardSpec:
    """One worker's identity: which slice of the key space it owns."""

    index: int
    count: int
    key: tuple[str, ...]


@dataclass
class InitTask:
    """Everything a worker needs to build its shard-local engine."""

    tables: dict[str, Relation]
    streamed_table: str
    plan: PlanNode
    config: OnlineConfig
    num_batches: int
    partition_mode: str
    shard: ShardSpec
    #: Whether the parent's observability session is live: workers skip
    #: computing per-batch counters (state walks) when nobody reads them.
    collect_counters: bool = True


@dataclass(frozen=True)
class BatchTask:
    """Advance the worker's run by one mini-batch."""

    batch_no: int
    #: True while re-driving already-processed batches after a respawn:
    #: the worker processes them identically (deterministic replay); the
    #: parent discards the result envelopes.
    replay: bool = False


@dataclass(frozen=True)
class StopTask:
    """Close the worker's run session and exit the worker loop."""


@dataclass
class ShardResult:
    """One shard's contribution to one batch's merged PartialResult."""

    shard_index: int
    batch_no: int
    #: The shard's result rows (UncertainValue cells ride along intact,
    #: so holistic/quantile sinks merge at full trial fidelity).
    rows: list[dict[str, object]]
    metrics: BatchMetrics
    #: Shard-local observability counters, merged into the parent's
    #: metrics registry under ``shard.<i>.*``.
    counters: dict[str, float] = field(default_factory=dict)
    #: Cumulative CPU seconds of the worker process (``process_time``) —
    #: the scaling benchmark's critical-path input.
    cpu_seconds: float = 0.0


@dataclass
class ShardFailure:
    """A worker-fatal error, shipped as formatted text (always picklable)."""

    shard_index: int
    batch_no: int
    kind: str
    message: str
    traceback: str


def shard_ids(rel: Relation, key: tuple[str, ...], count: int) -> np.ndarray:
    """Deterministic shard assignment per row from its key-column values.

    FNV-1a over per-column splitmix64-mixed value hashes: stable across
    processes and runs (no Python hash randomization), vectorized for
    numeric columns. All rows of one group land on one shard because the
    hash reads only the shard-key columns.
    """
    with np.errstate(over="ignore"):
        h = np.full(len(rel), _FNV_OFFSET, dtype=np.uint64)
        for name in key:
            h = (h ^ _column_hash(rel.columns[name])) * _FNV_PRIME
        return (h % np.uint64(count)).astype(np.int64)


def _column_hash(arr: np.ndarray) -> np.ndarray:
    kind = arr.dtype.kind
    if kind in "iub":
        v = arr.astype(np.uint64)
    elif kind == "f":
        v = arr.astype(np.float64).view(np.uint64)
    else:
        # Strings / objects: CRC32 of the stable text form, row by row
        # (shard keys are group-key columns — low cardinality in practice).
        v = np.fromiter(
            (zlib.crc32(str(x).encode("utf-8")) for x in arr.tolist()),
            dtype=np.uint64,
            count=len(arr),
        )
    return _mix64(v)


def _mix64(v: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: spreads low-entropy key values across shards."""
    with np.errstate(over="ignore"):
        v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return v ^ (v >> np.uint64(31))

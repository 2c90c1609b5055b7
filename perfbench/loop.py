"""The closed loop: one caller runs each query and reads every partial.

The caller asks for the next partial only after it has read the last
one. Engine time is the time spent inside the result generator
(``next``); everything the caller does with a partial — the relative
stdev, the CI coverage check, the exact-answer comparison — happens
between those calls, outside every timed interval.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.result import PartialResult
from repro.core.values import UncertainValue
from repro.relational.relation import Relation

from perfbench.workloads import NUM_BATCHES, Query, Workload

#: A query has reached usable accuracy once its worst cell's relative
#: stdev is at or below this (the exact final batch always counts).
TARGET_RSD = 0.05
#: Coverage is measured at this batch: early, when intervals are wide.
COVERAGE_BATCH = 2
COVERAGE_LEVEL = 0.95


class Counts(NamedTuple):
    """Deterministic facts of one query run; they must repeat exactly."""

    batches: int
    recoveries: int
    recomputed_tuples: int
    nd_groups: int
    peak_state_bytes: int
    #: Batch at which the worst relative stdev first reached TARGET_RSD.
    rsd_batch: int
    covered: int
    cells: int


@dataclass
class QueryRun:
    """One query run to the exact answer, as its caller saw it."""

    name: str
    #: From the ``run()`` call to the first partial.
    first_s: float = 0.0
    #: Between successive partials (batches 2..N).
    intervals_s: tuple[float, ...] = ()
    #: To the exact answer, including closing the run.
    total_s: float = 0.0
    #: Parent CPU inside the timed intervals plus every worker's CPU.
    cpu_s: float = 0.0
    #: CPU seconds per shard worker (empty for serial runs).
    worker_cpu_s: tuple[float, ...] = ()
    recovery_s: float = 0.0
    #: The reference kernel's time around this run (see speed.py).
    reference_s: float = 0.0
    #: Engine time until the worst relative stdev reached TARGET_RSD.
    rsd_target_s: float = 0.0
    counts: Counts | None = None
    final: Relation | None = None
    error: str | None = None


def run_query(
    workload: Workload,
    query: Query,
    seed: int,
    exact: Relation,
    recorder=None,
    run_id: str = "",
) -> QueryRun:
    """Run one query online to completion, timing each partial.

    With a ``recorder`` (traced passes) every call into the engine is a
    root span, so the caller-side wall time of each batch is the
    ledger's root.
    """
    out = QueryRun(query.name)
    if recorder is not None:
        recorder.run_id = run_id
    engine = workload.engine(query, seed)
    stream = engine.run(query.plan, NUM_BATCHES)
    times: list[float] = []
    cpu = 0.0
    rsd_batch = covered = cells = 0
    last: PartialResult | None = None
    try:
        with contextlib.closing(stream):
            while True:
                w0, c0 = time.perf_counter(), time.process_time()
                try:
                    if recorder is None:
                        partial = next(stream)
                    else:
                        with recorder.span():
                            partial = next(stream)
                except StopIteration:
                    times.append(time.perf_counter() - w0)
                    cpu += time.process_time() - c0
                    break
                times.append(time.perf_counter() - w0)
                cpu += time.process_time() - c0
                last = partial
                # -- the caller reads the partial (untimed) --
                if not rsd_batch and (
                    partial.is_final
                    or partial.max_relative_stdev() <= TARGET_RSD
                ):
                    rsd_batch = partial.batch_no
                    out.rsd_target_s = sum(times)
                if partial.batch_no == COVERAGE_BATCH:
                    covered, cells = ci_coverage(partial, exact)
    except Exception as exc:  # noqa: BLE001 — counted against error_rate
        out.error = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        if recorder is not None and workload.shards > 1:
            recorder.collect_workers()
    if last is None or not last.is_final:
        out.error = "run ended before its final batch"
        return out
    out.first_s = times[0]
    # The last timed call is the one that closes the run; it belongs to
    # the time-to-exact-answer but is not a gap between two partials.
    out.intervals_s = tuple(times[1:-1])
    out.total_s = sum(times)
    out.worker_cpu_s = tuple(
        getattr(engine, "shard_cpu_seconds", {}).get(s, 0.0)
        for s in range(workload.shards)
    )
    out.cpu_s = cpu + sum(out.worker_cpu_s)
    batches = engine.metrics.batches
    out.recovery_s = sum(b.recovery_seconds for b in batches)
    out.final = last.to_relation()
    out.counts = Counts(
        batches=len(batches),
        recoveries=sum(1 for b in batches if b.recovered),
        recomputed_tuples=sum(b.recomputed_tuples for b in batches),
        nd_groups=sum(b.nd_groups for b in batches),
        peak_state_bytes=max(b.total_state_bytes for b in batches),
        rsd_batch=rsd_batch,
        covered=covered,
        cells=cells,
    )
    return out


def ci_coverage(partial: PartialResult, exact: Relation) -> tuple[int, int]:
    """(covered, cells): uncertain cells whose 95% CI holds the exact value.

    Rows are matched to the exact answer on their deterministic columns;
    rows the exact answer lacks, or matches more than once, are skipped.
    A cell with no finite trials counts as not covered.
    """
    names = partial.schema.names
    key_cols = [
        c
        for c in names
        if not any(isinstance(row[c], UncertainValue) for row in partial.rows)
    ]
    truth: dict[tuple, list[dict]] = {}
    for row in exact.iter_rows():
        truth.setdefault(_key(row, key_cols), []).append(row)
    covered = cells = 0
    for row in partial.rows:
        match = truth.get(_key(row, key_cols))
        if match is None or len(match) != 1:
            continue
        for c in names:
            value = row[c]
            if not isinstance(value, UncertainValue):
                continue
            exact_value = float(match[0][c])
            if not math.isfinite(exact_value):
                continue
            lo, hi = value.confidence_interval(COVERAGE_LEVEL)
            cells += 1
            covered += bool(lo <= exact_value <= hi)
    return covered, cells


def _key(row: dict, cols: list[str]) -> tuple:
    out = []
    for c in cols:
        v = row[c]
        if isinstance(v, (float, np.floating)):
            v = round(float(v), 6)
        elif isinstance(v, np.integer):
            v = int(v)
        elif isinstance(v, np.str_):
            v = str(v)
        out.append(v)
    return tuple(out)

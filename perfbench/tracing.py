"""Per-layer tracing by wrapping each layer's public calls from outside.

Nothing under ``src/`` is instrumented. :func:`install` replaces the
public entry points of each engine module with timing wrappers, at the
name where callers look them up, keeping each attribute's descriptor
kind (``CheckpointManager.restore`` is a staticmethod); ``restore``
puts the originals back. Spans (run id, span id, parent id, name, start,
end) stay in memory and are written once, at the end of the run.

A layer's *self* time is its span minus the spans nested inside it:
sentinel checks and range observation run inside operator ``process``
and are subtracted from it, so no second is counted twice. The root
span of every batch is the caller's ``next()`` on the result stream;
its self time is ``controller.unattributed_s``, so per pass the layer
self times plus that residual equal the traced batch wall time.

Shard workers are forked from the traced parent and inherit the
wrappers; each worker writes its spans and totals to a file when it
exits, and the parent folds them in after the query. Worker layer times
run in parallel with the parent's wait, so they enter the per-layer
totals but not the parent's ledger, whose residual on ``sharded`` is
mostly the wait for workers.

Which end-to-end metric each layer should move, on which workload:

========================  ==============================================
layer (wrapped calls)     should move
========================  ==============================================
bootstrap                 steady_s, batch_p50_ms, time_to_rsd05_s on
(trial_multiplicities)    suite; cpu_s on sharded; little on nd-heavy
operators.<kind>          steady_s, batch_tail_ms on nd-heavy and suite
(SpineOp.process)
smallplan                 steady_s on suite (nested queries)
(SmallPlanUnit.run)
sentinels (.check)        steady_s on suite (nd-heavy resolves nothing)
ranges (observe*)         steady_s on suite
engine                    steady_s on nd-heavy
(SerialExecutor.execute)
kernels (STATS)           steady_s on suite
state (CheckpointManager  recovery, peak_state_mb, peak_rss_mb on
take/restore/best_for)    nd-heavy
recovery (derived)        recovery and total_s on nd-heavy (the drill)
batching, compiler        first_result_p50_ms on suite
(partition,
compile_online)
result (current_rows)     batch_p50_ms on suite
shards (plan, worker CPU) total_s, cpu_s on sharded
controller.unattributed   shrinks as work moves into named layers
========================  ==============================================
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path

import repro.core.blocks
import repro.core.controller
import repro.engine.shards.engine
import repro.engine.shards.worker
from repro.batching.partitioner import Partitioner
from repro.core.compiler import CompiledQuery
from repro.core.operators import base as operator_base
from repro.core.ranges import RangeMonitor
from repro.core.sentinels import MembershipSentinels, SentinelStore
from repro.core.smallplan import SmallPlanUnit
from repro.engine.executor import SerialExecutor
from repro.errors import RangeIntegrityError
from repro.kernels.stats import STATS
from repro.state import CheckpointManager

#: Root layer: the caller's wait for a partial, minus every named layer.
ROOT = "controller"
OPERATOR_KINDS = ("aggregate", "join", "filter", "project", "scan", "sink", "union")
#: Ledger layer -> per-layer time metric.
TIME_METRICS = {
    "bootstrap": "bootstrap.draw_s",
    **{f"operators.{k}": f"operators.{k}.self_s" for k in OPERATOR_KINDS},
    "smallplan": "smallplan.run_s",
    "sentinels": "sentinels.check_s",
    "ranges": "ranges.observe_s",
    "engine": "engine.execute_s",
    "state.checkpoint": "state.checkpoint_s",
    "state.restore": "state.restore_s",
    "batching": "batching.partition_s",
    "compiler": "compiler.compile_s",
    "result": "result.rows_s",
    "shards.plan": "shards.plan_s",
    ROOT: "controller.unattributed_s",
}
KERNEL_CACHES = ("codec", "side_index", "view_table")


class Recorder:
    """Span stack, per-layer self times and counts of one process."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.run_id = ""
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self.reset_totals()

    def reset_totals(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.worker_self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.root_wall_s = 0.0

    # -- spans ---------------------------------------------------------------------

    def push(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError("trace spans closed out of order")
        span_id, name, start, child_s = frame
        duration = end - start
        self.self_s[name] += duration - child_s
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        elif name == ROOT:
            self.root_wall_s += duration
        self.spans.append(
            (self.run_id, span_id, parent[0] if parent else 0, name, start, end)
        )

    def span(self, name: str = ROOT) -> "_Span":
        return _Span(self, name)

    # -- shard workers -------------------------------------------------------------

    def start_worker(self, shard_index: int) -> dict[str, int]:
        """Forget the parent's spans and totals in a freshly forked worker."""
        self.run_id = f"{self.run_id}/shard{shard_index}"
        self.spans = []
        self._stack = []
        self.reset_totals()
        return STATS.snapshot()

    def finish_worker(self, kernel_start: dict[str, int]) -> None:
        end = STATS.snapshot()
        for name, value in end.items():
            self.counts[f"kernel.{name}"] += value - kernel_start[name]
        path = self.out_dir / f"worker-{os.getpid()}.json"
        path.write_text(
            json.dumps(
                {
                    "self_s": self.self_s,
                    "counts": self.counts,
                    "spans": self.spans,
                }
            )
        )

    def collect_workers(self) -> None:
        """Fold in the files of every worker that has exited."""
        for path in sorted(self.out_dir.glob("worker-*.json")):
            data = json.loads(path.read_text())
            path.unlink()
            for name, seconds in data["self_s"].items():
                self.worker_self_s[name] += seconds
            for name, value in data["counts"].items():
                if name == "recovery.restore_point":
                    self.counts[name] = max(self.counts[name], value)
                else:
                    self.counts[name] += value
            self.spans.extend(tuple(s) for s in data["spans"])

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "fields": ["run_id", "span_id", "parent_id", "name",
                               "start", "end"],
                    "spans": self.spans,
                },
                fh,
            )


class _Span:
    __slots__ = ("rec", "name", "frame")

    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.frame = self.rec.push(self.name)

    def __exit__(self, *exc):
        self.rec.pop(self.frame)


# -- wrappers ----------------------------------------------------------------------


def _timed(rec: Recorder, layer: str, calls=None, after=None, on_error=None):
    """Wrapper factory: time ``fn`` as ``layer``.

    ``calls`` names a count raised on every call, failed ones included;
    ``after(counts, args, result)`` and ``on_error(counts, exc)`` count
    what the call did.
    """

    def wrap(fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = rec.push(layer)
            if calls is not None:
                rec.counts[calls] += 1
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(rec.counts, args, out)
                return out
            except BaseException as exc:
                if on_error is not None:
                    on_error(rec.counts, exc)
                raise
            finally:
                rec.pop(frame)

        return traced

    return wrap


class Patches:
    """Attribute replacements that remember how to undo themselves."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def function(self, module, name: str, wrap) -> None:
        original = getattr(module, name)
        self._saved.append((module, name, original))
        setattr(module, name, wrap(original))

    def method(self, cls: type, name: str, wrap) -> None:
        raw = cls.__dict__[name]
        self._saved.append((cls, name, raw))
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, name, type(raw)(wrap(raw.__func__)))
        else:
            setattr(cls, name, wrap(raw))

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _rows(delta) -> int:
    if delta is None:
        return 0
    if isinstance(delta, list):
        return sum(d.total_rows for d in delta)
    return delta.total_rows


def _operator_classes():
    todo, seen = [operator_base.SpineOp], []
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return [c for c in seen if "process" in c.__dict__]


def install(rec: Recorder) -> Patches:
    """Wrap every layer's public calls; ``Patches.restore`` undoes it."""
    p = Patches()

    def drew(c, args, out):
        c["bootstrap.rows_drawn"] += args[0]
        c["bootstrap.weight_bytes"] += out.nbytes

    for module in (repro.core.blocks, repro.engine.shards.worker):
        p.function(module, "trial_multiplicities",
                   _timed(rec, "bootstrap", after=drew))

    for cls in _operator_classes():
        kind = cls.__module__.rsplit(".", 1)[-1]

        def moved(c, args, out, kind=kind):
            c[f"operators.{kind}.rows_in"] += _rows(args[1])
            c[f"operators.{kind}.rows_out"] += out.total_rows

        p.method(cls, "process", _timed(rec, f"operators.{kind}", after=moved))

    def violated(c, exc):
        if isinstance(exc, RangeIntegrityError):
            c["sentinels.violations"] += 1

    for cls in (SentinelStore, MembershipSentinels):
        p.method(cls, "check", _timed(
            rec, "sentinels", calls="sentinels.checks", on_error=violated
        ))

    def cells(c, args, out):
        c["ranges.cells"] += len(out)

    p.method(RangeMonitor, "observe", _timed(rec, "ranges", calls="ranges.cells"))
    p.method(RangeMonitor, "observe_batch", _timed(rec, "ranges", after=cells))

    p.method(SerialExecutor, "execute",
             _timed(rec, "engine", calls="engine.executions"))
    p.method(SmallPlanUnit, "run", _timed(rec, "smallplan", calls="smallplan.runs"))

    def took(c, args, out):
        c["state.checkpoints"] += 1
        c["state.checkpoint_bytes"] += out.nbytes

    def chose(c, args, out):
        point = out.batch_no if out is not None else 0
        c["recovery.restore_point"] = max(c["recovery.restore_point"], point)

    p.method(CheckpointManager, "take", _timed(rec, "state.checkpoint", after=took))
    p.method(CheckpointManager, "restore",
             _timed(rec, "state.restore", calls="state.restores"))
    p.method(CheckpointManager, "best_for", _timed(rec, "state.restore", after=chose))

    p.method(Partitioner, "partition", _timed(rec, "batching"))

    def compiled(c, args, out):
        c["compiler.units"] += len(out.units)

    for module in (repro.core.controller, repro.engine.shards.engine):
        p.function(module, "compile_online", _timed(rec, "compiler", after=compiled))
    p.method(CompiledQuery, "current_rows", _timed(rec, "result"))
    p.function(repro.engine.shards.engine, "analyze_shardability",
               _timed(rec, "shards.plan"))

    def traced_worker(worker_main):
        @functools.wraps(worker_main)
        def run_worker(conn, init):
            kernel_start = rec.start_worker(init.shard.index)
            try:
                worker_main(conn, init)
            finally:
                rec.finish_worker(kernel_start)

        return run_worker

    p.function(repro.engine.shards.engine, "worker_main", traced_worker)
    return p


# -- per-pass layer metrics ----------------------------------------------------------


def pass_layers(rec: Recorder, kernel_delta: dict[str, int], runs, shards: int) -> dict:
    """Per-layer metrics of one traced pass (seconds and exact counts)."""
    times: dict[str, float] = {}
    for layer, metric in TIME_METRICS.items():
        times[metric] = rec.self_s.get(layer, 0.0) + rec.worker_self_s.get(layer, 0.0)
    ledger = sum(rec.self_s.values())
    times["ledger.batch_wall_s"] = rec.root_wall_s
    times["ledger.closure_s"] = ledger - rec.root_wall_s
    times["ledger.worker_layers_s"] = sum(rec.worker_self_s.values(), 0.0)
    times["recovery.seconds"] = sum(r.recovery_s for r in runs)

    per_worker = [sum(r.worker_cpu_s[s] for r in runs) for s in range(shards)]
    worker_sum = sum(per_worker, 0.0)
    times["shards.worker_cpu_max_s"] = max(per_worker, default=0.0)
    times["shards.worker_cpu_sum_s"] = worker_sum
    times["shards.imbalance"] = (
        max(per_worker) / (worker_sum / shards) if worker_sum else 0.0
    )
    times["shards.parent_cpu_s"] = (
        sum(r.cpu_s for r in runs) - worker_sum if shards else 0.0
    )

    c = rec.counts
    counts: dict[str, float] = {
        "bootstrap.rows_drawn": c["bootstrap.rows_drawn"],
        "bootstrap.weight_bytes": c["bootstrap.weight_bytes"],
    }
    for kind in OPERATOR_KINDS:
        counts[f"operators.{kind}.rows_in"] = c[f"operators.{kind}.rows_in"]
        counts[f"operators.{kind}.rows_out"] = c[f"operators.{kind}.rows_out"]
    for name in ("smallplan.runs", "sentinels.checks", "sentinels.violations",
                 "ranges.cells", "engine.executions", "state.checkpoints",
                 "state.checkpoint_bytes", "state.restores", "compiler.units"):
        counts[name] = c[name]
    counts["engine.recomputed_tuples"] = sum(r.counts.recomputed_tuples for r in runs)
    counts["engine.nd_groups"] = sum(r.counts.nd_groups for r in runs)

    kernel = Counter(kernel_delta)
    for name, value in c.items():
        if name.startswith("kernel."):
            kernel[name[len("kernel."):]] += value
    for cache in KERNEL_CACHES:
        hits, misses = kernel[f"{cache}_hits"], kernel[f"{cache}_misses"]
        counts[f"kernels.{cache}_lookups"] = hits + misses
        counts[f"kernels.{cache}_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    # Every worker executes every batch; a serial run executes each once.
    delivered = sum(r.counts.batches for r in runs) * max(shards, 1)
    executed = c["engine.executions"]
    counts["recovery.count"] = sum(r.counts.recoveries for r in runs)
    counts["recovery.replayed_batches"] = executed - delivered
    counts["recovery.restore_point"] = c["recovery.restore_point"]
    counts["recovery.useful_ratio"] = delivered / executed if executed else 0.0
    return {
        "times": times,
        "counts": counts,
        "ledger": {layer: rec.self_s.get(layer, 0.0) for layer in TIME_METRICS},
        "workers": dict(rec.worker_self_s),
    }

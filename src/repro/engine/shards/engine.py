"""The shard scheduler: N worker processes, one deterministic merge sink.

:class:`ShardedQueryEngine` is a drop-in facade over
:class:`~repro.core.controller.OnlineQueryEngine`: same constructor
shape, same ``run``/``run_to_completion`` surface, same
:class:`PartialResult` stream. When the plan admits group-key sharding
(see :mod:`.planner`) it hash-partitions the streamed table across
``OnlineConfig.shards`` worker processes and merges their per-batch
results at the sink; otherwise it falls back to single-process execution
(bit-identity then holds trivially) after recording a
``shard-fallback`` trace warning.

Merge discipline (the PR 1/3 determinism contract, extended):

* **group-by partials merge by key** — shards own disjoint group sets,
  so the merge is a disjoint union, checked against the plan's
  shard-key result columns and ordered canonically;
* **holistic/quantile sinks merge at trial level** — result cells keep
  their full per-trial arrays across the pipe, nothing is collapsed
  before the merge;
* **metrics merge in shard-index order** via
  :meth:`BatchMetrics.merge_from`, so the totals do not depend on which
  shard answers first.

The ``shard`` fault kind is handled here: before dispatching a batch the
scheduler claims ``shard@batch:index`` faults, kills the targeted worker
process, respawns it, and replays its sub-stream deterministically —
single-shard recovery; the surviving shards' state is never touched.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from typing import Iterator

from repro.batching.partitioner import Partitioner
from repro.core.blocks import OnlineConfig
from repro.core.compiler import compile_online
from repro.core.result import PartialResult, _key
from repro.engine.executor import check_executor
from repro.engine.shards.envelope import (
    BatchTask,
    InitTask,
    ShardFailure,
    ShardResult,
    ShardSpec,
    StopTask,
)
from repro.engine.shards.planner import ShardPlan, analyze_shardability
from repro.engine.shards.worker import worker_main
from repro.errors import ReproError
from repro.metrics.stats import RunMetrics
from repro.obs.session import NULL_OBS
from repro.relational.algebra import PlanNode
from repro.relational.catalog import Catalog
from repro.core.values import UncertainValue


def _mp_context():
    """Prefer fork (cheap, Linux); fall back to spawn elsewhere."""
    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


class _WorkerHandle:
    """One worker process + its pipe, initialized and ready for batches."""

    def __init__(self, ctx, init: InitTask):
        parent_conn, child_conn = ctx.Pipe()
        self.conn = parent_conn
        # The InitTask rides along as a process argument: under fork the
        # catalog is inherited copy-on-write (no pickle on either side);
        # under spawn it is pickled once, same as a pipe send would cost.
        self.proc = ctx.Process(
            target=worker_main,
            args=(child_conn, init),
            name=f"iolap-shard-{init.shard.index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()

    def kill(self) -> None:
        """Hard-kill (the shard fault): no goodbye, no state flush."""
        self.proc.kill()
        self.proc.join()
        self.conn.close()

    def stop(self) -> None:
        """Orderly shutdown; escalates to terminate if the pipe is gone."""
        try:
            self.conn.send(StopTask())
        except (BrokenPipeError, OSError):
            pass
        self.proc.join(timeout=10)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join()
        self.conn.close()


class ShardedQueryEngine:
    """Runs queries online across N shared-nothing shard processes."""

    def __init__(
        self,
        catalog: Catalog,
        streamed_table: str,
        config: OnlineConfig | None = None,
        partition_mode: str = "shuffle",
        # Kept because the benchmark harness passes executor="serial".
        executor: str = "serial",
        obs=None,
    ):
        check_executor(executor)
        self.catalog = catalog
        self.streamed_table = streamed_table
        self.config = config if config is not None else OnlineConfig()
        self.partition_mode = partition_mode
        self.obs = obs if obs is not None else NULL_OBS
        self.metrics = RunMetrics()
        self.profiler = None
        #: The ShardPlan of the most recent run (None before any run).
        self.shard_plan: ShardPlan | None = None
        #: Worker respawns performed by the shard fault path (per run).
        self.shard_respawns = 0
        #: Cumulative CPU seconds per worker process (shard index ->
        #: latest ``process_time`` reported). The scaling benchmark's
        #: critical path is ``parent_cpu + max(shard_cpu_seconds)``.
        self.shard_cpu_seconds: dict[int, float] = {}

    @property
    def shards(self) -> int:
        return max(int(self.config.shards), 1)

    def run(
        self,
        plan: PlanNode,
        num_batches: int,
        batch_rows: int | None = None,
    ) -> Iterator[PartialResult]:
        """Execute ``plan`` online; yields one merged result per batch."""
        shard_plan = analyze_shardability(plan, self.streamed_table)
        self.shard_plan = shard_plan
        tracer = self.obs.tracer
        if self.shards <= 1 or not shard_plan.shardable:
            if self.shards > 1:
                reason = shard_plan.reason
                tracer.warning(
                    "shard-fallback",
                    message=f"plan is not shardable ({reason}); running "
                    "single-process",
                    reason=reason,
                )
            yield from self._run_fallback(plan, num_batches, batch_rows)
            return
        yield from self._run_sharded(plan, shard_plan, num_batches, batch_rows)

    def run_to_completion(
        self,
        plan: PlanNode,
        num_batches: int,
        batch_rows: int | None = None,
    ) -> PartialResult:
        """Convenience: run all batches, return the final (exact) result."""
        last: PartialResult | None = None
        for last in self.run(plan, num_batches, batch_rows=batch_rows):
            pass
        if last is None:
            raise ReproError("streamed table is empty")
        return last

    # -- single-process fallback ---------------------------------------------------

    def _run_fallback(
        self, plan: PlanNode, num_batches: int, batch_rows: int | None
    ) -> Iterator[PartialResult]:
        from repro.core.controller import OnlineQueryEngine

        inner = OnlineQueryEngine(
            self.catalog,
            self.streamed_table,
            config=self.config,
            partition_mode=self.partition_mode,
            obs=self.obs,
        )
        self.metrics = inner.metrics
        for partial in inner.run(plan, num_batches, batch_rows=batch_rows):
            self.metrics = inner.metrics
            self.profiler = inner.profiler
            yield partial

    # -- the sharded path ----------------------------------------------------------

    def _run_sharded(
        self,
        plan: PlanNode,
        shard_plan: ShardPlan,
        num_batches: int,
        batch_rows: int | None,
    ) -> Iterator[PartialResult]:
        streamed = self.catalog.get(self.streamed_table)
        if batch_rows is not None:
            from repro.batching.partitioner import num_batches_for

            num_batches = num_batches_for(len(streamed), batch_rows)
        # The parent needs only the global batch *sizes* (for
        # fraction_processed); workers re-derive the identical batch
        # relations from the same seeded partitioner, so no batch is ever
        # materialized on this side of the pipe.
        partitioner = Partitioner(
            mode=self.partition_mode, seed=self.config.seed
        )
        batch_sizes = [
            len(ix)
            for ix in partitioner.partition_indices(len(streamed), num_batches)
        ]
        compiled = compile_online(plan, self.catalog, self.streamed_table)
        self.metrics = RunMetrics()
        self.shard_respawns = 0
        self.shard_cpu_seconds = {}

        injector = None
        if self.config.faults:
            from repro.faults import FaultInjector, as_plan

            injector = FaultInjector(as_plan(self.config.faults))

        obs = self.obs
        tracer = obs.tracer
        mp_ctx = _mp_context()
        tables = {name: self.catalog.get(name) for name in self.catalog}
        inits = [
            InitTask(
                tables=tables,
                streamed_table=self.streamed_table,
                plan=plan,
                config=self.config,
                num_batches=len(batch_sizes),
                partition_mode=self.partition_mode,
                shard=ShardSpec(
                    index=s, count=self.shards, key=shard_plan.shard_key
                ),
                collect_counters=obs.enabled,
            )
            for s in range(self.shards)
        ]
        run_span = tracer.span(
            "run", cat="run",
            streamed_table=self.streamed_table,
            num_batches=len(batch_sizes),
            total_rows=len(streamed),
            executor=f"sharded({self.shards})",
            shard_key=",".join(shard_plan.shard_key),
        ) if tracer.enabled else None
        if run_span:
            run_span.__enter__()
        workers = [_WorkerHandle(mp_ctx, init) for init in inits]
        seen_rows = 0
        try:
            for i in range(1, len(batch_sizes) + 1):
                if injector is not None:
                    self._fire_shard_faults(workers, mp_ctx, inits, injector, i)
                bm = self.metrics.start_batch(i)
                started = time.perf_counter()
                for handle in workers:
                    handle.conn.send(BatchTask(i))
                results = []
                for s, handle in enumerate(workers):
                    reply = handle.conn.recv()
                    if isinstance(reply, ShardFailure):
                        raise ReproError(
                            f"shard {s} failed at batch {reply.batch_no} "
                            f"({reply.kind}: {reply.message})\n"
                            f"{reply.traceback}"
                        )
                    results.append(reply)
                rows = _merge_rows(results, shard_plan.result_key_cols)
                for r in results:
                    bm.merge_from(r.metrics)
                    self.shard_cpu_seconds[r.shard_index] = r.cpu_seconds
                bm.wall_seconds = time.perf_counter() - started
                seen_rows += batch_sizes[i - 1]
                if obs.enabled:
                    self._sample_shard_metrics(results, i)
                is_final = i == len(batch_sizes)
                yield PartialResult(
                    batch_no=i,
                    num_batches=len(batch_sizes),
                    fraction_processed=seen_rows / max(len(streamed), 1),
                    schema=compiled.result_schema,
                    rows=rows,
                    metrics=bm,
                    is_final=is_final,
                )
        finally:
            for handle in workers:
                handle.stop()
            if run_span:
                run_span.__exit__(None, None, None)
            obs.flush()

    def _fire_shard_faults(
        self, workers, mp_ctx, inits, injector, batch_no: int
    ) -> None:
        """Kill+respawn any worker a ``shard@batch[:index]`` fault targets.

        Single-shard recovery: the respawned worker replays its own
        sub-stream (deterministically identical to the lost state) while
        every other shard's state is left untouched.
        """
        tracer = self.obs.tracer
        for s in range(len(workers)):
            if not injector.claim("shard", batch_no, label=str(s)):
                continue
            tracer.warning(
                "shard-killed", batch=batch_no, shard=s,
                message=f"injected shard fault: killing worker {s} "
                f"before batch {batch_no}",
            )
            workers[s].kill()
            handle = _WorkerHandle(mp_ctx, inits[s])
            # Deterministic replay of the shard's processed prefix; the
            # result envelopes are discarded (replay=True).
            for b in range(1, batch_no):
                handle.conn.send(BatchTask(b, replay=True))
                reply = handle.conn.recv()
                if isinstance(reply, ShardFailure):
                    raise ReproError(
                        f"shard {s} failed replaying batch {b} after "
                        f"respawn ({reply.kind}: {reply.message})\n"
                        f"{reply.traceback}"
                    )
            workers[s] = handle
            self.shard_respawns += 1
            self.obs.metrics.counter("shard.respawns").inc()

    def _sample_shard_metrics(self, results: list[ShardResult], batch_no: int) -> None:
        """Per-shard span tracks + counters merged into the run trace."""
        obs = self.obs
        tracer = obs.tracer
        reg = obs.metrics
        for r in results:
            if tracer.enabled:
                with tracer.span(
                    "shard-batch", cat="shard", batch=batch_no,
                    shard=r.shard_index,
                ) as span:
                    span.set(
                        rows=len(r.rows),
                        new_tuples=r.metrics.new_tuples,
                        unit_seconds=r.metrics.unit_seconds,
                        recovered=r.metrics.recovered,
                        cpu_seconds=r.cpu_seconds,
                    )
            for name, value in r.counters.items():
                reg.gauge(f"shard.{r.shard_index}.{name}").set(value)
            reg.gauge(f"shard.{r.shard_index}.cpu_seconds").set(r.cpu_seconds)
        obs.emit_metrics(batch=batch_no)
        obs.flush()


def _merge_rows(
    results: list[ShardResult], key_cols: tuple[str, ...]
) -> list[dict[str, object]]:
    """Disjoint union of per-shard result rows in canonical order.

    Group-key sharding guarantees shards publish disjoint group sets;
    ``key_cols`` (the result columns with shard-key provenance) back an
    explicit check of that invariant. Rows are ordered canonically (the
    ``sorted_plain_rows`` key over every column) so the merged stream is
    independent of shard count and arrival order.
    """
    rows: list[dict[str, object]] = []
    if key_cols:
        seen: dict[tuple, int] = {}
        for r in results:
            for row in r.rows:
                key = tuple(_point(row[c]) for c in key_cols)
                owner = seen.setdefault(key, r.shard_index)
                if owner != r.shard_index:
                    raise ReproError(
                        f"shard merge invariant violated: group {key!r} "
                        f"published by shards {owner} and {r.shard_index}"
                    )
    for r in results:
        rows.extend(r.rows)
    rows.sort(
        key=lambda row: tuple(_key(_point(v)) for v in row.values())
    )
    return rows


def _point(value: object) -> object:
    return value.value if isinstance(value, UncertainValue) else value

"""The benchmark's workloads, built from the public ``repro`` API only.

Every workload streams 20 shuffled mini-batches with 60 bootstrap
trials and the vectorized kernels; the seed drives both the data
generators and ``OnlineConfig.seed``. Why each workload exists:

* ``suite`` — the 22 workload queries at scale 2: the yardstick. Short
  queries expose per-query fixed costs (compile, partition, first
  result); the bootstrap draw and operators dominate its steady state.
* ``nd-heavy`` — an uncertain semijoin feeding a grouped MEDIAN, run on
  four independent TPC-H datasets at scale 1 (80k fact rows per pass),
  with slack 1000 so that no variation range ever excludes the
  threshold: every fact row joins against an uncertain membership to
  the last batch and the MEDIAN re-reads its row store every batch. Each run carries a recovery drill: the
  checkpoint taken after batch 8 is corrupted and a range-integrity
  failure is injected at batch 15, so recovery falls back to the
  pristine baseline and replays 14 batches — the deep replay that
  *natural* failures cause on this query in about a third of seeds at
  scale 8 with the default slack 2. Natural failures themselves cannot
  serve: their depth varies so much from seed to seed (0 to 4.5s of a
  6-12s run at scale 8; one seed in five still at slack 6 or 10) that no
  bound could hold, while the drill costs the same on every seed. Four
  datasets rather than one give every pass four samples of each
  per-query cost, as the other workloads have.
* ``sharded`` — the 9 shardable queries at scale 4 on 2 worker
  processes: the only workload that runs ``repro.engine.shards``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import OnlineConfig, OnlineQueryEngine
from repro.engine.shards import ShardedQueryEngine, analyze_shardability
from repro.relational import Catalog, col, scan
from repro.relational.aggregates import count, median, sum_
from repro.relational.algebra import PlanNode
from repro.workloads import (
    CONVIVA_QUERIES,
    TPCH_QUERIES,
    generate_conviva,
    generate_tpch,
)
from repro.workloads.tpch import LINEORDER_SCHEMA

NUM_BATCHES = 20
NUM_TRIALS = 60
SHARDS = 2
#: The workload queries whose plans admit group-key sharding.
SHARDABLE = ("Q1", "Q3", "Q18", "C2", "C3", "C5", "C9", "C11", "C12")


@dataclass(frozen=True)
class Query:
    name: str
    plan: PlanNode
    catalog: Catalog
    streamed_table: str


@dataclass(frozen=True)
class Workload:
    name: str
    shards: int
    build: Callable[[int], list[Query]]
    #: Further ``OnlineConfig`` fields of this workload.
    options: dict = field(default_factory=dict)

    def config(self, seed: int) -> OnlineConfig:
        return OnlineConfig(
            num_trials=NUM_TRIALS,
            seed=seed,
            vectorize=True,
            shards=self.shards,
            **self.options,
        )

    def engine(self, query: Query, seed: int):
        """A fresh engine for one query run (serial or sharded)."""
        cls = ShardedQueryEngine if self.shards > 1 else OnlineQueryEngine
        return cls(
            query.catalog,
            query.streamed_table,
            self.config(seed),
            partition_mode="shuffle",
            executor="serial",
        )


def _workload_queries(names, scale: float, seed: int) -> list[Query]:
    tpch = generate_tpch(scale=scale, seed=seed).catalog()
    conviva = generate_conviva(scale=scale, seed=seed).catalog()
    specs = {**TPCH_QUERIES, **CONVIVA_QUERIES}
    return [
        Query(
            name,
            specs[name].plan,
            conviva if name in CONVIVA_QUERIES else tpch,
            specs[name].streamed_table,
        )
        for name in names
    ]


def build_suite(seed: int) -> list[Query]:
    return _workload_queries([*TPCH_QUERIES, *CONVIVA_QUERIES], 2.0, seed)


def build_sharded(seed: int) -> list[Query]:
    queries = _workload_queries(SHARDABLE, 4.0, seed)
    for q in queries:
        shard_plan = analyze_shardability(q.plan, q.streamed_table)
        if not shard_plan.shardable:
            raise ValueError(f"{q.name} no longer shards: {shard_plan.reason}")
    return queries


def nd_heavy_plan(catalog: Catalog) -> PlanNode:
    """Customers above the median revenue, semijoined to a grouped MEDIAN.

    Every fact row joins against a membership that stays uncertain while
    its customer's revenue estimate moves, and the MEDIAN re-evaluates
    its row store each batch. The threshold sits halfway between the two distinct per-customer revenues nearest
    the median: a threshold equal to one customer's revenue would make
    that customer's membership depend on floating-point summation order.
    """
    lineorder = catalog.get("lineorder")
    price = lineorder.column("extendedprice")
    disc = lineorder.column("discount")
    _, inverse = np.unique(lineorder.column("custkey"), return_inverse=True)
    revenue = np.unique(np.bincount(inverse, weights=price * (1.0 - disc)))
    mid = len(revenue) // 2
    threshold = float((revenue[mid - 1] + revenue[mid]) / 2.0)
    member = (
        scan("lineorder", LINEORDER_SCHEMA)
        .aggregate(
            ["custkey"],
            [sum_(col("extendedprice") * (1 - col("discount")), "revenue")],
        )
        .select(col("revenue") > threshold)
        .project([("k2", col("custkey"))])
    )
    return (
        scan("lineorder", LINEORDER_SCHEMA)
        .join(member, keys=[("custkey", "k2")])
        .aggregate(["custkey"], [median("extendedprice", "med_price"), count("n")])
    )


ND_DATASETS = 4


def build_nd_heavy(seed: int) -> list[Query]:
    queries = []
    for i in range(ND_DATASETS):
        catalog = generate_tpch(scale=1.0, seed=ND_DATASETS * seed + i).catalog()
        queries.append(Query(f"ND{i}", nd_heavy_plan(catalog), catalog, "lineorder"))
    return queries


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite", 0, build_suite),
        Workload(
            "nd-heavy",
            0,
            build_nd_heavy,
            {"slack": 1000.0, "faults": "checkpoint@8,sentinel@15"},
        ),
        Workload("sharded", SHARDS, build_sharded),
    )
}

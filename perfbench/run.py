"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite --seed 42 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead. Metric names and units are
those of ``BENCHMARK.json``. Each metric is printed as ``metric <name>
<value> <unit>``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

A pass runs every query of the workload once, to its exact answer. A
run sets the workload up several times (the median is ``setup_s``),
then makes passes while another one still fits ``--seconds`` (at least
three). Between query runs (and setups) it times a fixed reference
kernel, and every time metric is reported in reference seconds: the
measured time scaled by the host's speed around that run (see
``speed.py``; raw medians are printed as ``context raw``). Each query's
times, and each of its batches, take their median over passes; the
metrics are sums, medians and tails over those. Every final answer is
checked against the exact batch evaluator; counts that must repeat
exactly are compared across passes and against earlier runs of the same
code and seed (kept under ``perfbench/out``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUPS = 9
MIN_PASSES = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return Run(WORKLOADS[args.workload], args.seed, args.seconds, declared).execute(
        traced=bool(args.trace)
    )


class Run:
    def __init__(self, workload, seed: int, seconds: float, declared: dict):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.declared = declared
        self.problems: list[str] = []
        #: Reference kernel times, taken between query runs in time order.
        self.references: list[float] = []
        #: Every query run, in time order.
        self.timeline: list = []

    # -- top level -----------------------------------------------------------------

    def execute(self, traced: bool) -> int:
        from repro.baselines import run_batch

        from perfbench.speed import reference_s, scale

        self.context()
        setup_s, raw_setup_s = [], []
        before = reference_s()
        for _ in range(SETUPS):
            started = time.perf_counter()
            queries = self.workload.build(self.seed)
            raw_setup_s.append(time.perf_counter() - started)
            after = reference_s()
            setup_s.append(scale(raw_setup_s[-1], (before + after) / 2))
            before = after
        print(f"context raw setup_s={statistics.median(raw_setup_s)!r}")
        self.queries = queries
        self.exact = {q.name: run_batch(q.plan, q.catalog).relation for q in queries}

        if traced:
            metrics, layer_counts, passes = self.traced_passes()
            self.check_repeat(layer_counts, "layers")
        else:
            passes = self.untraced_passes()
        attempted, failed = self.check(passes)
        if failed == attempted:
            print("error: every query run failed", file=sys.stderr)
            return 1
        if not traced:
            metrics = self.end_to_end(passes, statistics.median(setup_s))
        declared = self.declared["per_layer" if traced else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if set(metrics) != set(units):
            raise SystemExit(
                f"metric set differs from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(units))}"
            )
        for name in units:
            print(f"metric {name} {metrics[name]!r} {units[name]}")
        print(f"context error_rate {failed / attempted!r} "
              f"({failed} of {attempted} query runs)")
        print(json.dumps({
            "correct": not self.problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": units[name]}
                for name in units
            },
        }))
        return 0

    def context(self) -> None:
        """Machine context, printed with every run (not a metric)."""
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        calibration = time.perf_counter() - started
        load = ",".join(f"{x:.2f}" for x in os.getloadavg())
        print(f"context workload={self.workload.name} seed={self.seed} "
              f"nproc={os.cpu_count()} loadavg={load} "
              f"calibration_loop_s={calibration:.4f}")

    # -- passes --------------------------------------------------------------------

    def one_pass(self, number: int, recorder=None) -> list:
        from perfbench.loop import run_query
        from perfbench.speed import reference_s

        if not self.references:
            self.references.append(reference_s())
        runs = []
        for q in self.queries:
            runs.append(run_query(self.workload, q, self.seed, self.exact[q.name],
                                  recorder=recorder, run_id=f"pass{number}/{q.name}"))
            self.references.append(reference_s())
        self.timeline.extend(runs)
        return runs

    def set_references(self) -> None:
        """Give each query run the host speed around it.

        Run ``i`` in time order lies between reference samples ``i`` and
        ``i + 1``; it takes the median of those two and their outer
        neighbours, so that one sample a burst of contention hit does
        not rescale a run on its own.
        """
        for i, run in enumerate(self.timeline):
            run.reference_s = statistics.median(self.references[max(0, i - 1):i + 3])

    def pass_numbers(self):
        """Pass numbers, while the longest pass so far still fits ``--seconds``."""
        started = time.perf_counter()
        longest = 0.0
        n = 0
        while n < MIN_PASSES or (
            time.perf_counter() - started + longest <= self.seconds
        ):
            t0 = time.perf_counter()
            yield n
            longest = max(longest, time.perf_counter() - t0)
            n += 1

    def untraced_passes(self) -> list[list]:
        passes = [self.one_pass(n) for n in self.pass_numbers()]
        self.set_references()
        self.peak_rss_mb = _peak_rss_mb()
        return passes

    def traced_passes(self) -> tuple[dict, dict, list[list]]:
        from repro.kernels.stats import STATS

        from perfbench.tracing import Recorder, install, pass_layers

        rec = Recorder(OUT_DIR)
        plain, traced, layers = [], [], []
        for n in self.pass_numbers():
            if n % 2 == 0:
                plain.append(self.one_pass(n))
                continue
            rec.reset_totals()
            before = STATS.snapshot()
            patches = install(rec)
            try:
                runs = self.one_pass(n, recorder=rec)
            finally:
                patches.restore()
            after = STATS.snapshot()
            traced.append(runs)
            layers.append(pass_layers(
                rec, {k: after[k] - before[k] for k in after}, runs,
                self.workload.shards,
            ))
            closure = layers[-1]["times"]["ledger.closure_s"]
            wall = layers[-1]["times"]["ledger.batch_wall_s"]
            if abs(closure) > 1e-6 * wall + 1e-9:
                self.problems.append(
                    f"ledger does not close: layers - wall = {closure!r}s"
                )
        self.set_references()
        rec.write_spans(
            OUT_DIR / f"trace-{self.workload.name}-s{self.seed}.json.gz"
        )
        metrics = {
            name: statistics.median(l["times"][name] for l in layers)
            for name in layers[0]["times"]
        }
        del metrics["ledger.closure_s"]
        _print_ledger(layers[-1])
        counts = layers[0]["counts"]
        for other in layers[1:]:
            diff = [k for k in counts if counts[k] != other["counts"][k]]
            if diff:
                self.problems.append(f"per-layer counts differ across passes: {diff}")
        metrics.update(counts)
        untraced_s = statistics.median(_pass_total(p) for p in plain)
        traced_s = statistics.median(_pass_total(p) for p in traced)
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
        return metrics, counts, plain + traced

    # -- metrics -------------------------------------------------------------------

    def end_to_end(self, passes: list[list], setup_s: float) -> dict:
        from perfbench.speed import scaled_run

        ok = [[r for r in runs if r.error is None] for runs in passes]
        by_query: dict[str, list] = {}
        for runs in ok:
            for r in runs:
                by_query.setdefault(r.name, []).append(r)
        scaled = {
            name: [scaled_run(r, r.reference_s) for r in rs]
            for name, rs in by_query.items()
        }
        metrics = _timings(scaled)
        n = metrics.pop("samples")
        q = _tail_percentile(n)
        covered = sum(r.counts.covered for r in ok[0])
        cells = sum(r.counts.cells for r in ok[0])
        references = [r.reference_s for rs in by_query.values() for r in rs]
        print(f"context passes={len(passes)} batch_tail=p{q} "
              f"samples={n} beyond={n - math.ceil(q / 100 * n)}")
        print(f"context ci_coverage_cells={cells} covered={covered}")
        print(f"context recovery_s={metrics.pop('recovery_s')!r}")
        print(f"context reference_s median={statistics.median(references)!r} "
              f"min={min(references)!r} max={max(references)!r}")
        raw = _timings(by_query)
        del raw["samples"]
        print("context raw " + " ".join(f"{k}={v!r}" for k, v in raw.items()))
        metrics.update({
            "setup_s": setup_s,
            "ci_coverage_95": covered / cells if cells else 0.0,
            # Summed over queries: one query's peak would follow whichever
            # query the seed happens to make largest.
            "peak_state_mb": sum(r.counts.peak_state_bytes for r in ok[0]) / 2**20,
            "peak_rss_mb": self.peak_rss_mb,
        })
        return metrics

    # -- correctness -----------------------------------------------------------------

    def check(self, passes: list[list]) -> tuple[int, int]:
        """Compare every final answer; returns (attempted, failed)."""
        references = {q.name: [self.exact[q.name]] for q in self.queries}
        if self.workload.shards > 1:
            for q, serial in zip(self.queries, self.serial_finals()):
                references[q.name].append(serial)
        attempted = failed = 0
        for runs in passes:
            for r in runs:
                attempted += 1
                if r.error is not None:
                    failed += 1
                    self.problems.append(f"{r.name} raised {r.error}")
                    continue
                refs = references[r.name]
                if not r.final.bag_equal(refs[0], 4):
                    failed += 1
                    self.problems.append(f"{r.name}: final != exact batch answer")
                elif len(refs) > 1 and not r.final.bag_equal(refs[1], 9):
                    failed += 1
                    self.problems.append(f"{r.name}: sharded final != serial final")
        by_query: dict[str, set] = {}
        for runs in passes:
            for r in runs:
                if r.error is None:
                    by_query.setdefault(r.name, set()).add(r.counts)
        for name, seen in by_query.items():
            if len(seen) > 1:
                self.problems.append(f"{name}: counts differ across passes {seen}")
        # Traced and untraced passes share this record: tracing must not
        # change what the engine computes.
        self.check_repeat(
            {name: sorted(seen)[0] for name, seen in by_query.items()}, "queries"
        )
        for problem in self.problems:
            print(f"problem {problem}", file=sys.stderr)
        return attempted, failed

    def serial_finals(self) -> list:
        from repro.core import OnlineQueryEngine

        from perfbench.workloads import NUM_BATCHES

        out = []
        for q in self.queries:
            config = dataclasses.replace(self.workload.config(self.seed), shards=0)
            engine = OnlineQueryEngine(q.catalog, q.streamed_table, config)
            out.append(
                engine.run_to_completion(q.plan, NUM_BATCHES).to_relation()
            )
        return out

    def check_repeat(self, counts: dict, tag: str) -> None:
        """Counts must match an earlier run of the same code and seed."""
        path = OUT_DIR / (
            f"counts-{self.workload.name}-s{self.seed}-{tag}-{_code_hash()}.json"
        )
        current = json.loads(json.dumps(counts))
        if path.exists():
            earlier = json.loads(path.read_text())
            diff = sorted(k for k in set(earlier) | set(current)
                          if earlier.get(k) != current.get(k))
            if diff:
                self.problems.append(
                    f"counts differ from an earlier run of this code: {diff}"
                )
        else:
            path.write_text(json.dumps(current, sort_keys=True))


def _print_ledger(layers: dict) -> None:
    """The last traced pass's batch wall time, layer by layer."""
    wall = layers["times"]["ledger.batch_wall_s"]
    for layer, seconds in layers["ledger"].items():
        share = seconds / wall if wall else 0.0
        print(f"ledger {layer:<20} {seconds:10.4f} s {share:7.1%}")
    print(f"ledger {'= batch wall':<20} {wall:10.4f} s")
    for layer, seconds in sorted(layers["workers"].items()):
        print(f"ledger worker {layer:<13} {seconds:10.4f} s (all shards)")


def _pass_total(runs) -> float:
    """A pass's time to every exact answer, in reference seconds."""
    from perfbench.speed import scale

    return sum(scale(r.total_s, r.reference_s) for r in runs)


def _timings(by_query: dict) -> dict:
    """Time metrics of each query's runs: medians over passes.

    Per-query medians shed a pass that a burst of contention slowed,
    where a median of pass totals would keep part of it. Batch gaps
    take their median per batch (every pass of a query has the same
    batches, as its counts repeat exactly); ``batch_p50_ms`` and the
    tail are then taken over those per-batch medians.
    """
    def summed(per_run) -> float:
        return sum(
            statistics.median(per_run(r) for r in rs) for rs in by_query.values()
        )

    first = [statistics.median(r.first_s for r in rs) for rs in by_query.values()]
    gaps = sorted(
        statistics.median(g)
        for rs in by_query.values()
        for g in zip(*(r.intervals_s for r in rs))
    )
    n = len(gaps)
    return {
        "total_s": summed(lambda r: r.total_s),
        "steady_s": summed(lambda r: r.total_s - r.recovery_s),
        "cpu_s": summed(lambda r: r.cpu_s),
        "first_result_p50_ms": 1e3 * statistics.median(first),
        "batch_p50_ms": 1e3 * statistics.median(gaps),
        "batch_tail_ms": 1e3 * gaps[math.ceil(_tail_percentile(n) / 100 * n) - 1],
        "time_to_rsd05_s": summed(lambda r: r.rsd_target_s),
        "recovery_s": summed(lambda r: r.recovery_s),
        "samples": n,
    }


def _tail_percentile(samples: int) -> int:
    """Highest integer percentile with at least 10 samples beyond it."""
    q = 99
    while q > 50 and samples - math.ceil(q / 100 * samples) < 10:
        q -= 1
    return q


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest shard worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def _code_hash() -> str:
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


if __name__ == "__main__":
    sys.exit(main())

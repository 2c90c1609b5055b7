"""The repository benchmark: closed-loop online runs of three workloads.

``python3 perfbench/run.py --workload <suite|nd-heavy|sharded> --seed N
--seconds S --trace 0|1`` prints every metric by name and unit, and as
its last line one JSON object (see ``run.py``). ``--trace 0`` reports
end-to-end metrics from untraced runs; ``--trace 1`` wraps the public
calls of each engine layer from this package (``tracing.py``) and
reports per-layer numbers.
"""

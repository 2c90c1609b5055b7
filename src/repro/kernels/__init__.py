"""Vectorized hot-path kernels for the online engine.

The modules in this package replace per-row Python loops on the engine's
hot paths with batched NumPy kernels:

* :mod:`repro.kernels.codec` — key factorization: group-by/join key
  columns become dense integer codes, memoized per (immutable) relation;
* :mod:`repro.kernels.views` — code-indexed lookup tables over published
  :class:`~repro.core.blocks.BlockOutput` group views;
* :mod:`repro.kernels.joins` — cross-batch cached hash-join index and a
  vectorized equi-join identical to the reference row-wise join;
* :mod:`repro.kernels.resolve` — batched lineage resolution and
  array-wide interval arithmetic for predicate classification;
* :mod:`repro.kernels.holistic` — sort-based grouped reductions for the
  per-trial holistic aggregate path;
* :mod:`repro.kernels.stats` — cache hit/miss counters surfaced through
  the observability registry.

The kernels are the engine's only path; there is no row-wise mode to
switch to. Where a kernel cannot take an input faithfully, the input
selects a fallback: expressions outside the kernel dialect (e.g. ``%``)
take ``classify.evaluate_side_per_row``, NaN bounds and ``==``/``!=``
take ``SentinelStore.record_sequential``, unhashable or NaN-bearing key
columns take the codec's dict sweep, and keyless joins take
``join_relations``. ``tests/test_kernels.py`` and the property suite pin
each kernel bit for bit against those standalone references, and the
whole engine is checked against Theorem 1 (every batch equals the query
on the rows seen so far) on every workload query. Submodules are imported directly (not re-exported here)
to keep import edges acyclic: ``codec`` depends only on NumPy, so even
``repro.relational`` may use it.
"""

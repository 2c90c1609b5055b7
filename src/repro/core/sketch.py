"""Sketch states for online AGGREGATE operators (Section 4.2).

Decomposable aggregates maintain, per group, the weighted feature sums
``S_k = Σ w·f_k(x)`` and the weight sum ``W = Σ w`` — once for the actual
multiplicities and once per bootstrap trial. Folding a mini-batch into the
sketch is the delta update; finalizing is a pure function of the sums, so
partial results can be published every batch at sketch cost instead of
data cost.

:class:`AggBundle` is one such table of sums. The persistent operator
state (:class:`GroupedSketch`) folds batches in place with capacity
doubling; transient bundles are also built from the volatile
(non-deterministic) input rows each batch and merged at finalize time
without touching the persistent sums.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.relational.aggregates import AggSpec
from repro.relational.groupby import group_ids
from repro.relational.relation import Relation

GroupKey = tuple


class AggBundle:
    """Per-group (actual + per-trial) weighted feature sums."""

    def __init__(self, specs: Sequence[AggSpec], num_trials: int):
        self.specs = list(specs)
        self.num_trials = num_trials
        self.keys: list[GroupKey] = []
        self.key_to_gid: dict[GroupKey, int] = {}
        g = 0
        self.weight = np.zeros(g, dtype=np.float64)
        self.trial_weight = np.zeros((g, num_trials), dtype=np.float64)
        self.sums = [
            np.zeros((g, s.func.num_features), dtype=np.float64) for s in self.specs
        ]
        self.trial_sums = [
            np.zeros((g, num_trials, s.func.num_features), dtype=np.float64)
            for s in self.specs
        ]

    def __len__(self) -> int:
        return len(self.keys)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_relation(
        cls,
        rel: Relation,
        group_by: Sequence[str],
        specs: Sequence[AggSpec],
        num_trials: int,
    ) -> "AggBundle":
        """One-shot bundle from a relation (used for volatile inputs)."""
        bundle = cls(specs, num_trials)
        bundle.fold(rel, group_by)
        return bundle

    def _ensure_groups(self, keys: Sequence[GroupKey]) -> np.ndarray:
        """Map keys to gids, allocating rows for unseen groups."""
        gids = np.empty(len(keys), dtype=np.intp)
        fresh = 0
        for i, key in enumerate(keys):
            gid = self.key_to_gid.get(key)
            if gid is None:
                gid = len(self.keys)
                self.key_to_gid[key] = gid
                self.keys.append(key)
                fresh += 1
            gids[i] = gid
        if fresh:
            self._grow(len(self.keys))
        return gids

    def _grow(self, size: int) -> None:
        def grown(arr: np.ndarray) -> np.ndarray:
            if arr.shape[0] >= size:
                return arr
            extra = np.zeros((size - arr.shape[0],) + arr.shape[1:], dtype=np.float64)
            return np.concatenate([arr, extra], axis=0)

        self.weight = grown(self.weight)
        self.trial_weight = grown(self.trial_weight)
        self.sums = [grown(a) for a in self.sums]
        self.trial_sums = [grown(a) for a in self.trial_sums]

    # -- delta update ---------------------------------------------------------------

    def fold(self, rel: Relation, group_by: Sequence[str]) -> None:
        """Fold a mini-batch of rows into the sums (the delta update)."""
        if len(rel) == 0:
            return
        local_keys, local_gids = group_ids(rel, list(group_by))
        gids = self._ensure_groups(local_keys)[local_gids]
        # Deterministic-mult batches never materialize the (n, T) copy:
        # the broadcast view is read-only, and every use below either
        # reduces over it or fancy-indexes (which copies).
        trial_w = (
            rel.trial_mults
            if rel.trial_mults is not None
            else np.broadcast_to(rel.mult[:, None], (len(rel), self.num_trials))
        )
        np.add.at(self.weight, gids, rel.mult)
        np.add.at(self.trial_weight, gids, trial_w)
        for s, spec in enumerate(self.specs):
            k = spec.func.num_features
            if k == 0:
                continue
            feats = spec.func.features(spec.arg_values(rel))  # (k, n)
            np.add.at(self.sums[s], gids, (feats * rel.mult).T)
            np.add.at(
                self.trial_sums[s], gids, feats.T[:, None, :] * trial_w[:, :, None]
            )

    def fold_values_coded(
        self,
        keys: Sequence[GroupKey],
        gids: np.ndarray,
        spec_index: int,
        values: np.ndarray,
        trial_values: np.ndarray,
        mult: np.ndarray,
        trial_mults: np.ndarray,
    ) -> None:
        """Fold rows whose aggregate argument is itself uncertain.

        ``values`` holds the per-row point arguments, ``trial_values`` the
        (n, T) per-trial arguments. Rows arrive pre-factorized: ``keys``
        lists the distinct group keys in first-appearance order and
        ``gids`` codes each row into that list (the key codec's output).
        Only single-feature functions support uncertain arguments
        (SUM/AVG-style; features = identity), which is checked at compile
        time.
        """
        base = self._ensure_groups(list(keys))
        g = base[gids] if len(base) else np.zeros(0, dtype=np.intp)
        np.add.at(self.weight, g, mult)
        np.add.at(self.trial_weight, g, trial_mults)
        np.add.at(self.sums[spec_index], g, (values * mult)[:, None])
        np.add.at(
            self.trial_sums[spec_index],
            g,
            (trial_values * trial_mults)[:, :, None],
        )

    # -- finalize ----------------------------------------------------------------------

    def merged_with(self, other: "AggBundle | None") -> "AggBundle":
        """A new bundle summing this one with ``other`` (keys unioned)."""
        if other is None or len(other) == 0:
            return self
        out = AggBundle(self.specs, self.num_trials)
        out._ensure_groups(self.keys)
        out._ensure_groups(other.keys)
        for bundle in (self, other):
            if len(bundle) == 0:
                continue
            gids = np.array(
                [out.key_to_gid[k] for k in bundle.keys], dtype=np.intp
            )
            np.add.at(out.weight, gids, bundle.weight[: len(bundle)])
            np.add.at(out.trial_weight, gids, bundle.trial_weight[: len(bundle)])
            for s in range(len(self.specs)):
                np.add.at(out.sums[s], gids, bundle.sums[s][: len(bundle)])
                np.add.at(out.trial_sums[s], gids, bundle.trial_sums[s][: len(bundle)])
        return out

    def finalize(
        self, spec_index: int, scale: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-group results: ``(values (G,), trial_values (G, T))``."""
        g = len(self.keys)
        spec = self.specs[spec_index]
        values = np.asarray(
            spec.func.finalize(self.sums[spec_index][:g], self.weight[:g]),
            dtype=np.float64,
        )
        trial_values = np.asarray(
            spec.func.finalize(
                self.trial_sums[spec_index][:g], self.trial_weight[:g]
            ),
            dtype=np.float64,
        )
        if spec.func.scales_with_m and scale != 1.0:
            values = values * scale
            trial_values = trial_values * scale
        return values, trial_values

    def estimated_bytes(self) -> int:
        g = len(self.keys)
        per_group = 8 * (1 + self.num_trials)
        for spec in self.specs:
            per_group += 8 * spec.func.num_features * (1 + self.num_trials)
        return per_group * g + 48 * g  # sums + key dict overhead

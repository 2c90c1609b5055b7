"""Code-indexed lookup tables over published block outputs.

The uncertain join probes ``BlockOutput.get(key)`` once per stream row
and then reads per-group attributes (membership status, point decision,
per-trial existence, attached column values). A :class:`GroupTable`
flattens one block output into parallel arrays so those reads become
gathers: one dict probe per *distinct* key, then pure NumPy.

Tables are memoized per ``BlockOutput`` instance. The aggregate operator
publishes a *fresh* ``BlockOutput`` object every batch, so republishing
invalidates the cache structurally — stale tables are simply unreachable
and garbage-collected with their output (weak keys).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.kernels.stats import STATS

#: Membership/classification codes, value-aligned with
#: ``repro.core.classify`` (asserted in tests) — not imported from there
#: to keep this package's import edges pointing strictly downward.
TRUE, FALSE, UNKNOWN, PENDING = np.int8(1), np.int8(0), np.int8(2), np.int8(3)


class GroupTable:
    """Columnar view of one ``BlockOutput``'s groups."""

    def __init__(self, view) -> None:
        groups = list(view.groups.values())
        self.groups = groups
        self.slots: dict[tuple, int] = {
            g.key: slot for slot, g in enumerate(groups)
        }
        g = len(groups)
        self.status = np.empty(g, dtype=np.int8)
        self.member_point = np.empty(g, dtype=bool)
        for slot, group in enumerate(groups):
            if group.certainly_in:
                self.status[slot] = TRUE
            elif group.certainly_out:
                self.status[slot] = FALSE
            else:
                self.status[slot] = UNKNOWN
            self.member_point[slot] = group.member_point
        self._exist: np.ndarray | None = None
        self._pools: dict[tuple, np.ndarray] = {}

    def probe(self, keys: list[tuple]) -> np.ndarray:
        """Slot per key; ``-1`` where the key has not been published."""
        slots = self.slots
        return np.fromiter(
            (slots.get(k, -1) for k in keys), dtype=np.intp, count=len(keys)
        )

    def exist_matrix(self, num_trials: int) -> np.ndarray:
        """(G, T) per-trial existence, built once per table."""
        if self._exist is None or self._exist.shape[1] != num_trials:
            mat = np.empty((len(self.groups), num_trials), dtype=bool)
            for slot, group in enumerate(self.groups):
                mat[slot] = group.exist_in_trial(num_trials)
            self._exist = mat
        return self._exist

    def value_pool(self, name: str, dtype: np.dtype) -> np.ndarray:
        """(G,) array of each group's deterministic value of ``name``."""
        key = ("value", name, str(dtype))
        pool = self._pools.get(key)
        if pool is None:
            pool = np.empty(len(self.groups), dtype=dtype)
            for slot, group in enumerate(self.groups):
                pool[slot] = group.values[name]
            self._pools[key] = pool
        return pool

    def ref_pool(self, side_id: int, name: str, make_ref) -> np.ndarray:
        """(G,) object array of lineage refs into column ``name``.

        ``make_ref(side_id, key, name)`` builds one ref per group; refs
        compare by value, so sharing one instance across the rows of a
        group is indistinguishable from the reference's per-row objects.
        """
        key = ("ref", side_id, name)
        pool = self._pools.get(key)
        if pool is None:
            pool = np.empty(len(self.groups), dtype=object)
            for slot, group in enumerate(self.groups):
                pool[slot] = make_ref(side_id, group.key, name)
            self._pools[key] = pool
        return pool


_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def group_table(view) -> GroupTable:
    """Memoized :class:`GroupTable` of a published block output."""
    table = _CACHE.get(view)
    if table is not None:
        STATS.inc("view_table_hits")
        return table
    STATS.inc("view_table_misses")
    table = _CACHE[view] = GroupTable(view)
    return table

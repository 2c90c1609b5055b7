"""Key codec: factorize key columns into dense integer codes.

The row-wise engine identifies groups by Python tuples
(:meth:`Relation.key_tuples`) and probes dictionaries per row. The codec
replaces that with ``np.unique``-based factorization: each distinct key
gets a dense integer code in *first-appearance order* (the same order the
dict-based reference assigns group ids), and per-row work collapses into
array gathers. Codes are memoized per relation — relations are
immutable-by-convention, so a relation's key codes never change — which
is what makes re-examining a non-deterministic store every batch cheap.

Equality contract with the reference: key tuples are built from
``.tolist()`` scalars (plain Python values), exactly like
``Relation.key_tuples``, so codec keys hash/compare interchangeably with
reference keys. Inputs the vectorized path cannot factorize faithfully
fall back to the dict reference inside :func:`factorize_arrays`:

* float key columns containing NaN — ``np.unique`` collapses NaNs while
  dict keys treat every NaN object as distinct;
* object columns with unhashable values.

Object/string columns never go through ``np.unique`` at all: sorting an
object array compares elements in Python, which is both slower than a
dict sweep and wrong for unordered or NaN-bearing cells, so those columns
factorize through a per-column dict (identical semantics to the
reference's tuple keys, which also hash the cell objects).

This module depends only on NumPy so both ``repro.relational`` and the
online operators may import it without cycles.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.kernels.stats import STATS


@dataclass
class KeyCodes:
    """Dense key codes of one relation for one key-column list.

    ``codes[i]`` is the id of row ``i``'s key; ``keys[g]`` the Python
    key tuple of id ``g``. Ids follow first appearance order.
    """

    codes: np.ndarray  # (n,) intp
    keys: list[tuple]

    @property
    def num_keys(self) -> int:
        return len(self.keys)


def _first_appearance_order(inverse: np.ndarray, num_uniques: int, n: int):
    """Rank sorted-unique ids into first-appearance ids.

    Returns ``(order, rank)``: ``order[g]`` is the sorted-unique index of
    the ``g``-th key to appear, ``rank`` the inverse permutation.
    """
    first_pos = np.full(num_uniques, n, dtype=np.intp)
    np.minimum.at(first_pos, inverse, np.arange(n, dtype=np.intp))
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(num_uniques, dtype=np.intp)
    return order, rank


def _dict_factorize_column(arr: np.ndarray) -> np.ndarray:
    """First-appearance codes of one object column via a dict sweep.

    Matches the reference's key semantics exactly — cells are compared
    the way tuple keys compare them (hash + equality, with the identity
    shortcut that keeps each NaN object its own key). Raises ``TypeError``
    for unhashable cells (the caller then falls back to the row-wise
    reference, which would raise identically).
    """
    mapping: dict = {}
    codes = np.empty(len(arr), dtype=np.intp)
    missing = object()  # None is a legal cell value
    next_code = 0
    for i, value in enumerate(arr.tolist()):
        code = mapping.get(value, missing)
        if code is missing:
            code = next_code
            mapping[value] = next_code
            next_code += 1
        codes[i] = code
    return codes


def factorize_arrays(
    arrays: Sequence[np.ndarray],
    n: int,
    column_codes: Sequence[np.ndarray | None] | None = None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Factorize parallel key arrays into first-appearance codes.

    Returns ``(codes, first_rows)`` where ``first_rows[g]`` is the row at
    which key ``g`` first occurs, or ``None`` when the input needs the
    dict fallback (NaN float keys, unhashable objects).

    ``column_codes`` optionally injects storage-carried dictionary codes
    (``EncodedColumn.codes``) per column: a dictionary page assigns codes
    with exactly the dict-sweep semantics below (distinct code ↔ distinct
    value), so the column's hash sweep collapses into one integer
    ``np.unique`` — this is how encoded key columns skip re-hashing
    Python objects on every hop.
    """
    if not arrays:
        return np.zeros(n, dtype=np.intp), np.zeros(min(n, 1), dtype=np.intp)
    codes: np.ndarray | None = None
    for pos, arr in enumerate(arrays):
        pre = column_codes[pos] if column_codes is not None else None
        if pre is not None:
            STATS.inc("codec_encoded_cols")
            _, inv = np.unique(pre, return_inverse=True)
        elif arr.dtype.kind == "O":
            try:
                inv = _dict_factorize_column(arr)
            except TypeError:
                return None
        else:
            if arr.dtype.kind == "f" and len(arr) and np.isnan(arr).any():
                return None
            _, inv = np.unique(arr, return_inverse=True)
        inv = inv.reshape(n).astype(np.intp, copy=False)
        if codes is None:
            codes = inv
        else:
            # Pairwise mixed-radix combine, re-compacted immediately so
            # intermediate codes stay < n² (no overflow risk).
            radix = int(inv.max()) + 1 if n else 1
            combined = codes * radix + inv
            _, codes = np.unique(combined, return_inverse=True)
            codes = codes.reshape(n).astype(np.intp, copy=False)
    assert codes is not None
    num = int(codes.max()) + 1 if n else 0
    order, rank = _first_appearance_order(codes, num, n)
    first_pos = np.full(num, n, dtype=np.intp)
    np.minimum.at(first_pos, codes, np.arange(n, dtype=np.intp))
    return rank[codes], first_pos[order]


def _carried_codes(rel, names: Sequence[str]) -> list[np.ndarray | None] | None:
    """Storage-carried dictionary codes for each key column (or ``None``)."""
    encodings = getattr(rel, "encodings", None)
    if not encodings:
        return None
    out = [
        encodings[name].codes if name in encodings else None for name in names
    ]
    return out if any(c is not None for c in out) else None


def _factorize_relation(rel, names: Sequence[str]) -> KeyCodes:
    n = len(rel)
    if not names:
        # The scalar-aggregate key: one empty tuple, but only when rows
        # exist (the reference derives keys from rows, so zero rows give
        # zero keys).
        return KeyCodes(np.zeros(n, dtype=np.intp), [()] if n else [])
    arrays = [rel.columns[name] for name in names]
    result = factorize_arrays(arrays, n, _carried_codes(rel, names))
    if result is None:
        # Dict fallback: bit-identical to the reference by construction.
        mapping: dict[tuple, int] = {}
        codes = np.empty(n, dtype=np.intp)
        keys: list[tuple] = []
        for i, key in enumerate(rel.key_tuples(list(names))):
            gid = mapping.get(key)
            if gid is None:
                gid = len(keys)
                mapping[key] = gid
                keys.append(key)
            codes[i] = gid
        return KeyCodes(codes, keys)
    codes, first_rows = result
    keys = list(zip(*(a[first_rows].tolist() for a in arrays)))
    return KeyCodes(codes, keys)


#: rel -> {key-column tuple -> KeyCodes}. Weak keys: codes die with the
#: relation.
_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def factorize_keys(rel, names: Sequence[str]) -> KeyCodes:
    """Memoized key codes of ``rel`` over key columns ``names``."""
    cache_key = tuple(names)
    per_rel = _CACHE.get(rel)
    entry = None if per_rel is None else per_rel.get(cache_key)
    if entry is not None:
        STATS.inc("codec_hits")
        return entry
    STATS.inc("codec_misses")
    kc = _factorize_relation(rel, names)
    _CACHE.setdefault(rel, {})[cache_key] = kc
    return kc


def recode_subset(kc: KeyCodes, mask: np.ndarray) -> tuple[list[tuple], np.ndarray]:
    """Re-factorize the rows selected by ``mask``.

    The reference assigns group ids by first appearance *among the kept
    rows*, which generally differs from the full relation's order; this
    re-derives that order from the existing codes without touching key
    values again. Returns ``(keys, codes)`` over the masked rows.
    """
    sub = kc.codes[mask]
    m = len(sub)
    if m == 0:
        return [], np.empty(0, dtype=np.intp)
    uniq, inv = np.unique(sub, return_inverse=True)
    inv = inv.reshape(m).astype(np.intp, copy=False)
    order, rank = _first_appearance_order(inv, len(uniq), m)
    keys = [kc.keys[g] for g in uniq[order]]
    return keys, rank[inv]


def factorize_cells(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factorize an object column by cell *identity*.

    Lineage-bearing columns repeat a handful of cell objects (one
    ``LineageRef``/``UncertainValue`` per group) across thousands of rows;
    resolving each distinct object once and gathering is the whole win.
    Returns ``(codes, cells)``: ``cells[codes[i]] is column[i]``.
    """
    n = len(column)
    if n == 0:
        return np.empty(0, dtype=np.intp), column
    ids = np.frompyfunc(id, 1, 1)(column).astype(np.int64)
    _, inv = np.unique(ids, return_inverse=True)
    inv = inv.reshape(n).astype(np.intp, copy=False)
    num = int(inv.max()) + 1
    first_pos = np.full(num, n, dtype=np.intp)
    np.minimum.at(first_pos, inv, np.arange(n, dtype=np.intp))
    return inv, column[first_pos]

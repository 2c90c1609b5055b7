"""Runtime contract verification (``--verify`` / ``OnlineConfig(verify=True)``).

The static analyzer (:mod:`repro.analysis.typecheck` and
:mod:`repro.analysis.lint`) makes claims about how operators behave. This
module tests those claims *while the engine runs*, so the analyzer itself
cannot silently drift from the implementation:

* **Input immutability** — every operator's input :class:`DeltaBatch`
  (and the installed streamed delta, ``ctx.delta``) is fingerprinted
  before ``process`` and re-fingerprinted after; any difference means the
  operator mutated data another operator may also read.
* **State discipline** — after every ``process`` call the operator's
  live :meth:`state_items` keys are compared against its class's declared
  :class:`~repro.core.operators.StateRule` entries, so between-batch state
  cannot appear or vanish outside the declaration.

All violations raise :class:`~repro.errors.ContractViolationError`.
Verification is observational: a verified run produces bit-identical
results to an unverified one (asserted by the test suite).

This module deliberately imports nothing from ``repro.core`` — it is
loaded from :class:`~repro.core.blocks.RuntimeContext`, so an import in
the other direction would cycle. Operators are duck-typed through the
attributes the ``SpineOp`` contract guarantees (``label``, ``state``,
``state_items``, ``state_rule``).
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repro.errors import ContractViolationError

__all__ = ["ContractVerifier", "fingerprint_value"]


def _hash_bytes(parts: Iterable[bytes]) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for part in parts:
        digest.update(part)
    return digest.digest()


def _relation_parts(rel: Any) -> Iterable[bytes]:
    yield str(len(rel)).encode()
    for name in rel.schema.names:
        arr = rel.columns[name]
        yield name.encode()
        if arr.dtype == object:
            # Lineage refs / uncertain values: repr is deterministic and
            # content-derived, which is all a mutation check needs.
            for item in arr.tolist():
                yield repr(item).encode()
        else:
            yield arr.tobytes()
    yield rel.mult.tobytes()
    if rel.trial_mults is not None:
        yield rel.trial_mults.tobytes()


def fingerprint_value(value: Any) -> bytes | None:
    """Content fingerprint of an operator input (None stays None).

    Accepts the three shapes ``process`` receives — ``None`` for leaves,
    a ``DeltaBatch`` for unary operators, a list of them for n-ary — plus
    bare relations (used for ``ctx.delta``).
    """
    if value is None:
        return None
    if isinstance(value, list):
        return _hash_bytes(b for item in value for b in _iter_parts(item))
    return _hash_bytes(_iter_parts(value))


def _iter_parts(value: Any) -> Iterable[bytes]:
    certain = getattr(value, "certain", None)
    volatile = getattr(value, "volatile", None)
    if certain is not None and volatile is not None:  # a DeltaBatch
        yield b"certain"
        yield from _relation_parts(certain)
        yield b"volatile"
        yield from _relation_parts(volatile)
    else:  # a bare Relation (ctx.delta)
        yield from _relation_parts(value)


class ContractVerifier:
    """Cross-checks the static contracts dynamically, one batch at a time.

    Installed on :class:`~repro.core.blocks.RuntimeContext` when
    ``OnlineConfig.verify`` is set; :func:`~repro.core.operators.base.
    drive_pipeline` calls :meth:`before_process` / :meth:`after_process`
    around every operator invocation, and the batch executor calls
    :meth:`begin_batch` at each batch boundary.
    """

    def __init__(self) -> None:
        #: Structured-warning emitter with the signature of
        #: ``Tracer.warning(name, batch=None, **args)``. ``RuntimeContext.
        #: attach_obs`` wires the observability tracer in here, so every
        #: contract violation also lands on the trace timeline; None keeps
        #: violations exception-only.
        self.emit: Any = None
        self._batch_no: int | None = None
        #: id(op) -> fingerprint of its input taken in before_process.
        self._input_fps: dict[int, bytes | None] = {}
        #: Fingerprint of ctx.delta for the current batch.
        self._delta_fp: bytes | None = None
        self._violations: int = 0

    # -- batch lifecycle ---------------------------------------------------------

    def begin_batch(self, batch_no: int) -> None:
        """Reset per-batch tracking (called by the executor and lazily
        from :meth:`before_process` when operators are driven by hand)."""
        if batch_no == self._batch_no:
            return
        self._batch_no = batch_no
        self._delta_fp = None

    # -- per-operator hooks ------------------------------------------------------

    def before_process(self, op: Any, delta: Any, ctx: Any) -> None:
        self.begin_batch(ctx.batch_no)
        self._input_fps[id(op)] = fingerprint_value(delta)
        if self._delta_fp is None and ctx._delta is not None:
            self._delta_fp = fingerprint_value(ctx.delta)

    def after_process(self, op: Any, delta: Any, ctx: Any) -> None:
        before = self._input_fps.pop(id(op), None)
        if fingerprint_value(delta) != before:
            raise self._violation(
                "input-mutated", op.label,
                f"operator {op.label!r} mutated its input DeltaBatch during "
                "process(); inputs are shared with sibling operators and "
                "must be treated as immutable",
            )
        delta_fp = self._delta_fp
        if delta_fp is not None and ctx._delta is not None:
            if fingerprint_value(ctx.delta) != delta_fp:
                raise self._violation(
                    "delta-mutated", op.label,
                    f"operator {op.label!r} mutated ctx.delta (the installed "
                    "streamed delta) during process()",
                )
        self._check_state_entries(op)

    # -- internals ---------------------------------------------------------------

    def _violation(self, name: str, label: str, message: str) -> ContractViolationError:
        """Count, publish (to the trace timeline if wired), and build the
        error; callers raise the return value."""
        self._violations += 1
        if self.emit is not None:
            self.emit(
                "contract-violation", batch=self._batch_no,
                check=name, op=label, message=message,
            )
        return ContractViolationError(message)

    def _check_state_entries(self, op: Any) -> None:
        declared = set(type(op).state_rule.entries)
        live = {key for key, _ in op.state_items()}
        if live != declared:
            raise self._violation(
                "undeclared-state", op.label,
                f"operator {op.label!r} holds state entries {sorted(live)} "
                f"but its StateRule declares {sorted(declared)}; between-"
                "batch state may only live in declared named entries",
            )

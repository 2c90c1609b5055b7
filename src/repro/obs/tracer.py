"""Nested spans, instants and counter samples on one timeline.

Every event is recorded on the controller's single ``main`` track, in
the order it finished; the serial executor runs one unit at a time, so
spans on the track strictly nest and the Chrome exporter reconstructs
nesting from time containment. Shard workers trace nothing themselves;
the scheduler adds their per-batch spans to the parent's timeline.

The default tracer is :data:`NULL_TRACER`: ``enabled`` is False, every
span call returns one shared no-op handle, and nothing is ever
allocated or recorded — instrumentation sites guard any argument
computation behind ``tracer.enabled``.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.obs.events import EVENT_SCHEMA_VERSION, jsonable
from repro.obs.sinks import EventBus

#: The track every event is recorded on.
TRACK = "main"


class Span:
    """A live span handle; a context manager that records on exit."""

    __slots__ = ("_tracer", "name", "cat", "batch", "args", "_t0")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str,
        batch: int | None,
        args: dict | None,
    ):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.batch = batch
        self.args = args
        self._t0 = tracer.now()

    def set(self, **args: object) -> None:
        """Attach details discovered while the span is running."""
        if self.args is None:
            self.args = {}
        self.args.update(args)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self.set(error=f"{type(exc).__name__}: {exc}")
        event = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": "span",
            "name": self.name,
            "cat": self.cat,
            "track": TRACK,
            "ts": self._t0,
            "dur": max(0.0, self._tracer.now() - self._t0),
        }
        if self.batch is not None:
            event["batch"] = self.batch
        if self.args:
            event["args"] = {k: jsonable(v) for k, v in self.args.items()}
        self._tracer.events.append(event)

    def __bool__(self) -> bool:
        return True


class Tracer:
    """Produces spans, instants and counter samples for one execution."""

    enabled = True

    def __init__(self, bus: EventBus, clock: Callable[[], float] = time.perf_counter):
        self.bus = bus
        self._clock = clock
        self._epoch = clock()
        #: Finished events not yet flushed to the bus.
        self.events: list[dict] = []

    # -- time ----------------------------------------------------------------------

    def now(self) -> float:
        """Seconds since the tracer's epoch."""
        return self._clock() - self._epoch

    def flush(self) -> None:
        """Forward all recorded events to the bus."""
        events, self.events = self.events, []
        for event in events:
            self.bus.emit(event)
        self.bus.flush()

    # -- producing events ----------------------------------------------------------

    def span(
        self, name: str, cat: str = "exec", batch: int | None = None, **args: object
    ) -> Span:
        return Span(self, name, cat, batch, args or None)

    def event(
        self,
        kind: str,
        name: str,
        cat: str,
        batch: int | None = None,
        value: float | None = None,
        **args: object,
    ) -> None:
        record: dict = {
            "v": EVENT_SCHEMA_VERSION,
            "kind": kind,
            "name": name,
            "cat": cat,
            "track": TRACK,
            "ts": self.now(),
        }
        if value is not None:
            record["value"] = value
        if batch is not None:
            record["batch"] = batch
        if args:
            record["args"] = {k: jsonable(v) for k, v in args.items()}
        self.events.append(record)

    def instant(self, name: str, cat: str = "exec", batch: int | None = None,
                **args: object) -> None:
        self.event("instant", name, cat, batch, **args)

    def warning(self, name: str, batch: int | None = None, **args: object) -> None:
        """A structured warning (contract violation, rejected query, range
        failure) placed on the trace timeline."""
        self.event("warning", name, "warning", batch, **args)

    def counter(self, name: str, value: float, batch: int | None = None) -> None:
        """One sample of a numeric series (rendered as a counter track)."""
        if value == value and abs(value) != float("inf"):  # finite only
            self.event("counter", name, "metric", batch, value=value)

    def convergence(self, name: str, batch: int | None = None, **args: object) -> None:
        self.event("convergence", name, "convergence", batch, **args)


class _NullSpan:
    """Shared inert span: no state, no allocation, enters and exits as a
    no-op. ``bool()`` is False so call sites can skip attr computation."""

    __slots__ = ()

    def set(self, **args: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def __bool__(self) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The default tracer: disabled, allocation-free, safe to call."""

    enabled = False

    def now(self) -> float:
        return 0.0

    def flush(self) -> None:
        pass

    def span(self, name: str, cat: str = "exec", batch: int | None = None,
             **args: object) -> _NullSpan:
        return _NULL_SPAN

    def event(self, kind: str, name: str, cat: str, batch: int | None = None,
              value: float | None = None, **args: object) -> None:
        pass

    def instant(self, name: str, cat: str = "exec", batch: int | None = None,
                **args: object) -> None:
        pass

    def warning(self, name: str, batch: int | None = None, **args: object) -> None:
        pass

    def counter(self, name: str, value: float, batch: int | None = None) -> None:
        pass

    def convergence(self, name: str, batch: int | None = None, **args: object) -> None:
        pass


NULL_TRACER = NullTracer()

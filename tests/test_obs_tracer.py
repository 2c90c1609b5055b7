"""Tests for the tracer, sinks, and the Chrome trace exporter."""

import io
import json

import pytest

from repro.obs import (
    NULL_TRACER,
    EventBus,
    JsonlSink,
    MemorySink,
    Observability,
    to_chrome,
    validate_events,
    write_chrome,
)
from repro.obs.tracer import Tracer


class FakeClock:
    """A deterministic clock the tests advance by hand."""

    def __init__(self):
        self.t = 100.0  # non-zero epoch: ts must still start at 0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def make_tracer():
    sink = MemorySink()
    clock = FakeClock()
    tracer = Tracer(EventBus([sink]), clock=clock)
    return tracer, sink, clock


class TestSpans:
    def test_span_records_on_exit(self):
        tracer, sink, clock = make_tracer()
        with tracer.span("batch", cat="exec", batch=2, rows=10):
            clock.advance(0.5)
        tracer.flush()
        [event] = sink.events
        assert event["kind"] == "span"
        assert event["name"] == "batch"
        assert event["batch"] == 2
        assert event["ts"] == 0.0
        assert event["dur"] == 0.5
        assert event["args"] == {"rows": 10}
        validate_events(sink.events)

    def test_nested_spans_close_inner_first(self):
        tracer, sink, clock = make_tracer()
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
        tracer.flush()
        inner, outer = sink.events
        assert inner["name"] == "inner" and outer["name"] == "outer"
        # Per-track time containment: inner lies within outer.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_span_set_attaches_args(self):
        tracer, sink, _ = make_tracer()
        with tracer.span("batch") as span:
            span.set(recovered=True)
        tracer.flush()
        assert sink.events[0]["args"] == {"recovered": True}

    def test_exception_recorded_and_propagated(self):
        tracer, sink, _ = make_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("unit"):
                raise RuntimeError("boom")
        tracer.flush()
        assert "RuntimeError: boom" in sink.events[0]["args"]["error"]

    def test_events_flush_in_order(self):
        tracer, sink, clock = make_tracer()
        tracer.instant("a")
        clock.advance(0.1)
        tracer.warning("b", batch=1, message="careful")
        clock.advance(0.1)
        tracer.counter("c", 3.0)
        tracer.convergence("d", batch=1, estimate=1.0)
        tracer.flush()
        assert [e["kind"] for e in sink.events] == [
            "instant", "warning", "counter", "convergence"
        ]
        validate_events(sink.events)

    def test_counter_drops_nonfinite(self):
        tracer, sink, _ = make_tracer()
        tracer.counter("x", float("nan"))
        tracer.counter("x", float("inf"))
        tracer.counter("x", 1.0)
        tracer.flush()
        assert len(sink.events) == 1

    def test_flush_drains(self):
        tracer, sink, _ = make_tracer()
        tracer.instant("a")
        tracer.flush()
        tracer.flush()
        assert len(sink.events) == 1


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        span = NULL_TRACER.span("anything", batch=1, rows=5)
        assert not span  # falsy: call sites skip arg computation
        with span as s:
            s.set(x=1)
        NULL_TRACER.instant("x")
        NULL_TRACER.warning("x")
        NULL_TRACER.counter("x", 1.0)
        NULL_TRACER.flush()

    def test_shared_span_no_allocation(self):
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


class TestSinks:
    def test_jsonl_sink_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(EventBus([JsonlSink.open(str(path))]))
        with tracer.span("run"):
            tracer.instant("mark")
        tracer.flush()
        tracer.bus.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert [e["name"] for e in lines] == ["mark", "run"]
        validate_events(lines)

    def test_bus_fans_out(self):
        a, b = MemorySink(), MemorySink()
        bus = EventBus([a, b])
        bus.emit({"kind": "instant"})
        assert a.events == b.events == [{"kind": "instant"}]

    def test_observability_in_memory(self):
        obs, sink = Observability.in_memory()
        assert obs.enabled
        obs.tracer.instant("x")
        obs.metrics.gauge("g").set(5)
        obs.emit_metrics(batch=1)
        obs.close()
        kinds = [e["kind"] for e in sink.events]
        assert kinds == ["instant", "counter"]
        counter = sink.events[1]
        assert counter["name"] == "g"
        assert counter["value"] == 5.0
        assert counter["batch"] == 1


class TestChromeExport:
    def trace_events(self):
        tracer, sink, clock = make_tracer()
        with tracer.span("run", cat="run"):
            clock.advance(1.0)
            with tracer.span("batch", cat="exec", batch=1):
                clock.advance(0.5)
        with tracer.span("unit", cat="exec", batch=1):
            clock.advance(0.2)
        tracer.counter("state.total_bytes", 1024, batch=1)
        tracer.warning("pruning-disabled", batch=1, message="m")
        tracer.flush()
        return sink.events

    def test_structure(self):
        doc = to_chrome(self.trace_events())
        assert doc["displayTimeUnit"] == "ms"
        by_ph = {}
        for e in doc["traceEvents"]:
            by_ph.setdefault(e["ph"], []).append(e)
        assert {"M", "X", "C", "i"} <= set(by_ph)
        # One thread-name metadata record per track, stable tids.
        names = {e["args"]["name"]: e["tid"] for e in by_ph["M"]}
        assert set(names) == {"main"}
        assert names["main"] == 0

    def test_span_timestamps_in_microseconds(self):
        doc = to_chrome(self.trace_events())
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert spans["batch"]["ts"] == pytest.approx(1.0e6)
        assert spans["batch"]["dur"] == pytest.approx(0.5e6)
        assert spans["batch"]["args"]["batch"] == 1
        # Containment on the main track: batch within run.
        run, batch = spans["run"], spans["batch"]
        assert run["ts"] <= batch["ts"]
        assert batch["ts"] + batch["dur"] <= run["ts"] + run["dur"]

    def test_counter_and_instant_mapping(self):
        doc = to_chrome(self.trace_events())
        [counter] = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert counter["args"] == {"value": 1024}
        [instant] = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instant["name"] == "pruning-disabled"
        assert instant["s"] == "t"

    def test_write_chrome_valid_json(self):
        fh = io.StringIO()
        count = write_chrome(self.trace_events(), fh)
        doc = json.loads(fh.getvalue())
        assert len(doc["traceEvents"]) == count

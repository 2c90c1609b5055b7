"""Live telemetry export: Prometheus text format, HTTP endpoint, textfile
exporter, and the ``iolap top`` live view.

The exporter publishes the metrics registry's signals (|U_i| ``nd.rows``,
variation-range widths, state bytes by entry/tier, recovery depth,
per-operator self time, cost-model predictions vs actuals) in the
Prometheus text exposition format:

* :func:`prometheus_text` renders a registry snapshot (dots in metric
  names become underscores under an ``iolap_`` prefix; counters get the
  conventional ``_total`` suffix; histogram summaries expand to
  ``_count``/``_sum``/``_min``/``_max`` series);
* :class:`MetricsHTTPServer` serves ``/metrics`` from a stdlib
  ``http.server`` daemon thread (``iolap metrics --listen :9110``) —
  scrapes read live gauge values, no engine coordination needed (gauges
  are 8-byte stores; a scrape races a batch only into a slightly stale
  value, never a torn one);
* :class:`TextfileExporter` atomically rewrites a ``.prom`` file per
  batch for scrape-less CI (the node-exporter textfile collector idiom);
* :func:`parse_prometheus_text` is the inverse used by tests and the CI
  smoke job to validate published artifacts;
* :class:`TopView` renders the ``iolap top`` per-operator hot-spot table
  with the cost model's batches-to-convergence estimate.
"""

from __future__ import annotations

import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING

from repro.obs.registry import Counter, Gauge, Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.profile import ContinuousProfiler
    from repro.obs.registry import MetricsRegistry

#: Content type of the Prometheus text exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def prom_name(name: str) -> str:
    """Registry metric name -> Prometheus metric name (``iolap_`` prefix)."""
    return "iolap_" + _NAME_SANITIZE.sub("_", name.replace(".", "_"))


def _escape_label(value: object) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace('"', r'\"')
        .replace("\n", r"\n")
    )


def _label_text(labels: dict[str, object]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(labels[k])}"' for k in sorted(labels)
    )
    return "{" + inner + "}"


def prometheus_text(registry: "MetricsRegistry") -> str:
    """Render every registry series in Prometheus text format."""
    families: dict[str, tuple[str, list[str]]] = {}

    def emit(family: str, kind: str, labels: dict[str, object],
             value: float) -> None:
        entry = families.get(family)
        if entry is None:
            entry = families[family] = (kind, [])
        entry[1].append(f"{family}{_label_text(labels)} {_format(value)}")

    for _key, name, labels, inst in registry.series():
        base = prom_name(name)
        if isinstance(inst, Counter):
            emit(base + "_total", "counter", labels, inst.value)
        elif isinstance(inst, Histogram):
            emit(base + "_count", "gauge", labels, float(inst.count))
            emit(base + "_sum", "gauge", labels, inst.sum)
            if inst.count:
                emit(base + "_min", "gauge", labels, inst.min)
                emit(base + "_max", "gauge", labels, inst.max)
        elif isinstance(inst, Gauge):
            emit(base, "gauge", labels, inst.value)
    lines: list[str] = []
    for family in sorted(families):
        kind, samples = families[family]
        lines.append(f"# TYPE {family} {kind}")
        lines.extend(samples)
    return "\n".join(lines) + ("\n" if lines else "")


def _format(value: float) -> str:
    if value != value:
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Parse exposition text back into ``{name{labels}: value}``.

    The validation inverse of :func:`prometheus_text` (tests and the CI
    smoke job); raises ``ValueError`` on any malformed non-comment line.
    """
    out: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        key = match.group("name") + (match.group("labels") or "")
        out[key] = float(match.group("value"))
    return out


class TextfileExporter:
    """Atomic ``.prom`` file writer (node-exporter textfile idiom)."""

    def __init__(self, path: str, registry: "MetricsRegistry"):
        self.path = path
        self.registry = registry
        self.writes = 0

    def write(self) -> None:
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            fh.write(prometheus_text(self.registry))
        os.replace(tmp, self.path)
        self.writes += 1


class _MetricsHandler(BaseHTTPRequestHandler):
    server: "_MetricsServer"  # type: ignore[assignment]

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        if self.path.split("?", 1)[0] not in ("/", "/metrics"):
            self.send_error(404, "try /metrics")
            return
        body = prometheus_text(self.server.registry).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", PROM_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        pass  # scrapes must not pollute the engine's stderr


class _MetricsServer(ThreadingHTTPServer):
    daemon_threads = True
    registry: "MetricsRegistry"


class MetricsHTTPServer:
    """Serves ``/metrics`` for one registry from a daemon thread."""

    def __init__(self, registry: "MetricsRegistry", host: str = "127.0.0.1",
                 port: int = 0):
        self.registry = registry
        self._server = _MetricsServer((host, port), _MetricsHandler)
        self._server.registry = registry
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]  # type: ignore[return-value]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}/metrics"

    def start(self) -> "MetricsHTTPServer":
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="iolap-metrics-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None


def parse_listen(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` / ``:PORT`` -> (host, port); host defaults local."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"bad --listen {spec!r}: expected HOST:PORT or :PORT"
        )
    return (host or "127.0.0.1", int(port))


ANSI_CLEAR = "\x1b[2J\x1b[H"


class TopView:
    """The ``iolap top`` frame renderer: per-operator hot spots, live.

    Pure formatting over the profiler's rolling state — one frame per
    batch, rendered either with an ANSI clear (interactive) or as
    newline-separated frames (``--plain`` / non-tty / tests).
    """

    def __init__(self, target_rsd: float = 0.05, top: int = 12):
        self.target_rsd = target_rsd
        self.top = top
        self.frames = 0

    def frame(
        self,
        profiler: "ContinuousProfiler",
        batch_no: int,
        num_batches: int,
        rsd: float,
        batch_rows: int,
        seen_rows: int,
        wall_seconds: float,
    ) -> str:
        self.frames += 1
        prof = profiler.profile
        predicted = profiler.model.predict_batch_seconds(batch_rows)
        to_target = profiler.predict_batches_to_ci(
            self.target_rsd, batch_rows, seen_rows
        )
        cal = profiler.calibration()
        rsd_text = f"{rsd:.4f}" if rsd == rsd else "n/a"
        eta = (
            "met" if to_target == 0
            else f"~{to_target} batch(es)" if to_target is not None
            else "n/a"
        )
        lines = [
            f"iolap top — batch {batch_no}/{num_batches}"
            f"  wall {wall_seconds * 1000:8.1f} ms"
            f"  rsd {rsd_text}",
            f"cost model: next batch ~{predicted * 1000:.1f} ms"
            f"  (mape {cal['mape'] * 100:.1f}% over {cal['predictions']}"
            f" scored)  to rsd<{self.target_rsd:g}: {eta}",
            "",
            f"{'operator':<40} {'self ms':>9} {'rows in':>9} "
            f"{'nd rows':>9} {'state KiB':>10}",
        ]
        for op in prof.hot_operators(self.top):
            lines.append(
                f"{op.label[:40]:<40} "
                f"{op.self_seconds.get() * 1000:9.2f} "
                f"{op.rows_in.get():9.0f} "
                f"{op.nd_rows.get():9.0f} "
                f"{op.state_bytes.get() / 1024:10.1f}"
            )
        return "\n".join(lines)

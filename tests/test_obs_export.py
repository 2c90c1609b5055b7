"""Live telemetry export (``repro.obs.export``) and its CLI surfaces:
Prometheus text rendering + parsing, the /metrics HTTP endpoint, the
textfile exporter, the ``iolap top`` frame renderer, and the pinned
``report --json`` artifact."""

from __future__ import annotations

import json
import os
from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.obs import MetricsObservability, MetricsRegistry
from repro.obs.export import (
    MetricsHTTPServer,
    TextfileExporter,
    TopView,
    parse_listen,
    parse_prometheus_text,
    prom_name,
    prometheus_text,
)
from repro.obs.report import (
    REPORT_FIELDS,
    REPORT_SCHEMA_VERSION,
    TraceSummary,
    validate_report,
)


def make_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.gauge("nd.rows", op="select:1").set(42)
    reg.gauge("nd.rows", op="join:2").set(7)
    reg.counter("op.rows_in", op="select:1").inc(1000)
    reg.counter("recovery.failures").inc(2)
    reg.histogram("batch.seconds").observe(0.5)
    reg.histogram("batch.seconds").observe(1.5)
    reg.gauge("costmodel.predicted_seconds").set(0.25)
    return reg


class TestPrometheusText:
    def test_names_prefixed_and_sanitized(self):
        assert prom_name("nd.rows") == "iolap_nd_rows"
        assert prom_name("state.bytes{x}") == "iolap_state_bytes_x_"

    def test_round_trip(self):
        text = prometheus_text(make_registry())
        parsed = parse_prometheus_text(text)
        assert parsed['iolap_nd_rows{op="select:1"}'] == 42.0
        assert parsed['iolap_nd_rows{op="join:2"}'] == 7.0
        assert parsed['iolap_op_rows_in_total{op="select:1"}'] == 1000.0
        assert parsed["iolap_recovery_failures_total"] == 2.0
        assert parsed["iolap_costmodel_predicted_seconds"] == 0.25

    def test_histogram_expansion(self):
        parsed = parse_prometheus_text(prometheus_text(make_registry()))
        assert parsed["iolap_batch_seconds_count"] == 2.0
        assert parsed["iolap_batch_seconds_sum"] == 2.0
        assert parsed["iolap_batch_seconds_min"] == 0.5
        assert parsed["iolap_batch_seconds_max"] == 1.5

    def test_type_comments_and_counter_suffix(self):
        text = prometheus_text(make_registry())
        assert "# TYPE iolap_nd_rows gauge" in text
        assert "# TYPE iolap_recovery_failures_total counter" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.gauge("state.bytes", entry='we"ird\\x').set(1)
        text = prometheus_text(reg)
        assert r'entry="we\"ird\\x"' in text
        parse_prometheus_text(text)  # must stay parseable

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert parse_prometheus_text("") == {}

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_prometheus_text("iolap_ok 1\nwhat even is this?!")

    def test_deterministic_output(self):
        assert prometheus_text(make_registry()) == prometheus_text(
            make_registry()
        )


class TestTextfileExporter:
    def test_atomic_write_and_rewrite(self, tmp_path):
        reg = make_registry()
        path = str(tmp_path / "iolap.prom")
        exporter = TextfileExporter(path, reg)
        exporter.write()
        assert parse_prometheus_text(open(path).read())["iolap_nd_rows"
                                                        '{op="select:1"}'] == 42.0
        reg.gauge("nd.rows", op="select:1").set(50)
        exporter.write()
        assert exporter.writes == 2
        parsed = parse_prometheus_text(open(path).read())
        assert parsed['iolap_nd_rows{op="select:1"}'] == 50.0
        assert not [p for p in os.listdir(tmp_path) if ".tmp." in p]


class TestMetricsHTTPServer:
    def test_scrape(self):
        reg = make_registry()
        server = MetricsHTTPServer(reg).start()
        try:
            with urlopen(server.url) as resp:
                assert resp.status == 200
                assert resp.headers["Content-Type"].startswith("text/plain")
                body = resp.read().decode("utf-8")
        finally:
            server.stop()
        assert parse_prometheus_text(body)["iolap_recovery_failures_total"] == 2.0

    def test_scrape_is_live(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("nd.rows", op="x")
        server = MetricsHTTPServer(reg).start()
        try:
            gauge.set(1)
            first = parse_prometheus_text(
                urlopen(server.url).read().decode())
            gauge.set(2)
            second = parse_prometheus_text(
                urlopen(server.url).read().decode())
        finally:
            server.stop()
        assert first['iolap_nd_rows{op="x"}'] == 1.0
        assert second['iolap_nd_rows{op="x"}'] == 2.0

    def test_unknown_path_404(self):
        server = MetricsHTTPServer(MetricsRegistry()).start()
        try:
            host, port = server.address
            with pytest.raises(Exception) as err:
                urlopen(f"http://{host}:{port}/other")
            assert "404" in str(err.value)
        finally:
            server.stop()


class TestParseListen:
    def test_host_and_port(self):
        assert parse_listen("0.0.0.0:9110") == ("0.0.0.0", 9110)

    def test_port_only(self):
        assert parse_listen(":9110") == ("127.0.0.1", 9110)

    def test_rejects_garbage(self):
        for bad in ("9110", "host:", "host:port"):
            with pytest.raises(ValueError):
                parse_listen(bad)


class TestTopView:
    def _profiler(self):
        from repro.obs.profile import ContinuousProfiler, QueryProfile

        prof = QueryProfile("sig")
        for _ in range(6):
            prof.batch_seconds.update(0.02)
            prof.add_sample(1000, 10, 2048, 0.02)
        prof.ci_c.update(10.0)
        prof.operator("aggregate:1").self_seconds.update(0.015)
        prof.operator("scan:t").self_seconds.update(0.002)
        return ContinuousProfiler(prof)

    def test_frame_contents(self):
        view = TopView(target_rsd=0.05, top=5)
        frame = view.frame(self._profiler(), batch_no=3, num_batches=10,
                           rsd=0.1, batch_rows=1000, seen_rows=10_000,
                           wall_seconds=0.02)
        assert "batch 3/10" in frame
        assert "rsd 0.1000" in frame
        assert "~30 batch(es)" in frame  # (10/0.05)^2 rows at 1k/batch
        lines = frame.splitlines()
        # Hottest operator leads the table.
        assert lines[4].startswith("aggregate:1")
        assert "scan:t" in frame
        assert view.frames == 1

    def test_target_met(self):
        frame = TopView(target_rsd=0.2).frame(
            self._profiler(), 3, 10, 0.1, 1000, 10_000, 0.02)
        assert "met" in frame


class TestCliMetrics:
    ARGS = ["--workload", "tpch", "--query", "Q1", "--scale", "0.05",
            "--batches", "4", "--trials", "8", "-q"]

    def test_requires_an_export_target(self, capsys):
        assert main(["metrics", *self.ARGS]) == 2
        assert "--listen" in capsys.readouterr().err

    def test_textfile_export(self, tmp_path):
        path = str(tmp_path / "iolap.prom")
        assert main(["metrics", *self.ARGS, "--metrics-textfile", path]) == 0
        parsed = parse_prometheus_text(open(path).read())
        assert any(k.startswith("iolap_op_rows_in_total") for k in parsed)
        assert any(k.startswith("iolap_state_") for k in parsed)

    def test_textfile_with_profile_has_costmodel_series(self, tmp_path):
        path = str(tmp_path / "iolap.prom")
        assert main(["metrics", *self.ARGS, "--metrics-textfile", path,
                     "--profile", "--batches", "7"]) == 0
        parsed = parse_prometheus_text(open(path).read())
        assert parsed["iolap_costmodel_predictions"] >= 1.0
        assert parsed["iolap_costmodel_predicted_seconds"] > 0.0
        assert "iolap_costmodel_actual_seconds" in parsed

    def test_listen_serves_while_running(self, tmp_path):
        # Port 0 binds a free port; --hold 0 stops right after the run.
        assert main(["metrics", *self.ARGS, "--listen", "127.0.0.1:0"]) == 0

    def test_bad_listen_spec(self):
        assert main(["metrics", *self.ARGS, "--listen", "nope"]) == 2


class TestCliTop:
    def test_plain_frames(self, capsys):
        rc = main(["top", "--workload", "tpch", "--query", "Q1",
                   "--scale", "0.05", "--batches", "6", "--trials", "8",
                   "--plain", "-q"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "iolap top — batch 6/6" in out
        assert "cost model:" in out
        assert "\x1b" not in out  # --plain means no ANSI control codes

    def test_ansi_frames_by_default(self, capsys):
        rc = main(["top", "--workload", "tpch", "--query", "Q1",
                   "--scale", "0.05", "--batches", "2", "--trials", "8",
                   "-q"])
        assert rc == 0
        assert "\x1b[2J" in capsys.readouterr().out


def _trace_file(tmp_path) -> str:
    path = str(tmp_path / "run.jsonl")
    assert main(["--workload", "tpch", "--query", "Q1", "--scale", "0.05",
                 "--batches", "4", "--trials", "8", "--trace-out", path,
                 "-q"]) == 0
    return path


class TestReportJson:
    def test_cli_emits_pinned_schema(self, tmp_path, capsys):
        path = _trace_file(tmp_path)
        capsys.readouterr()
        assert main(["report", path, "--json", "-q"]) == 0
        doc = json.loads(capsys.readouterr().out)
        validate_report(doc)
        assert doc["schema_version"] == REPORT_SCHEMA_VERSION
        assert doc["num_batches"] == 4
        assert doc["run_seconds"] > 0
        span_names = {row["name"] for row in doc["span_totals"]}
        assert {"run", "batch", "unit"} <= span_names
        assert doc["state_series"]
        assert doc["recovery"] == []

    def test_summary_to_dict_matches_text_report(self, tmp_path):
        path = _trace_file(tmp_path)
        summary = TraceSummary.from_file(path)
        doc = summary.to_dict()
        assert doc["num_events"] == len(summary.events)
        assert doc["by_kind"] == summary.by_kind

    def test_validator_rejects_unknown_field(self, tmp_path):
        doc = TraceSummary.from_file(_trace_file(tmp_path)).to_dict()
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown field"):
            validate_report(doc)

    def test_validator_rejects_missing_field(self, tmp_path):
        doc = TraceSummary.from_file(_trace_file(tmp_path)).to_dict()
        del doc["span_totals"]
        with pytest.raises(ValueError, match="missing field"):
            validate_report(doc)

    def test_validator_rejects_wrong_version(self):
        doc = TraceSummary([]).to_dict()
        doc["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            validate_report(doc)

    def test_empty_trace_still_valid(self):
        doc = TraceSummary([]).to_dict()
        validate_report(doc)
        assert set(doc) == set(REPORT_FIELDS)


class TestMetricsObservability:
    def test_metrics_only_session_shape(self):
        obs = MetricsObservability()
        assert obs.enabled
        assert not obs.tracer.enabled
        assert obs.metrics.enabled
        obs.emit_metrics(1)  # no-ops must accept the session protocol
        obs.flush()
        obs.close()

"""Tests for the command-line interface.

Output discipline under test: result rows go to stdout; progress,
warnings, and errors go through the ``iolap`` logger to stderr.
"""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["SELECT 1 FROM t"])
        assert args.workload == "conviva"
        assert args.engine == "iolap"
        assert args.batches == 20
        assert args.trace_out is None
        assert args.log_level == "info"

    def test_named_query(self):
        args = build_parser().parse_args(["--query", "Q17", "--workload", "tpch"])
        assert args.query == "Q17"


class TestMain:
    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_list_queries(self, capsys):
        code, out, _ = self.run(["--workload", "tpch", "--list-queries"], capsys)
        assert code == 0
        assert "Q17" in out and "nested" in out

    def test_sql_online(self, capsys):
        code, out, err = self.run(
            [
                "SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn",
                "--scale", "0.05", "--batches", "4", "--trials", "10",
            ],
            capsys,
        )
        assert code == 0
        assert "batch   4/4" in err
        assert "exact" in err
        assert "cdn=" in out

    def test_named_query_online(self, capsys):
        code, out, err = self.run(
            ["--workload", "tpch", "--query", "Q22",
             "--scale", "0.05", "--batches", "3", "--trials", "10"],
            capsys,
        )
        assert code == 0
        assert "exact" in err

    def test_batch_engine(self, capsys):
        code, out, err = self.run(
            ["--workload", "tpch", "--query", "Q6", "--engine", "batch",
             "--scale", "0.05"],
            capsys,
        )
        assert code == 0
        assert "batch engine" in err

    def test_hda_engine(self, capsys):
        code, out, err = self.run(
            ["--workload", "tpch", "--query", "Q6", "--engine", "hda",
             "--scale", "0.05", "--batches", "3"],
            capsys,
        )
        assert code == 0
        assert "exact" in err

    def test_early_stop(self, capsys):
        code, out, err = self.run(
            [
                "SELECT AVG(play_time) AS apt FROM sessions",
                "--scale", "0.3", "--batches", "20", "--trials", "60",
                "--stop-rsd", "0.05",
            ],
            capsys,
        )
        assert code == 0
        assert "stopping early" in err

    def test_unknown_named_query(self, capsys):
        code = main(["--workload", "tpch", "--query", "Q99"])
        assert code == 2
        assert "unknown query" in capsys.readouterr().err

    def test_bad_sql(self, capsys):
        code = main(["SELEKT oops", "--scale", "0.05"])
        assert code == 2
        assert "SQL error" in capsys.readouterr().err

    def test_nothing_to_run(self):
        assert main(["--workload", "tpch"]) == 2

    def test_quiet_suppresses_progress(self, capsys):
        code, out, err = self.run(
            [
                "SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn",
                "--scale", "0.05", "--batches", "2", "--trials", "5", "-q",
            ],
            capsys,
        )
        assert code == 0
        assert "batch" not in err
        assert "cdn=" in out  # result rows stay on stdout

    def test_metrics_out_writes_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        code, out, err = self.run(
            [
                "SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn",
                "--scale", "0.05", "--batches", "3", "--trials", "5",
                "--metrics-out", str(path),
            ],
            capsys,
        )
        assert code == 0
        assert f"metrics written to {path}" in err
        data = json.loads(path.read_text())
        assert data["num_batches"] == 3
        assert len(data["batches"]) == 3
        assert all(b["op_seconds"] for b in data["batches"])

    def test_parallel_executor(self, capsys):
        """Parallel execution is the process-shard path (``--shards``)."""
        code, out, err = self.run(
            [
                "SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn",
                "--scale", "0.05", "--batches", "3", "--trials", "5",
                "--shards", "2",
            ],
            capsys,
        )
        assert code == 0
        assert "exact" in err
        assert "slowest operators:" in err
        assert "cdn=" in out

    def test_max_rows_truncation(self, capsys):
        code, out, err = self.run(
            [
                "SELECT state, COUNT(*) AS n FROM sessions GROUP BY state",
                "--scale", "0.05", "--batches", "2", "--trials", "5",
                "--max-rows", "3",
            ],
            capsys,
        )
        assert code == 0
        assert "more rows" in out

    def test_trace_out_requires_iolap(self, capsys):
        code = main([
            "--workload", "tpch", "--query", "Q6", "--engine", "batch",
            "--scale", "0.05", "--trace-out", "x.jsonl",
        ])
        assert code == 2
        assert "--trace-out requires --engine iolap" in capsys.readouterr().err

    def test_converge_logs_estimates(self, capsys):
        code, out, err = self.run(
            [
                "SELECT cdn, AVG(play_time) AS apt FROM sessions GROUP BY cdn",
                "--scale", "0.05", "--batches", "3", "--trials", "10",
                "--converge",
            ],
            capsys,
        )
        assert code == 0
        assert "convergence @ batch" in err
        assert "rsd" in err


class TestTraceWorkflow:
    """--trace-out -> `trace` conversion -> `report` summary."""

    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        code = main([
            "SELECT cdn, COUNT(*) AS n FROM sessions GROUP BY cdn",
            "--scale", "0.05", "--batches", "3", "--trials", "5",
            "--trace-out", str(path),
        ])
        capsys.readouterr()
        assert code == 0
        return path

    def test_trace_out_writes_valid_events(self, trace_path):
        from repro.obs import read_events

        events = list(read_events(trace_path))  # validates every line
        kinds = {e["kind"] for e in events}
        assert "span" in kinds and "counter" in kinds
        names = {e["name"] for e in events if e["kind"] == "span"}
        assert {"run", "batch", "unit", "op", "bootstrap"} <= names

    def test_trace_subcommand_chrome(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        code = main(["trace", str(trace_path), "-o", str(out_path)])
        err = capsys.readouterr().err
        assert code == 0
        assert "validated" in err
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"X", "C", "M"} <= phases

    def test_trace_subcommand_jsonl_stdout(self, trace_path, capsys):
        code = main(["trace", str(trace_path), "--format", "jsonl"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines() if line]
        assert lines and all("kind" in e for e in lines)

    def test_trace_subcommand_missing_file(self, tmp_path, capsys):
        code = main(["trace", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_report_subcommand(self, trace_path, capsys):
        code = main(["report", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trace summary" in out
        assert "span totals" in out
        assert "state growth" in out

    def test_report_subcommand_missing_file(self, tmp_path, capsys):
        code = main(["report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestAnalyzeExit:
    """Exit semantics of the analyze subcommand: errors fail the build,
    warnings do so only under --fail-on-warning (the CI setting)."""

    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_clean_typecheck_exits_zero(self, capsys):
        code, out, _ = self.run(
            ["analyze", "--workload", "tpch", "--query", "Q6",
             "--scale", "0.05"],
            capsys,
        )
        assert code == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_clean_race_check_exits_zero(self, capsys):
        code, out, _ = self.run(
            ["analyze", "--races", "--workload", "tpch", "--query", "Q6",
             "--scale", "0.05"],
            capsys,
        )
        assert code == 0
        assert "0 error(s), 0 warning(s)" in out

    def test_error_diagnostic_exits_one(self, capsys):
        # Unplannable SQL is a TC101 *error* for the typechecker.
        code, out, _ = self.run(
            ["analyze", "FROBNICATE everything", "--scale", "0.05"], capsys
        )
        assert code == 1
        assert "1 error(s)" in out

    def test_warning_only_exits_zero(self, capsys):
        # The same SQL is only a RACE000 *warning* for the race detector:
        # there is nothing to schedule, hence nothing to race.
        code, out, _ = self.run(
            ["analyze", "FROBNICATE everything", "--races",
             "--scale", "0.05"],
            capsys,
        )
        assert code == 0
        assert "1 warning(s)" in out

    def test_fail_on_warning_promotes_to_one(self, capsys):
        code, out, _ = self.run(
            ["analyze", "FROBNICATE everything", "--races",
             "--scale", "0.05", "--fail-on-warning"],
            capsys,
        )
        assert code == 1
        assert "1 warning(s)" in out

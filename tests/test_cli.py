"""CLI tests: every subcommand, size parsing, exit codes."""

import pytest

from repro._util import GB, KB, MB
from repro.cli import main, parse_size


class TestParseSize:
    def test_suffixes(self):
        assert parse_size("500KB") == 500 * KB
        assert parse_size("1.5MB") == int(1.5 * MB)
        assert parse_size("2GB") == 2 * GB
        assert parse_size("10tb") == 10 * 10**12

    def test_bare_bytes(self):
        assert parse_size("1234") == 1234
        assert parse_size("64B") == 64

    def test_bad_values(self):
        import argparse

        for bad in ("abc", "-5MB", "0", "MB"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_size(bad)


class TestMetrics:
    def test_prints_all_rows(self, capsys):
        assert main(["metrics", "--v", "10000", "--element-size", "500KB"]) == 0
        out = capsys.readouterr().out
        assert "broadcast:" in out and "block:" in out and "design:" in out
        assert "repl=102" in out  # padded to the q=101 plane, reported honestly


class TestValidate:
    def test_valid_scheme_exit_zero(self, capsys):
        assert main(["validate", "--scheme", "block", "--v", "30", "--h", "5"]) == 0
        assert "exactly-once: OK" in capsys.readouterr().out

    def test_design_prime_powers(self, capsys):
        assert main(
            ["validate", "--scheme", "design", "--v", "21", "--prime-powers"]
        ) == 0
        assert "q=4" in capsys.readouterr().out

    def test_broadcast(self, capsys):
        assert main(["validate", "--scheme", "broadcast", "--v", "12", "--tasks", "3"]) == 0

    def test_quorum(self, capsys):
        assert main(["validate", "--scheme", "quorum", "--v", "58"]) == 0
        out = capsys.readouterr().out
        assert "quorum(v=58" in out and "exactly-once: OK" in out


class TestReplication:
    def test_table_printed(self, capsys):
        assert main(["replication", "--v", "58", "--element-size", "64KB"]) == 0
        out = capsys.readouterr().out
        for name in ("broadcast", "block", "design", "quorum"):
            assert name in out
        assert "lower bound" in out and "|D|=" in out

    def test_perfect_plane_ratio_one(self, capsys):
        assert main(["replication", "--v", "57"]) == 0
        out = capsys.readouterr().out
        quorum_line = [l for l in out.splitlines() if l.strip().startswith("quorum")][0]
        assert "1.00" in quorum_line


class TestPlan:
    def test_block_recommendation(self, capsys):
        code = main(
            ["plan", "--v", "50000", "--element-size", "100KB",
             "--maxws", "200MB", "--maxis", "1TB"]
        )
        assert code == 0
        assert "BlockScheme" in capsys.readouterr().out

    def test_prints_the_route_with_both_byte_totals(self, capsys):
        assert main(["plan", "--v", "1000", "--element-size", "50KB", "--nodes", "8"]) == 0
        out = capsys.readouterr().out
        # 16 broadcast tasks replicate the 50 MB store 16-fold; 8 nodes localise it 8 times
        assert "routing: cache (broadcast scheme" in out
        assert "shuffle 800MB, cache 400MB" in out

    def test_infeasible_exit_one(self, capsys):
        code = main(
            ["plan", "--v", "100", "--element-size", "10GB",
             "--maxws", "1MB", "--maxis", "1GB"]
        )
        assert code == 1
        assert "infeasible" in capsys.readouterr().out


class TestFigures:
    @pytest.mark.parametrize("which", ["8a", "8b", "9a", "9b"])
    def test_series_printed(self, which, capsys):
        assert main(["figures", "--which", which]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) > 5

    def test_fig9b_columns(self, capsys):
        main(["figures", "--which", "9b"])
        header = capsys.readouterr().out.splitlines()[0]
        assert "broadcast" in header and "design" in header


class TestDemo:
    @pytest.mark.parametrize(
        "app", ["dbscan", "docsim", "genes", "covariance", "coreference"]
    )
    def test_each_app_runs(self, app, capsys):
        assert main(["demo", "--app", app]) == 0
        assert capsys.readouterr().out.startswith(app.split("_")[0][:4])


class TestSimulate:
    def test_feasible_workload(self, capsys):
        code = main(
            ["simulate", "--v", "2000", "--element-size", "100KB"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out and "maxws" in out

    def test_gantt_rendered(self, capsys):
        main(
            ["simulate", "--v", "2000", "--element-size", "100KB", "--gantt"]
        )
        out = capsys.readouterr().out
        assert "n0.s0" in out and "utilization" in out

    def test_gantt_draws_the_schedule_it_prices(self, capsys):
        """Bugfix: the Gantt re-costed tasks by compute alone and ended at 200.0 s."""
        from repro.cluster import ClusterSimulator, ClusterSpec, NodeSpec, build_trace
        from repro.core.block import BlockScheme

        main(["simulate", "--v", "5000", "--element-size", "100KB", "--nodes", "4", "--gantt"])
        out = capsys.readouterr().out
        assert "makespan 220.0s" in out
        assert out.count("220.0s") == 2  # the report line and the Gantt's time axis
        cluster = ClusterSpec.homogeneous(4, NodeSpec())
        report = ClusterSimulator(cluster).simulate(BlockScheme(5000, 5), 100 * KB)
        trace = build_trace(report.costs, cluster)
        assert trace.makespan == report.measured.makespan_seconds
        assert trace.slots == sorted(report.assignment.slot_loads)

    def test_infeasible_exit_code(self, capsys):
        code = main(
            ["simulate", "--v", "50", "--element-size", "10GB",
             "--maxws", "1MB", "--maxis", "1GB"]
        )
        assert code == 1

    def test_hierarchical_path(self, capsys):
        code = main(
            ["simulate", "--v", "5000", "--element-size", "10MB"]
        )
        out = capsys.readouterr().out
        assert "sequential rounds" in out
        assert code == 0


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["nonsense"])

    def test_missing_required_rejected(self):
        with pytest.raises(SystemExit):
            main(["metrics"])

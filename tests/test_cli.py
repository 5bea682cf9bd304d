"""Tests for the command-line interface."""

import importlib

import pytest

from repro.cli import FIGURE_MODULES, main


class TestPlanCommand:
    def test_plan_default(self, capsys):
        assert main(["plan", "--query", "Q12"]) == 0
        out = capsys.readouterr().out
        assert "Scan(orders)" in out
        assert "predicted time" in out
        assert "resource configurations explored" in out

    def test_plan_fast_randomized(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "--query",
                    "Q2",
                    "--planner",
                    "fast_randomized",
                ]
            )
            == 0
        )
        assert "predicted time" in capsys.readouterr().out

    def test_plan_baseline_explores_nothing(self, capsys):
        assert main(["plan", "--query", "Q12", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "resource configurations explored: 0" in out

    def test_plan_custom_cluster(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "--query",
                    "Q12",
                    "--containers",
                    "8",
                    "--container-gb",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Planned resources stay inside the 8 x 2 GB envelope.
        assert "x 1GB>" in out or "x 2GB>" in out

    def test_plan_brute_force(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "--query",
                    "Q12",
                    "--resource-method",
                    "brute_force",
                    "--containers",
                    "10",
                    "--container-gb",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # Brute force explores the whole 10x4 grid per costing.
        assert "resource configurations explored" in out

    def test_invalid_query_rejected(self):
        with pytest.raises(SystemExit):
            main(["plan", "--query", "Q99"])


class TestExecuteCommand:
    def test_execute_compares_against_baseline(self, capsys):
        assert main(["execute", "--query", "Q12"]) == 0
        out = capsys.readouterr().out
        assert "simulated execution" in out
        assert "two-step baseline" in out
        assert "speedup" in out

    def test_execute_baseline_only(self, capsys):
        assert main(["execute", "--query", "Q12", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "two-step baseline" not in out


class TestFigureCommand:
    def test_figure_names_cover_all_evaluation_figures(self):
        expected = {
            "fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
            "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig16", "fig17",
        }
        assert set(FIGURE_MODULES) == expected

    @pytest.mark.parametrize(
        "name",
        # Figs 12 and 15 are timed sweeps (seconds each); the claims
        # bench renders them.
        sorted(set(FIGURE_MODULES) - {"fig12", "fig15"}),
    )
    def test_figure_runs(self, capsys, name):
        figure = importlib.import_module(FIGURE_MODULES[name]).FIGURE
        assert main(["figure", name]) == 0
        out = capsys.readouterr().out
        for table in figure.tables:
            assert table.title in out
        for claim in figure.claims:
            assert claim.key in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestTreesCommand:
    def test_hive_trees(self, capsys):
        assert main(["trees", "--engine", "hive"]) == 0
        out = capsys.readouterr().out
        assert "default tree (hive)" in out
        assert "RAQO tree (hive)" in out
        assert "max path length" in out

    def test_spark_trees(self, capsys):
        assert main(["trees", "--engine", "spark"]) == 0
        assert "spark" in capsys.readouterr().out


class TestParser:
    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestServingCommands:
    def test_serve_zero_tenants_is_usage_error(self, capsys):
        assert main(["serve", "--tenants", "0"]) == 2
        assert "--tenants" in capsys.readouterr().err

    def test_serve_zero_requests_is_usage_error(self, capsys):
        assert main(["serve", "--requests", "0"]) == 2
        assert "--requests" in capsys.readouterr().err

    def test_replay_zero_tenants_is_usage_error(self, capsys):
        assert main(["replay", "--tenants", "0"]) == 2
        assert "--tenants" in capsys.readouterr().err

    def test_replay_zero_requests_is_usage_error(self, capsys):
        assert main(["replay", "--num-requests", "0"]) == 2
        assert "--num-requests" in capsys.readouterr().err


class TestFaultOptions:
    def test_run_alias_with_faults(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--query",
                    "Q3",
                    "--faults",
                    "seed=7,preempt=0.2,oom=0.4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "simulated execution" in out
        assert "faults:" in out
        assert "retries" in out

    def test_execute_without_faults_prints_no_fault_line(self, capsys):
        assert main(["execute", "--query", "Q3", "--baseline"]) == 0
        assert "faults:" not in capsys.readouterr().out

    def test_max_retries_alone_enables_recovery(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--query",
                    "Q3",
                    "--baseline",
                    "--max-retries",
                    "0",
                ]
            )
            == 0
        )
        assert "faults: 0 injected" in capsys.readouterr().out

    def test_workload_with_faults_is_deterministic(self, capsys):
        import re

        def strip_wall_time(out):
            # Planner wall time varies run to run; the simulated
            # numbers (and fault counters) must not.
            return re.sub(r"planning\s+[\d.,]+ ms", "planning -", out)

        argv = [
            "workload",
            "--num-queries",
            "3",
            "--faults",
            "seed=1,oom=0.3,preempt=0.15",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert strip_wall_time(second) == strip_wall_time(first)
        assert "faults:" in first

    def test_invalid_fault_spec_is_a_usage_error(self):
        with pytest.raises(SystemExit, match="invalid --faults spec"):
            main(["run", "--query", "Q3", "--faults", "explode=1"])

    def test_fig16_is_registered(self):
        assert "fig16" in FIGURE_MODULES


class TestObjectiveOption:
    @pytest.mark.parametrize(
        "spec",
        ["fastest", "cheapest", "weighted:2.5", "latency-bound:60", "pareto"],
    )
    def test_plan_accepts_every_objective(self, spec, capsys):
        assert main(["plan", "--query", "Q12", "--objective", spec]) == 0
        assert "predicted time" in capsys.readouterr().out

    def test_pareto_plan_prints_frontier_summary(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "--query",
                    "Q3",
                    "--objective",
                    "pareto",
                    "--resource-method",
                    "brute_force",
                    "--containers",
                    "10",
                    "--container-gb",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "frontier" in out
        assert "fastest" in out and "cheapest" in out

    def test_run_and_workload_accept_objective(self, capsys):
        assert (
            main(["run", "--query", "Q3", "--objective", "cheapest"]) == 0
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "workload",
                    "--num-queries",
                    "2",
                    "--objective",
                    "weighted:1.5",
                ]
            )
            == 0
        )

    @pytest.mark.parametrize(
        "spec", ["bogus", "weighted:x", "weighted:-1", "latency-bound:0"]
    )
    def test_malformed_objective_is_usage_error(self, spec, capsys):
        assert main(["plan", "--query", "Q12", "--objective", spec]) == 2
        err = capsys.readouterr().err
        assert "invalid objective" in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--container-gb", "nan"],
            ["--container-gb", "inf"],
            ["--container-gb=-inf"],
            ["--container-gb", "0.5"],
            ["--containers", "0"],
        ],
    )
    @pytest.mark.parametrize("command", ["plan", "run"])
    def test_invalid_cluster_is_usage_error(self, command, flags, capsys):
        """One line on stderr and exit 2, as for a bad --objective."""
        assert main([command, "--query", "Q3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip()
        assert err.startswith("invalid --containers/--container-gb: ")
        assert "\n" not in err and "Traceback" not in err


class TestWorkloadSharding:
    def test_procs_and_workers_conflict_is_usage_error(self, capsys):
        """Thread workers are gone, so naming both is a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "workload",
                    "--num-queries",
                    "2",
                    "--procs",
                    "2",
                    "--parallel",
                    "2",
                ]
            )
        assert excinfo.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_negative_procs_is_usage_error(self, capsys):
        assert (
            main(["workload", "--num-queries", "2", "--procs", "-1"])
            == 2
        )
        assert "--procs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--parallel", "--workers"])
    def test_thread_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["workload", "--num-queries", "3", flag, "2"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_procs_match_serial_output(self, capsys):
        import re

        def strip_wall_time(out):
            return re.sub(r"planning\s+[\d.,]+ ms", "planning -", out)

        assert main(["workload", "--num-queries", "3"]) == 0
        serial = capsys.readouterr().out
        assert (
            main(["workload", "--num-queries", "3", "--procs", "2"])
            == 0
        )
        sharded = capsys.readouterr().out
        assert "2 process(es)" in sharded
        assert strip_wall_time(sharded.replace(
            "2 process(es)", "serial"
        )) == strip_wall_time(serial)

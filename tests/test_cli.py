"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.workflow.serialization import configuration_from_dict


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_defaults(self):
        args = build_parser().parse_args(["search", "chatbot"])
        assert args.method == "AARC"
        assert args.bo_samples == 100
        assert args.seed == 2025
        assert args.backend == "simulator"
        assert args.cache is False

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "chatbot", "--method", "magic"])

    def test_backend_flags_parse(self):
        args = build_parser().parse_args(
            ["search", "chatbot", "--backend", "vectorized", "--cache"]
        )
        assert args.backend == "vectorized"
        assert args.cache is True

    def test_no_cache_flag(self):
        args = build_parser().parse_args(["compare", "chatbot", "--no-cache"])
        assert args.cache is False

    def test_invalid_backend_rejected(self):
        for name in ("quantum", "parallel"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["search", "chatbot", "--backend", name])

    def test_zero_workers_rejected(self):
        # --workers sizes the process pool of the scenario and fuzz verbs.
        for verb in ("scenarios", "fuzz"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([verb, "--workers", "0"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.workload == "video-analysis"
        assert args.method == "AARC"
        assert args.arrival is None
        assert args.rate is None
        assert args.duration == 300.0
        assert args.cache is True
        assert args.autoscale is False
        assert args.serve_seed is None

    def test_serve_accepts_seed_after_subcommand(self):
        args = build_parser().parse_args(
            ["serve", "--workload", "chatbot", "--arrival", "poisson",
             "--rate", "50", "--duration", "300", "--seed", "2025"]
        )
        assert args.serve_seed == 2025
        assert args.rate == 50.0

    def test_serve_rejects_unknown_arrival(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--arrival", "tidal"])


class TestCommands:
    def test_workloads_lists_benchmarks(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        assert "chatbot" in output
        assert "video-analysis" in output

    def test_describe(self, capsys):
        assert main(["describe", "ml-pipeline"]) == 0
        output = capsys.readouterr().out
        assert "ml-pipeline" in output
        assert "train_pca" in output
        assert "cpu-bound" in output

    def test_search_aarc_plain_output(self, capsys):
        assert main(["search", "chatbot"]) == 0
        output = capsys.readouterr().out
        assert "AARC on chatbot" in output
        assert "train_classifier_a" in output

    def test_search_json_output_round_trips(self, capsys):
        assert main(["search", "chatbot", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        configuration = configuration_from_dict(payload)
        assert "classify" in configuration

    def test_search_maff(self, capsys):
        assert main(["search", "ml-pipeline", "--method", "MAFF"]) == 0
        assert "MAFF on ml-pipeline" in capsys.readouterr().out

    def test_search_with_cache_reports_backend(self, capsys):
        assert main(["search", "chatbot", "--cache"]) == 0
        output = capsys.readouterr().out
        assert "AARC on chatbot" in output
        assert "backend:" in output

    def test_search_grid_method(self, capsys):
        assert main(["search", "chatbot", "--method", "Grid"]) == 0
        assert "Grid on chatbot" in capsys.readouterr().out

    def test_heatmap(self, capsys):
        assert main(["heatmap", "chatbot"]) == 0
        output = capsys.readouterr().out
        assert "Fig. 2" in output
        assert "cheapest feasible point" in output

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            main(["describe", "not-a-workload"])

    def test_serve_prints_headline_metrics(self, capsys):
        assert main(
            ["serve", "--workload", "chatbot", "--method", "base",
             "--arrival", "constant", "--rate", "0.5", "--duration", "40",
             "--nodes", "2", "--seed", "7"]
        ) == 0
        output = capsys.readouterr().out
        assert "serving study — chatbot" in output
        assert "latency p50/p95/p99" in output
        assert "SLO attainment" in output
        assert "cold-start rate" in output
        assert "cost per request" in output

    def test_serve_is_bit_identical_under_a_seed(self, capsys):
        argv = ["serve", "--workload", "chatbot", "--method", "base",
                "--arrival", "poisson", "--rate", "1", "--duration", "30",
                "--nodes", "2", "--seed", "2025"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_serve_accepts_workload_alias(self, capsys):
        assert main(
            ["serve", "--workload", "video_analysis", "--method", "base",
             "--arrival", "constant", "--rate", "0.02", "--duration", "100",
             "--seed", "3"]
        ) == 0
        assert "video-analysis" in capsys.readouterr().out


class TestFaultCommands:
    def test_serve_faults_flag_parses(self):
        args = build_parser().parse_args(["serve", "--faults", "crashes"])
        assert args.faults == "crashes"

    def test_serve_rejects_unknown_fault_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--faults", "gremlins"])

    def test_scenarios_defaults(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.workload == "chatbot"
        assert args.method == "base"
        # None resolves to 200s for the fault suites; the fleet suite keeps
        # each scenario's own horizon instead.
        assert args.duration is None
        assert args.nodes == 4
        assert args.rate == 0.15
        assert args.scenarios_seed is None

    def test_serve_with_faults_prints_resilience_block(self, capsys):
        assert main(
            ["serve", "--workload", "chatbot", "--method", "base",
             "--arrival", "constant", "--rate", "0.5", "--duration", "40",
             "--nodes", "2", "--seed", "7", "--faults", "crashes"]
        ) == 0
        output = capsys.readouterr().out
        assert "faults:" in output
        assert "retry amplification" in output
        assert "wasted work" in output

    def test_scenarios_runs_the_matrix(self, capsys):
        assert main(
            ["scenarios", "--workload", "chatbot", "--duration", "60",
             "--rate", "0.15", "--nodes", "4", "--seed", "717"]
        ) == 0
        output = capsys.readouterr().out
        assert "resilience scenario matrix" in output
        assert "baseline" in output
        assert "crash-retry vs baseline" in output


class TestAdaptiveCommands:
    def test_serve_adaptive_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--adaptive", "--controller", "drain",
             "--detector", "scheduled", "--backend", "vectorized"]
        )
        assert args.adaptive is True
        assert args.controller == "drain"
        assert args.detector == "scheduled"
        assert args.backend == "vectorized"

    def test_serve_adaptive_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.adaptive is False
        assert args.controller == "canary"
        assert args.detector == "threshold"
        assert args.backend == "simulator"

    def test_serve_rejects_unknown_controller_and_detector(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--controller", "prayer"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--detector", "tea-leaves"])

    def test_scenarios_suite_flag(self):
        assert build_parser().parse_args(["scenarios"]).suite == "resilience"
        assert (
            build_parser().parse_args(["scenarios", "--suite", "drift"]).suite
            == "drift"
        )
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--suite", "chaos"])

    def test_serve_adaptive_prints_control_block(self, capsys):
        assert main(
            ["serve", "--workload", "chatbot", "--method", "base",
             "--arrival", "constant", "--rate", "0.02", "--duration", "1500",
             "--nodes", "4", "--seed", "717", "--adaptive",
             "--detector", "scheduled", "--controller", "drain"]
        ) == 0
        output = capsys.readouterr().out
        assert "adaptive control:" in output
        assert "version completions:" in output
        assert "re-tunes" in output

    @pytest.mark.slow
    def test_scenarios_drift_suite_runs(self, capsys):
        assert main(["scenarios", "--suite", "drift", "--seed", "717"]) == 0
        output = capsys.readouterr().out
        assert "drift scenario suite" in output
        assert "adaptive beats static" in output


class TestProtectionCommands:
    def test_serve_protection_flag_parses(self):
        assert build_parser().parse_args(["serve"]).protection is None
        args = build_parser().parse_args(["serve", "--protection", "full"])
        assert args.protection == "full"

    def test_serve_rejects_unknown_protection_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--protection", "fortress"])

    def test_scenarios_protection_suite_flag_parses(self):
        args = build_parser().parse_args(["scenarios", "--suite", "protection"])
        assert args.suite == "protection"

    def test_serve_with_protection_prints_degradation_block(self, capsys):
        assert main(
            ["serve", "--workload", "chatbot", "--method", "base",
             "--arrival", "constant", "--rate", "0.5", "--duration", "40",
             "--nodes", "2", "--seed", "7", "--protection", "full"]
        ) == 0
        output = capsys.readouterr().out
        assert "protection:" in output
        assert "degradation:" in output

    @pytest.mark.slow
    def test_scenarios_protection_suite_runs(self, capsys):
        assert main(
            ["scenarios", "--suite", "protection", "--seed", "717",
             "--duration", "120"]
        ) == 0
        output = capsys.readouterr().out
        assert "overload-brownout" in output
        assert "breaker-storm" in output
        assert "hedge-vs-stragglers" in output
        assert "deadline-cascade" in output


class TestFleetCommands:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.scenario == "noisy-neighbor"
        assert args.policy is None
        assert args.duration is None
        # Falls back to the global --seed when not given after the verb.
        assert args.fleet_seed is None

    def test_fleet_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--scenario", "quiet-neighbor"])

    def test_fleet_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--policy", "round-robin"])

    def test_scenarios_fleet_suite_flag_parses(self):
        args = build_parser().parse_args(["scenarios", "--suite", "fleet"])
        assert args.suite == "fleet"

    def test_fleet_prints_per_tenant_table(self, capsys):
        assert main(
            ["fleet", "--scenario", "noisy-neighbor", "--seed", "717",
             "--duration", "200"]
        ) == 0
        output = capsys.readouterr().out
        assert "fleet scenario 'noisy-neighbor'" in output
        assert "interactive" in output and "noisy-batch" in output
        assert "policy: fair-share" in output and "policy: priority" in output

    @pytest.mark.slow
    def test_scenarios_fleet_suite_runs(self, capsys):
        assert main(
            ["scenarios", "--suite", "fleet", "--seed", "717",
             "--duration", "200"]
        ) == 0
        output = capsys.readouterr().out
        assert "noisy-neighbor" in output
        assert "priority-inversion" in output
        assert "spot-eviction-storm" in output
        assert "fleet-flash-crowd" in output

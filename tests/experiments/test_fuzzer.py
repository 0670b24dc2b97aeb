"""Tests for the scenario fuzzer: genes, invariants, campaigns, shrinking."""

import copy
import dataclasses

import pytest

from repro.experiments.fuzzer import (
    GENE_BASELINE,
    GENE_COMPONENTS,
    ScenarioGene,
    check_invariants,
    gene_settings,
    run_fuzz,
    run_gene,
    sample_gene,
    shrink_failure,
    varying_components,
)


def _baseline_gene(**overrides) -> ScenarioGene:
    base = dict(
        index=0,
        workload="chatbot",
        arrival="constant",
        rate_rps=0.2,
        drift=None,
        faults=None,
        protection=None,
        controller=None,
        duration_seconds=40.0,
        seed=11,
    )
    base.update(overrides)
    return ScenarioGene(**base)


class TestGeneSampling:
    def test_same_seed_same_genes(self):
        assert [sample_gene(i, 717) for i in range(5)] == [
            sample_gene(i, 717) for i in range(5)
        ]

    def test_genes_are_budget_independent(self):
        # Gene i depends only on (i, seed): a small budget is a strict
        # prefix of a bigger one.
        small = [sample_gene(i, 717) for i in range(3)]
        large = [sample_gene(i, 717) for i in range(10)]
        assert large[:3] == small

    def test_different_seeds_differ(self):
        assert sample_gene(0, 1) != sample_gene(0, 2)

    def test_genes_draw_zoo_workloads(self):
        genes = [sample_gene(i, 717) for i in range(20)]
        assert all(g.workload.startswith("zoo-") for g in genes)
        # The composition space is actually explored.
        assert len({g.arrival for g in genes}) > 1
        assert len({g.faults for g in genes}) > 1


class TestGeneSettings:
    def test_plain_gene_passes_arrival_through(self):
        settings = gene_settings(_baseline_gene(arrival="poisson"))
        assert settings.arrival == "poisson"
        assert settings.phases is None
        assert settings.adaptive is False

    def test_replay_gene_routes_through_phases(self):
        settings = gene_settings(_baseline_gene(arrival="replay"))
        assert settings.arrival is None
        assert settings.phases is not None
        assert settings.phases[0].profile.arrival == "replay"
        assert settings.phases[0].profile.trace_counts is not None

    def test_drifting_replay_steps_the_counts(self):
        settings = gene_settings(
            _baseline_gene(arrival="replay", drift="rate-step")
        )
        assert len(settings.phases) == 2
        calm = settings.phases[0].profile.trace_counts
        surge = settings.phases[1].profile.trace_counts
        assert surge == [c * 3 for c in calm]

    def test_rate_step_doubles_phases(self):
        settings = gene_settings(
            _baseline_gene(arrival="bursty", drift="rate-step")
        )
        assert len(settings.phases) == 2
        assert settings.phases[1].profile.rate_rps == pytest.approx(3 * 0.2)

    def test_controller_gene_turns_adaptive_on(self):
        settings = gene_settings(_baseline_gene(controller="drain"))
        assert settings.adaptive is True
        assert settings.rollout == "drain"


class TestInvariants:
    @pytest.fixture(scope="class")
    def clean_report(self):
        return run_gene(_baseline_gene())

    def test_clean_run_has_no_violations(self, clean_report):
        assert check_invariants(clean_report) == []

    def test_detects_conservation_break(self, clean_report):
        report = dataclasses.replace(
            clean_report,
            metrics=dataclasses.replace(
                clean_report.metrics, offered=clean_report.metrics.offered + 1
            ),
        )
        assert any("conservation" in v for v in check_invariants(report))

    def test_detects_billing_break(self, clean_report):
        report = dataclasses.replace(
            clean_report,
            metrics=dataclasses.replace(
                clean_report.metrics,
                total_cost=clean_report.metrics.total_cost + 1.0,
            ),
        )
        assert any("billing" in v for v in check_invariants(report))

    def test_detects_slo_accounting_break(self, clean_report):
        tampered = 0.5 * (clean_report.metrics.slo_attainment or 1.0)
        report = dataclasses.replace(
            clean_report,
            metrics=dataclasses.replace(
                clean_report.metrics, slo_attainment=tampered
            ),
        )
        assert any("slo" in v for v in check_invariants(report))

    def test_detects_negative_request_cost_and_latency(self, clean_report):
        outcomes = list(clean_report.result.outcomes)
        broken = copy.copy(outcomes[0])
        broken.cost = -1.0
        broken.completion_time = broken.request.arrival_time - 1.0
        outcomes[0] = broken
        report = dataclasses.replace(
            clean_report,
            result=dataclasses.replace(clean_report.result, outcomes=outcomes),
        )
        violations = check_invariants(report)
        assert any(v.startswith("non-finite or negative request costs") for v in violations)
        assert "non-finite or negative per-request latency" in violations

    def test_detects_cause_sum_break(self, clean_report):
        report = dataclasses.replace(
            clean_report,
            metrics=dataclasses.replace(
                clean_report.metrics, rejected_by_cause={"phantom": 3}
            ),
        )
        assert any("cause" in v for v in check_invariants(report))


class TestCampaign:
    def test_digest_is_bit_reproducible(self):
        first = run_fuzz(budget=4, seed=717)
        second = run_fuzz(budget=4, seed=717)
        assert first.digest == second.digest
        assert first.violation_count == 0

    def test_workers_do_not_change_the_digest(self):
        serial = run_fuzz(budget=4, seed=99)
        pooled = run_fuzz(budget=4, seed=99, workers=2)
        assert serial.digest == pooled.digest

    def test_different_seed_different_digest(self):
        assert run_fuzz(budget=3, seed=1).digest != run_fuzz(budget=3, seed=2).digest

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            run_fuzz(budget=0)


class TestShrinker:
    @staticmethod
    def _breaker(report):
        """Deliberately seeded invariant breaker: crash faults 'fail'."""
        if report.settings.faults == "crashes":
            return ["synthetic: crash accounting broken"]
        return []

    def test_shrinks_to_minimal_reproducer(self):
        gene = _baseline_gene(
            workload="zoo-pipeline-w2-d2-e15-s5",
            arrival="poisson",
            drift="rate-step",
            faults="crashes",
            protection="full",
            controller="canary",
        )
        assert len(varying_components(gene)) == 6
        result = shrink_failure(gene, check=self._breaker)
        assert result.varying == ("faults",)
        assert len(result.varying) <= 3
        assert result.minimal.faults == "crashes"
        assert result.minimal.seed == gene.seed  # re-runs under the same seed
        # The shrunk output still fails the original invariant.
        assert self._breaker(run_gene(result.minimal)) == list(result.violations)

    def test_interacting_components_both_survive(self):
        def pair_breaker(report):
            if (
                report.settings.faults == "stragglers"
                and report.settings.protection == "hedging"
            ):
                return ["synthetic: hedge accounting broken under stragglers"]
            return []

        gene = _baseline_gene(
            workload="zoo-fanout-w2-d2-e35-s9",
            faults="stragglers",
            protection="hedging",
            controller="immediate",
        )
        result = shrink_failure(gene, check=pair_breaker)
        assert set(result.varying) == {"faults", "protection"}

    def test_refuses_to_shrink_a_passing_gene(self):
        with pytest.raises(ValueError):
            shrink_failure(_baseline_gene())

    def test_baseline_covers_every_component(self):
        assert set(GENE_BASELINE) == set(GENE_COMPONENTS)
        assert varying_components(_baseline_gene()) == ()


class TestCli:
    def test_fuzz_command_runs_clean(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--budget", "2", "--seed", "717"]) == 0
        out = capsys.readouterr().out
        assert "2 passed, 0 failed" in out
        assert "digest:" in out

    def test_scenarios_suite_fuzz(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "--suite", "fuzz", "--budget", "2"]) == 0
        assert "scenario fuzz" in capsys.readouterr().out

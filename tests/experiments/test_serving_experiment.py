"""Tests for the serving experiment and its rendering."""

import pytest

from repro.experiments.reporting import render_serving_report
from repro.experiments.serving_experiment import (
    ServingSettings,
    run_serving_experiment,
)


@pytest.fixture(scope="module")
def base_report():
    """A quick contended run on the chatbot workload (no search phase)."""
    settings = ServingSettings(
        method="base",
        arrival="constant",
        rate_rps=0.5,
        duration_seconds=60.0,
        nodes=2,
        seed=7,
    )
    return run_serving_experiment("chatbot", settings)


class TestRunServingExperiment:
    def test_report_carries_the_headline_metrics(self, base_report):
        metrics = base_report.metrics
        assert metrics.offered == 30
        assert metrics.completed == 30
        assert metrics.throughput_rps > 0
        assert metrics.latency_p99_seconds >= metrics.latency_p95_seconds
        assert metrics.latency_p95_seconds >= metrics.latency_p50_seconds
        assert 0.0 <= metrics.slo_attainment <= 1.0
        assert metrics.mean_cost_per_request > 0

    def test_saturated_tail_exceeds_uncontended_latency(self, base_report):
        # The acceptance property: queueing is modelled, not averaged away.
        uncontended = max(base_report.uncontended_latency_seconds.values())
        assert base_report.metrics.latency_p99_seconds > uncontended
        assert base_report.metrics.queueing_mean_seconds > 0

    def test_backend_stats_report_cache_and_pool(self, base_report):
        stats = base_report.backend_stats
        assert stats.cache_hits > 0  # deterministic traces memoized
        assert stats.cold_starts > 0  # serving pool counters flow through
        assert stats.warm_hits > 0

    def test_deterministic_under_seed(self):
        settings = ServingSettings(
            method="base", arrival="poisson", rate_rps=1.0,
            duration_seconds=30.0, nodes=2, seed=2025,
        )
        a = run_serving_experiment("chatbot", settings)
        b = run_serving_experiment("chatbot", settings)
        assert render_serving_report(a) == render_serving_report(b)

    def test_unlimited_cluster_never_queues(self):
        settings = ServingSettings(
            method="base", arrival="constant", rate_rps=1.0,
            duration_seconds=20.0, nodes=0, seed=1,
        )
        report = run_serving_experiment("chatbot", settings)
        assert report.metrics.queueing_max_seconds == 0.0
        assert report.metrics.cpu_utilization is None

    def test_input_aware_requires_classes(self):
        settings = ServingSettings(method="AARC", input_aware=True, duration_seconds=10.0)
        with pytest.raises(ValueError):
            run_serving_experiment("chatbot", settings)

    def test_input_aware_reports_dispatch_counts(self):
        settings = ServingSettings(
            method="AARC", input_aware=True, arrival="constant", rate_rps=0.05,
            duration_seconds=200.0, nodes=0, seed=3,
        )
        report = run_serving_experiment("video-analysis", settings)
        # Every served request was dispatched through the engine, and the
        # per-class counts match the generated stream exactly (the probe
        # runs after the snapshot).
        assert report.dispatch_counts == report.class_counts
        assert sum(report.dispatch_counts.values()) == report.metrics.offered
        assert "dispatched input-aware" in render_serving_report(report)

    def test_noise_changes_outcomes_but_stays_seeded(self):
        settings = ServingSettings(
            method="base", arrival="constant", rate_rps=0.5,
            duration_seconds=20.0, nodes=0, seed=5, noise_cv=0.05,
        )
        a = run_serving_experiment("chatbot", settings)
        b = run_serving_experiment("chatbot", settings)
        assert render_serving_report(a) == render_serving_report(b)
        latencies = [o.latency_seconds for o in a.result.outcomes]
        assert len(set(latencies)) > 1  # noise actually applied

    @pytest.mark.parametrize("cv", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_noise_must_be_non_negative_and_finite(self, cv):
        # A NaN or negative level used to run noise-free without a word.
        with pytest.raises(ValueError, match="noise_cv"):
            ServingSettings(noise_cv=cv)


class TestRenderServingReport:
    def test_mentions_every_headline_metric(self, base_report):
        text = render_serving_report(base_report)
        assert "throughput" in text
        assert "latency p50/p95/p99" in text
        assert "SLO attainment" in text
        assert "queueing delay" in text
        assert "cold-start rate" in text
        assert "cost per request" in text
        assert "cluster utilization" in text
        assert "backend:" in text

    def test_lists_class_baselines(self, base_report):
        text = render_serving_report(base_report)
        assert "uncontended latency" in text
        assert "class default" in text

"""Differential tests: block-precomputed fault draws vs per-key streams.

:class:`~repro.execution.faults.FaultInjector` reads most attempts' draws
from rows it computes a block of requests at a time, and builds a keyed
stream for every other key.  The rows must be invisible: every run here is
compared exactly against the same run with rows switched off, so each draw
comes from its own stream.  Small blocks put many block boundaries inside
each run; ``node-storm`` and ``chaos`` on a finite cluster restart requests,
whose later incarnations draw per key.
"""

import gc
import weakref

import pytest

import repro.execution.faults as faults_module
from repro.execution.faults import FAULT_PROFILE_NAMES, FaultInjector
from repro.experiments.serving_experiment import ServingSettings, run_serving_experiment


def run(profile: str, protection, nodes: int, seed: int, duration: float = 120.0):
    return run_serving_experiment(
        "chatbot",
        ServingSettings(
            method="base",
            arrival="poisson",
            rate_rps=2.0,
            duration_seconds=duration,
            nodes=nodes,
            faults=profile,
            protection=protection,
            seed=seed,
        ),
    )


def outcome_trace(report):
    return [
        (
            outcome.index,
            outcome.completion_time,
            outcome.cost,
            outcome.restarts,
            outcome.wasted_seconds,
        )
        for outcome in report.result.outcomes
    ]


@pytest.mark.parametrize("seed", [717, 2025])
@pytest.mark.parametrize("nodes", [0, 4])
@pytest.mark.parametrize("protection", [None, "full"])
@pytest.mark.parametrize("profile", FAULT_PROFILE_NAMES)
def test_rows_change_no_result(monkeypatch, profile, protection, nodes, seed):
    with monkeypatch.context() as patch:
        patch.setattr(FaultInjector, "draw_row", lambda self, index: None)
        per_key = run(profile, protection, nodes, seed)
    monkeypatch.setattr(FaultInjector, "BLOCK_REQUESTS", 7)
    rows = run(profile, protection, nodes, seed)
    assert repr(rows.metrics) == repr(per_key.metrics)
    assert outcome_trace(rows) == outcome_trace(per_key)


def test_restarted_requests_are_covered():
    # The finite-cluster chaos runs above restart requests with rows in use.
    restarts = sum(
        outcome.restarts for outcome in run("chaos", "full", 4, 717).result.outcomes
    )
    assert restarts > 0


def test_blocks_live_only_while_their_requests_are_in_flight(monkeypatch):
    blocks, alive_at_build = [], []
    first_randoms = faults_module.first_randoms

    def recording(seeds, count):
        gc.collect()
        alive_at_build.append(sum(ref() is not None for ref in blocks))
        draws = first_randoms(seeds, count)
        blocks.append(weakref.ref(draws))
        return draws

    monkeypatch.setattr(faults_module, "first_randoms", recording)
    monkeypatch.setattr(FaultInjector, "BLOCK_REQUESTS", 16)
    # About 50 requests in flight at a time, out of about 600.
    report = run_serving_experiment(
        "chatbot",
        ServingSettings(
            method="base", arrival="poisson", rate_rps=0.5, duration_seconds=1200.0,
            nodes=0, faults="chaos", protection="full", seed=2025,
        ),
    )
    assert report.metrics.completed > 500
    assert max(alive_at_build) < len(blocks) // 2
    gc.collect()
    assert [ref() for ref in blocks] == [None] * len(blocks)

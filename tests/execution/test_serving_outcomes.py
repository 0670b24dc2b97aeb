"""The batched engine's outcome table and the one summary every engine uses."""

import gc
import pickle
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.execution.backend import build_backend
from repro.execution.events import ArrivalBatch, RequestArrival
from repro.execution.outcomes import (
    OutcomeTable,
    ServedRequest,
    outcome_columns,
    summarize_outcomes,
)
from repro.execution.serving import ServingOptions
from repro.execution.serving_vectorized import build_serving_engine
from repro.utils.rng import RngStream
from repro.workloads.registry import get_workload


def serve(name, requests, duration):
    workload = get_workload("chatbot")
    executor = workload.build_executor()
    engine = build_serving_engine(
        name,
        workflow=workload.workflow,
        executor=executor,
        backend=build_backend(executor, name="simulator", cache=True),
        slo=workload.slo,
        options=ServingOptions(),
    )
    configuration = workload.base_configuration()
    return engine.run(requests, lambda _r: configuration, duration_seconds=duration)


def chatbot_batch(rate_rps, duration, seed=2025):
    traffic = get_workload("chatbot").traffic_model(arrival="poisson", rate_rps=rate_rps)
    return traffic.generate_batch(duration, RngStream(seed, "traffic"))


def row(outcome):
    return (
        outcome.index,
        outcome.request,
        outcome.dispatch_time,
        outcome.completion_time,
        outcome.cost,
        outcome.cold_start_count,
        outcome.cold_start_seconds,
        outcome.succeeded,
        id(outcome.configuration),
        id(outcome.service_trace),
    )


@pytest.fixture(scope="module")
def table():
    outcomes = serve("batched", chatbot_batch(2.0, 60.0), 60.0).outcomes
    assert isinstance(outcomes, OutcomeTable)
    assert len(outcomes) > 50
    return outcomes


class TestOutcomeTable:
    def test_length_and_items_match_iteration(self, table):
        rows = [row(o) for o in table]
        assert len(rows) == len(table)
        assert [row(table[i]) for i in range(len(table))] == rows
        assert [o.index for o in table] == list(range(len(table)))

    def test_negative_indices(self, table):
        assert row(table[-1]) == row(table[len(table) - 1])
        assert row(table[-len(table)]) == row(table[0])

    def test_index_error_past_either_end(self, table):
        with pytest.raises(IndexError):
            table[len(table)]
        with pytest.raises(IndexError):
            table[-len(table) - 1]

    def test_slices(self, table):
        rows = [row(o) for o in table]
        for key in (slice(None), slice(1, None), slice(3, 9, 2), slice(None, None, -1),
                    slice(-5, None), slice(10, 3)):
            assert [row(o) for o in table[key]] == rows[key]

    def test_items_are_built_on_read(self, table):
        first, again = table[0], table[0]
        assert first is not again
        assert row(first) == row(again)
        assert [row(o) for o in table] == [row(o) for o in table]

    def test_pickle_round_trip(self, table):
        copy = pickle.loads(pickle.dumps(table))
        assert len(copy) == len(table)
        strip = lambda r: r[:-2]  # noqa: E731 - identities change in a copy
        assert [strip(row(o)) for o in copy] == [strip(row(o)) for o in table]
        assert [o.configuration for o in copy] == [o.configuration for o in table]

    def test_list_input_records_are_equal_but_not_the_same(self):
        requests = chatbot_batch(1.0, 30.0).to_requests()
        outcomes = serve("batched", requests, 30.0).outcomes
        assert [o.request for o in outcomes] == requests
        assert all(o.request is not r for o, r in zip(outcomes, requests))


class TestSummary:
    """One routine summarizes both engines' outcomes: its float totals are
    the builtin ``sum`` of the records' values in index order, whichever
    kind of outcomes it reads."""

    ADVERSARIAL = [1e16, 1.0, -1e16]

    def records(self):
        return [
            ServedRequest(
                i, RequestArrival(0.0), None, 0.0, value, value,
                attempts=1, base_invocations=1,
            )
            for i, value in enumerate(self.ADVERSARIAL)
        ]

    def table(self):
        count = len(self.ADVERSARIAL)
        values = np.asarray(self.ADVERSARIAL)
        zeros = np.zeros(count)
        template = SimpleNamespace(
            configuration=None, succeeded=True, trace=None, base_invocations=1
        )
        requests = ArrivalBatch(
            zeros, np.ones(count), np.zeros(count, dtype=np.intp), ["default"]
        )
        return OutcomeTable(
            requests, zeros, values, values,
            np.zeros(count, dtype=np.int64), zeros, np.zeros(count, dtype=np.intp), [template],
        )

    @pytest.mark.parametrize("source", ["records", "table"])
    def test_float_totals_are_builtin_sums(self, source):
        outcomes = getattr(self, source)()
        metrics = summarize_outcomes(outcomes, [], 1.0, 3, None)
        # 0.0 on Python 3.11, 1.0 where ``sum`` compensates (3.12 onwards).
        expected = sum(o.cost for o in self.records())
        assert metrics.total_cost == expected
        assert metrics.mean_cost_per_request == expected / 3
        assert metrics.latency_mean_seconds == expected / 3

    def test_records_and_table_give_the_same_columns(self):
        records, table = outcome_columns(self.records()), outcome_columns(self.table())
        for name in ("arrival", "dispatch", "completion", "cost", "cold_count", "succeeded",
                     "attempts", "base_invocations"):
            assert getattr(records, name).tolist() == getattr(table, name).tolist()

    @pytest.mark.parametrize("engine", ["event", "batched"])
    def test_empty_run_keeps_int_zero_totals(self, engine):
        batch = ArrivalBatch(
            times=np.empty(0), scales=np.empty(0),
            class_ids=np.empty(0, dtype=np.intp), class_names=[],
        )
        metrics = serve(engine, batch if engine == "batched" else [], 10.0).metrics
        for name in ("total_cost", "wasted_seconds", "faults_injected"):
            value = getattr(metrics, name)
            assert type(value) is int and value == 0, name
        assert metrics.completed == 0


def test_batched_result_retains_few_bytes_per_request():
    """A batched result keeps columns, not a record per request: the bytes
    it retains stay under 128 per request (the event loop's records retain
    about 350)."""
    batch = chatbot_batch(100.0, 200.0)
    serve("batched", chatbot_batch(1.0, 10.0), 10.0)  # warm module-level caches
    gc.collect()
    tracemalloc.start()
    try:
        result = serve("batched", batch, 200.0)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.outcomes) == len(batch) > 19_000
    assert retained / len(batch) < 128

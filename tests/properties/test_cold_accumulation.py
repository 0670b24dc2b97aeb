"""Property test for the batched engine's order of cold-start additions.

The cohort path adds each cold start's penalty and billing delta to its
request function by function, in topological order.  The event loop adds a
penalty when its attempt starts, in the order start events fire (by start
time, then topological position), and a billing delta when the attempt
settles at its end (by end time, then start order).  Two additions commute,
three need not, so ``_fix_multi_cold`` re-adds the requests with three or
more cold starts in the event loop's orders.  The reference is the
per-request loop over those events, sorted.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.execution.serving_vectorized import _fix_multi_cold

VALUES = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1, 2.3, 0.4567, 3.21])


@st.composite
def cold_batches(draw):
    """Cold batches as the cohort path appends them, function by function.

    Each function is cold for a subset of the requests, split between up to
    two templates (each with its own billing delta and runtime); a request
    starts each function once, at a half-second grid time, so starts of
    different functions tie often, and ends at ``start + (penalty +
    runtime)``, so ends order differently from starts and tie too.
    """
    requests = draw(st.integers(min_value=1, max_value=8))
    functions = draw(st.integers(min_value=1, max_value=7))
    batches = []
    for k in range(functions):
        penalty = draw(VALUES)
        cold = sorted(draw(st.sets(st.integers(0, requests - 1))))
        split = draw(st.integers(0, len(cold)))
        for part in (cold[:split], cold[split:]):
            if not part:
                continue
            starts = np.asarray([draw(st.integers(0, 20)) * 0.5 for _ in part])
            runtime = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))
            batches.append(
                (
                    np.asarray(part, dtype=np.intp),
                    starts,
                    starts + (penalty + runtime),
                    penalty,
                    draw(VALUES),
                    k,
                )
            )
    return requests, batches


@settings(max_examples=300, deadline=None)
@given(cold_batches())
@example(
    # One request, cold in three functions; the third starts first, so the
    # start order adds 0.1, 2.3, 0.2 where topological order adds 0.1, 0.2,
    # 2.3 — and (0.1 + 2.3) + 0.2 != (0.1 + 0.2) + 2.3.  The ends keep that
    # order.
    (
        1,
        [
            (np.array([0]), np.array([0.0]), np.array([0.5]), 0.1, 0.1, 0),
            (np.array([0]), np.array([5.0]), np.array([6.0]), 0.2, 0.2, 1),
            (np.array([0]), np.array([1.0]), np.array([4.0]), 2.3, 2.3, 2),
        ],
    )
)
@example(
    # The same starts, but the second function ends first: the penalties
    # add 0.1, 2.3, 0.2 and the billing deltas 0.1, 0.2, 2.3.
    (
        1,
        [
            (np.array([0]), np.array([0.0]), np.array([0.5]), 0.1, 0.1, 0),
            (np.array([0]), np.array([5.0]), np.array([5.5]), 0.2, 0.2, 1),
            (np.array([0]), np.array([1.0]), np.array([9.0]), 2.3, 2.3, 2),
        ],
    )
)
def test_three_or_more_cold_starts_add_in_event_order(case):
    requests, batches = case
    cold_count = np.zeros(requests, dtype=np.int64)
    cold_seconds = np.zeros(requests, dtype=np.float64)
    extra_cost = np.zeros(requests, dtype=np.float64)
    events = {r: [] for r in range(requests)}
    for indices, starts, ends, penalty, delta, k in batches:
        cold_count[indices] += 1
        cold_seconds[indices] += penalty
        extra_cost[indices] += delta
        for r, start, end in zip(indices.tolist(), starts.tolist(), ends.tolist()):
            events[r].append((start, end, k, penalty, delta))
    expected_seconds = cold_seconds.tolist()
    expected_cost = extra_cost.tolist()
    for r, request_events in events.items():
        if len(request_events) < 3:
            continue
        seconds = cost = 0.0
        for _, _, _, penalty, _ in sorted(request_events, key=lambda e: (e[0], e[2])):
            seconds += penalty
        for _, _, _, _, delta in sorted(request_events, key=lambda e: (e[1], e[0], e[2])):
            cost += delta
        expected_seconds[r], expected_cost[r] = seconds, cost

    _fix_multi_cold(cold_count, cold_seconds, extra_cost, batches)

    assert cold_seconds.tolist() == expected_seconds
    assert extra_cost.tolist() == expected_cost

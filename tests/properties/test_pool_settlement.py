"""Property tests for the batched engine's single-configuration pool sweep.

``_settle_loop`` replays a warm-pool bucket acquisition by acquisition and
is the reference.  ``_settle_counts`` settles the same bucket from release
counts in blocks, and returns ``None`` where it cannot be exact.  Wherever it
settles, its cold flags, end times and cold/warm/eviction counts must equal
the loop's exactly; ``_settle_sweep``, which the engine calls, must always
equal the loop.

Starts and runtimes sit on a coarse half-second grid, so ties between starts,
and between a release and a later start, are common; those ties are where a
``side="left"`` count or a ``<=`` block bound would go wrong.
"""

import math

import numpy as np
from hypothesis import event, example, given, settings, strategies as st

from repro.execution.serving_vectorized import (
    _count_blocks,
    _settle_counts,
    _settle_loop,
    _settle_sweep,
)

HALF_STEPS = st.integers(min_value=1, max_value=12)


@st.composite
def buckets(draw):
    """Sorted starts, owners, runtimes, OOM flags, penalty, cap, keep-alive."""
    participants = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        runtimes = [draw(HALF_STEPS) * 0.5] * participants
    else:
        runtimes = [draw(HALF_STEPS) * 0.5 for _ in range(participants)]
    oom = [draw(st.integers(0, 4)) == 0 for _ in range(participants)]
    ticks = draw(st.lists(st.integers(min_value=0, max_value=80), min_size=1, max_size=120))
    # Repeat some starts outright, so ties do not depend on luck.
    ticks += draw(st.lists(st.sampled_from(ticks), max_size=10))
    start = np.sort(np.asarray(ticks, dtype=np.float64) * 0.5)
    owner = np.asarray(
        draw(
            st.lists(
                st.integers(0, participants - 1),
                min_size=start.size,
                max_size=start.size,
            )
        ),
        dtype=np.intp,
    )
    penalty = draw(st.integers(min_value=0, max_value=6)) * 0.5
    capacity = draw(st.sampled_from([1, 2, 16, math.inf]))
    keep_alive = draw(st.sampled_from([0.0, 5.0, 600.0, math.inf]))
    return start, owner, runtimes, oom, penalty, capacity, keep_alive


def assert_same(settled, reference):
    cold, ends, *counts = settled
    ref_cold, ref_ends, *ref_counts = reference
    assert cold.dtype == bool and ends.dtype == np.float64
    assert np.array_equal(cold, ref_cold)
    assert np.array_equal(ends, ref_ends)
    assert counts == ref_counts


def release_tie(penalty):
    # The first acquisition's warm release lands exactly on the second start.
    start = np.array([0.0, 1.0])
    return start, np.zeros(2, dtype=np.intp), [1.0], [False], penalty, 16, 600.0


@given(buckets())
@example(release_tie(0.0))  # the release flushes first: warm
@example(release_tie(0.5))  # the cold release comes later: cold
@settings(max_examples=400, deadline=None)
def test_counts_equal_the_loop_wherever_they_settle(bucket):
    start, owner, runtimes, oom, penalty, capacity, keep_alive = bucket
    reference = _settle_loop(*bucket)
    bounds = _count_blocks(start, runtimes, oom, start.size)
    counted = None if bounds is None else _settle_counts(*bucket, bounds)
    event("settled by counts" if counted is not None else "left to the loop")
    if counted is not None:
        assert_same(counted, reference)
    assert_same(_settle_sweep(*bucket), reference)


def test_counts_settle_a_dense_bucket_through_the_sweep():
    # 3,000 acquisitions in 20 s against runtimes of 2-3 s: blocks of
    # several hundred acquisitions, a binding cap and no expiry.
    rng = np.random.default_rng(717)
    start = np.sort(np.round(rng.uniform(0.0, 20.0, 3000), 2))
    owner = rng.integers(0, 2, start.size).astype(np.intp)
    bucket = (start, owner, [2.0, 3.0], [False, False], 1.5, 16, 600.0)
    bounds = _count_blocks(start, [2.0, 3.0], [False, False], start.size)
    assert bounds is not None and len(bounds) - 1 <= start.size // 200
    counted = _settle_counts(*bucket, bounds)
    assert counted is not None
    reference = _settle_loop(*bucket)
    assert reference[4] > 0  # the cap evicts
    assert_same(counted, reference)
    assert_same(_settle_sweep(*bucket), reference)


def test_expiry_leaves_the_bucket_to_the_loop():
    # Two bursts 100 s apart: the first burst's containers idle past a 30 s
    # keep-alive, which the counts cannot see.
    start = np.concatenate((np.arange(0.0, 5.0, 0.01), np.arange(105.0, 110.0, 0.01)))
    owner = np.zeros(start.size, dtype=np.intp)
    bucket = (start, owner, [1.0], [False], 0.5, math.inf, 30.0)
    bounds = _count_blocks(start, [1.0], [False], start.size)
    assert _settle_counts(*bucket, bounds) is None
    reference = _settle_loop(*bucket)
    assert reference[4] > 0  # containers expired
    assert_same(_settle_sweep(*bucket), reference)

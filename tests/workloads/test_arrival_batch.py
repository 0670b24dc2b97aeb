"""Property-based scalar vs. batched arrival-generation parity.

The batched serving engine's first stage is vectorized arrival generation:
every arrival process grows an ``arrival_times_array`` twin of its scalar
``arrival_times`` loop, and :meth:`TrafficModel.generate_batch` /
:meth:`DriftingTrafficModel.generate_batch` wrap them into columnar
streams.  The contract is strict — under the same :class:`RngStream` the
array path must produce *element-wise identical* timestamps, scales and
class labels, and must leave the generator in the *same state* (so draws
that follow, e.g. the next phase of a drifting model or an interleaved
hold-time draw, continue identically).  These properties draw random rates,
horizons, seeds and phase layouts and assert exactly that.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.utils.rng import RngStream
from repro.workloads.arrivals import (
    ArrivalBatch,
    ArrivalProcess,
    BurstyArrivals,
    ConstantRateArrivals,
    DiurnalArrivals,
    DriftingTrafficModel,
    PoissonArrivals,
    TraceArrivals,
    TrafficModel,
    TrafficPhase,
    TrafficProfile,
)
from repro.workloads.inputs import InputClass

CLASSES = [
    InputClass("light", scale=0.5, max_scale=0.75),
    InputClass("middle", scale=1.0, max_scale=1.5),
    InputClass("heavy", scale=2.0, max_scale=4.0),
]

seeds = st.integers(min_value=0, max_value=2**31 - 1)
rates = st.floats(min_value=0.05, max_value=20.0, allow_nan=False, allow_infinity=False)
durations = st.floats(
    min_value=1.0, max_value=300.0, allow_nan=False, allow_infinity=False
)


def _assert_twin(process: ArrivalProcess, duration: float, seed: int) -> None:
    """Scalar and array paths agree element-wise AND in post-run rng state."""
    scalar_rng = RngStream(seed, "arrivals")
    array_rng = RngStream(seed, "arrivals")
    scalar = process.arrival_times(duration, scalar_rng)
    batched = process.arrival_times_array(duration, array_rng)
    assert batched.dtype == np.float64
    assert batched.tolist() == scalar
    # Same generator state afterwards: the next draw on either stream is
    # identical (interleaved consumers see no difference).
    assert scalar_rng.generator.random() == array_rng.generator.random()


@given(rate=rates, duration=durations)
@settings(max_examples=50, deadline=None)
def test_constant_batch_matches_scalar(rate, duration):
    _assert_twin(ConstantRateArrivals(rate), duration, seed=0)


@given(rate=rates, duration=durations, seed=seeds)
@settings(max_examples=50, deadline=None)
def test_poisson_batch_matches_scalar(rate, duration, seed):
    _assert_twin(PoissonArrivals(rate), duration, seed)


@given(
    rate=rates,
    duration=durations,
    seed=seeds,
    multiplier=st.floats(min_value=1.0, max_value=10.0),
    calm=st.floats(min_value=5.0, max_value=120.0),
    burst=st.floats(min_value=5.0, max_value=60.0),
)
@settings(max_examples=50, deadline=None)
def test_bursty_batch_matches_scalar(rate, duration, seed, multiplier, calm, burst):
    process = BurstyArrivals(
        rate,
        burst_multiplier=multiplier,
        mean_calm_seconds=calm,
        mean_burst_seconds=burst,
    )
    _assert_twin(process, duration, seed)


@given(
    rate=rates,
    duration=durations,
    seed=seeds,
    amplitude=st.floats(min_value=0.0, max_value=0.95),
    period=st.floats(min_value=60.0, max_value=86400.0),
)
@settings(max_examples=50, deadline=None)
def test_diurnal_batch_matches_scalar(rate, duration, seed, amplitude, period):
    process = DiurnalArrivals(rate, amplitude=amplitude, period_seconds=period)
    _assert_twin(process, duration, seed)


@given(
    duration=durations,
    gaps=st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=80),
)
@settings(max_examples=50, deadline=None)
def test_trace_batch_matches_scalar(duration, gaps):
    times = np.cumsum(gaps).tolist()
    _assert_twin(TraceArrivals(times), duration, seed=0)


@given(rate=rates, duration=durations, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_traffic_model_batch_matches_scalar(rate, duration, seed):
    """generate_batch().to_requests() == generate() including the class mix."""
    profile = TrafficProfile(
        arrival="poisson",
        rate_rps=rate,
        class_weights={"light": 2.0, "middle": 1.0, "heavy": 1.0},
    )
    model = TrafficModel.from_profile(profile, classes=CLASSES)
    scalar = model.generate(duration, RngStream(seed, "traffic"))
    batch = model.generate_batch(duration, RngStream(seed, "traffic"))
    assert len(batch) == len(scalar)
    assert batch.to_requests() == scalar
    assert ArrivalBatch.from_requests(scalar).to_requests() == scalar
    counts = {}
    for request in scalar:
        counts[request.input_class] = counts.get(request.input_class, 0) + 1
    # First-arrival order, as counting the records gives.
    assert list(batch.class_counts().items()) == list(counts.items())


@given(
    seed=seeds,
    duration=st.floats(min_value=50.0, max_value=400.0),
    boundary=st.floats(min_value=10.0, max_value=40.0),
    second_rate=rates,
)
@settings(max_examples=40, deadline=None)
def test_drifting_batch_matches_scalar_across_phases(
    seed, duration, boundary, second_rate
):
    """Phase boundaries included: each phase's child stream continues exactly."""
    model = DriftingTrafficModel(
        [
            TrafficPhase(
                "calm",
                0.0,
                TrafficProfile(
                    arrival="poisson",
                    rate_rps=0.5,
                    class_weights={"light": 3.0, "middle": 1.0, "heavy": 1.0},
                ),
            ),
            TrafficPhase(
                "shift",
                boundary,
                TrafficProfile(
                    arrival="bursty",
                    rate_rps=second_rate,
                    class_weights={"light": 1.0, "middle": 1.0, "heavy": 3.0},
                ),
            ),
            TrafficPhase(
                "late",
                2.0 * boundary,
                TrafficProfile(arrival="constant", rate_rps=0.25),
            ),
        ],
        classes=CLASSES,
    )
    scalar = model.generate(duration, RngStream(seed, "drift"))
    batch = model.generate_batch(duration, RngStream(seed, "drift"))
    assert batch.to_requests() == scalar
    # Arrivals stay non-decreasing across the concatenated phase segments.
    times = batch.times
    assert bool(np.all(times[1:] >= times[:-1]))


@given(rate=rates, seed=seeds, duration=durations)
@settings(max_examples=30, deadline=None)
def test_batch_state_supports_continuation(rate, seed, duration):
    """After a batch, *subsequent* scalar draws match the all-scalar run.

    This is the property that makes interleaved consumers (bursty state
    machines, drifting phases) safe: the array path may draw in chunks but
    must rewind to the exact per-element draw count.
    """
    process = PoissonArrivals(rate)
    scalar_rng = RngStream(seed, "cont")
    array_rng = RngStream(seed, "cont")
    process.arrival_times(duration, scalar_rng)
    process.arrival_times_array(duration, array_rng)
    follow_scalar = [scalar_rng.exponential(1.0 / rate) for _ in range(8)]
    follow_array = [array_rng.exponential(1.0 / rate) for _ in range(8)]
    assert follow_array == follow_scalar


def test_single_class_batch_needs_no_class_rng():
    """One-class mixes draw nothing for classes (matching the scalar path)."""
    model = TrafficModel(ConstantRateArrivals(1.0))
    batch = model.generate_batch(10.0)
    assert batch.to_requests() == model.generate(10.0)
    assert set(batch.class_ids.tolist()) <= {0}


def test_selected_rows_are_the_same_records():
    """``to_requests(rows)`` reads the rows a slice or an index array
    selects, in its order."""
    profile = TrafficProfile(
        arrival="poisson",
        rate_rps=2.0,
        class_weights={"light": 1.0, "middle": 1.0, "heavy": 1.0},
    )
    model = TrafficModel.from_profile(profile, classes=CLASSES)
    batch = model.generate_batch(30.0, RngStream(7, "traffic"))
    records = batch.to_requests()
    assert len(records) > 10
    rows = np.asarray([5, 0, 3, 3], dtype=np.intp)
    assert batch.to_requests(rows) == [records[i] for i in rows]
    assert batch.to_requests(slice(2, 6)) == records[2:6]
    assert batch.to_requests(np.empty(0, dtype=np.intp)) == []


def test_multi_class_batch_requires_rng():
    model = TrafficModel(ConstantRateArrivals(1.0), classes=CLASSES)
    with pytest.raises(ValueError, match="requires an rng"):
        model.generate_batch(10.0)

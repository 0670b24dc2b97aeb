"""Tests for the arrival processes and traffic models."""

import json

import pytest

from repro.utils.rng import RngStream
from repro.workloads.arrivals import (
    ARRIVAL_NAMES,
    BurstyArrivals,
    ConstantRateArrivals,
    DiurnalArrivals,
    DriftingTrafficModel,
    PoissonArrivals,
    ReplayArrivals,
    TraceArrivals,
    TrafficModel,
    TrafficPhase,
    TrafficProfile,
    build_arrival_process,
    load_invocation_counts,
    load_trace_times,
    merge_request_streams,
)
from repro.workloads.inputs import VIDEO_INPUT_CLASSES
from repro.workloads.registry import get_workload


class TestConstantRate:
    def test_evenly_spaced_within_horizon(self):
        times = ConstantRateArrivals(2.0).arrival_times(5.0)
        assert times == [i * 0.5 for i in range(10)]
        assert all(t < 5.0 for t in times)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ConstantRateArrivals(0.0)


class TestPoisson:
    def test_rate_is_roughly_honoured(self):
        times = PoissonArrivals(10.0).arrival_times(1000.0, RngStream(1, "t"))
        assert 8000 < len(times) < 12000
        assert all(0 <= t < 1000.0 for t in times)
        assert times == sorted(times)

    def test_requires_rng(self):
        with pytest.raises(ValueError):
            PoissonArrivals(1.0).arrival_times(10.0)

    def test_deterministic_under_seed(self):
        a = PoissonArrivals(5.0).arrival_times(100.0, RngStream(7, "t"))
        b = PoissonArrivals(5.0).arrival_times(100.0, RngStream(7, "t"))
        assert a == b


class TestBursty:
    def test_bursts_raise_the_rate(self):
        calm_only = BurstyArrivals(1.0, burst_multiplier=1.0).arrival_times(
            2000.0, RngStream(3, "t")
        )
        bursting = BurstyArrivals(1.0, burst_multiplier=8.0).arrival_times(
            2000.0, RngStream(3, "t")
        )
        assert len(bursting) > len(calm_only)
        assert all(0 <= t < 2000.0 for t in bursting)
        assert bursting == sorted(bursting)

    def test_rejects_sub_unity_multiplier(self):
        with pytest.raises(ValueError):
            BurstyArrivals(1.0, burst_multiplier=0.5)


class TestDiurnal:
    def test_mean_rate_is_roughly_honoured(self):
        process = DiurnalArrivals(2.0, amplitude=0.8, period_seconds=1000.0)
        times = process.arrival_times(5000.0, RngStream(5, "t"))
        # Five full periods: the sinusoid averages out to the mean rate.
        assert 8000 < len(times) < 12000

    def test_peak_trough_asymmetry(self):
        process = DiurnalArrivals(1.0, amplitude=0.9, period_seconds=4000.0)
        times = process.arrival_times(4000.0, RngStream(9, "t"))
        rising = [t for t in times if t < 2000.0]  # sin > 0 half-period
        falling = [t for t in times if t >= 2000.0]
        assert len(rising) > len(falling)

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ValueError):
            DiurnalArrivals(1.0, amplitude=1.0)


class TestTraceReplay:
    def test_clips_to_duration(self):
        process = TraceArrivals([0.0, 1.0, 2.5, 9.0])
        assert process.arrival_times(3.0) == [0.0, 1.0, 2.5]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            TraceArrivals([1.0, 0.5])

    def test_load_trace_times(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps([0.5, 1.5, 2.0]))
        assert load_trace_times(str(path)) == [0.5, 1.5, 2.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"not": "a list"}))
        with pytest.raises(ValueError):
            load_trace_times(str(bad))


class TestFactory:
    @pytest.mark.parametrize(
        "name", [n for n in ARRIVAL_NAMES if n not in ("trace", "replay")]
    )
    def test_builds_every_named_process(self, name):
        process = build_arrival_process(TrafficProfile(arrival=name, rate_rps=1.0))
        assert process.name == name

    def test_replay_needs_counts(self):
        with pytest.raises(ValueError):
            build_arrival_process(TrafficProfile(arrival="replay"))
        process = build_arrival_process(
            TrafficProfile(arrival="replay", trace_counts=[2, 0, 3])
        )
        assert process.name == "replay"

    def test_trace_needs_times(self):
        with pytest.raises(ValueError):
            build_arrival_process(TrafficProfile(arrival="trace"))
        process = build_arrival_process(
            TrafficProfile(arrival="trace", trace_times=[0.0, 1.0])
        )
        assert process.name == "trace"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_arrival_process(TrafficProfile(arrival="tidal"))


class TestTrafficModel:
    def test_single_class_needs_no_rng_for_classes(self):
        model = TrafficModel(ConstantRateArrivals(1.0))
        requests = model.generate(10.0)
        assert len(requests) == 10
        assert all(r.input_class == "default" for r in requests)

    def test_class_mix_follows_weights(self):
        model = TrafficModel(
            ConstantRateArrivals(10.0),
            classes=VIDEO_INPUT_CLASSES,
            weights={"light": 0.8, "middle": 0.2, "heavy": 0.0},
        )
        requests = model.generate(500.0, RngStream(13, "t"))
        counts = {}
        for request in requests:
            counts[request.input_class] = counts.get(request.input_class, 0) + 1
        assert counts.get("heavy", 0) == 0
        assert counts["light"] > counts["middle"]

    def test_mixing_without_rng_rejected(self):
        model = TrafficModel(ConstantRateArrivals(1.0), classes=VIDEO_INPUT_CLASSES)
        with pytest.raises(ValueError):
            model.generate(10.0)

    def test_generation_is_deterministic(self):
        model = TrafficModel(PoissonArrivals(2.0), classes=VIDEO_INPUT_CLASSES)
        a = model.generate(200.0, RngStream(2025, "traffic"))
        b = model.generate(200.0, RngStream(2025, "traffic"))
        assert [(r.arrival_time, r.input_class) for r in a] == [
            (r.arrival_time, r.input_class) for r in b
        ]

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ValueError):
            TrafficModel(
                ConstantRateArrivals(1.0),
                classes=VIDEO_INPUT_CLASSES,
                weights={"light": 0.0},
            )


class TestWorkloadDefaults:
    def test_every_workload_has_a_traffic_profile(self):
        for name in ("chatbot", "ml-pipeline", "video-analysis"):
            workload = get_workload(name)
            model = workload.traffic_model()
            requests = model.generate(50.0, RngStream(1, "t"))
            assert all(r.arrival_time < 50.0 for r in requests)

    def test_video_mixes_input_classes(self):
        workload = get_workload("video-analysis")
        model = workload.traffic_model(arrival="constant", rate_rps=5.0)
        requests = model.generate(200.0, RngStream(4, "t"))
        assert {r.input_class for r in requests} == {"light", "middle", "heavy"}

    def test_overrides_change_process_and_rate(self):
        workload = get_workload("chatbot")
        model = workload.traffic_model(arrival="constant", rate_rps=3.0)
        assert model.process.name == "constant"
        assert len(model.generate(10.0)) == 30


class TestDriftingTrafficModel:
    def phases(self):
        return [
            TrafficPhase(
                "morning", 0.0,
                TrafficProfile(
                    arrival="constant", rate_rps=1.0,
                    class_weights={"light": 1.0},
                ),
            ),
            TrafficPhase(
                "evening", 10.0,
                TrafficProfile(
                    arrival="constant", rate_rps=3.0,
                    class_weights={"heavy": 1.0},
                ),
            ),
        ]

    def test_requires_phases_and_increasing_starts(self):
        with pytest.raises(ValueError):
            DriftingTrafficModel([])
        with pytest.raises(ValueError):
            DriftingTrafficModel(
                [
                    TrafficPhase("a", 5.0, TrafficProfile()),
                    TrafficPhase("b", 10.0, TrafficProfile()),
                ]
            )  # first phase must start at 0
        with pytest.raises(ValueError):
            DriftingTrafficModel(
                [
                    TrafficPhase("a", 0.0, TrafficProfile()),
                    TrafficPhase("b", 0.0, TrafficProfile()),
                ]
            )

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_phase_start_must_be_non_negative_and_finite(self, start):
        # A NaN start used to build, and passed the model's increasing-starts
        # check (every comparison with NaN is False).
        with pytest.raises(ValueError, match="start_seconds"):
            TrafficPhase("b", start, TrafficProfile())

    def test_phase_at_and_bounds(self):
        model = DriftingTrafficModel(self.phases())
        assert model.phase_at(0.0).name == "morning"
        assert model.phase_at(9.9).name == "morning"
        assert model.phase_at(10.0).name == "evening"
        bounds = model.phase_bounds(25.0)
        assert [(p.name, a, b) for p, a, b in bounds] == [
            ("morning", 0.0, 10.0), ("evening", 10.0, 25.0)
        ]
        # A horizon inside phase 1 truncates it and drops later phases.
        assert model.phase_bounds(5.0)[-1][2] == 5.0

    def test_each_phase_uses_its_own_rate_and_mix(self):
        model = DriftingTrafficModel(self.phases(), classes=VIDEO_INPUT_CLASSES)
        requests = model.generate(20.0, RngStream(7, "drift"))
        early = [r for r in requests if r.arrival_time < 10.0]
        late = [r for r in requests if r.arrival_time >= 10.0]
        assert len(early) == 10  # 1 rps for 10 s
        assert len(late) == 30  # 3 rps for 10 s
        assert {r.input_class for r in early} == {"light"}
        assert {r.input_class for r in late} == {"heavy"}
        assert all(
            a.arrival_time <= b.arrival_time
            for a, b in zip(requests, requests[1:])
        )

    def test_generation_is_deterministic_and_phase_isolated(self):
        phases = [
            TrafficPhase(
                "a", 0.0, TrafficProfile(arrival="poisson", rate_rps=2.0)
            ),
            TrafficPhase(
                "b", 20.0, TrafficProfile(arrival="poisson", rate_rps=1.0)
            ),
        ]
        model = DriftingTrafficModel(phases)
        first = model.generate(40.0, RngStream(11, "drift"))
        second = model.generate(40.0, RngStream(11, "drift"))
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]
        # Editing a later phase never perturbs an earlier one (child rngs
        # are keyed by phase index).
        edited = DriftingTrafficModel(
            [phases[0], TrafficPhase("b", 20.0, TrafficProfile(arrival="poisson", rate_rps=5.0))]
        )
        reedited = edited.generate(40.0, RngStream(11, "drift"))
        assert [r.arrival_time for r in reedited if r.arrival_time < 20.0] == [
            r.arrival_time for r in first if r.arrival_time < 20.0
        ]

    def test_describe_names_every_phase(self):
        text = DriftingTrafficModel(self.phases()).describe()
        assert "morning" in text and "evening" in text and "drifting" in text


class TestMergeRequestStreams:
    def test_time_ordered_with_tenant_tags(self):
        from repro.execution.events import RequestArrival

        streams = {
            "a": [RequestArrival(arrival_time=1.0), RequestArrival(arrival_time=5.0)],
            "b": [RequestArrival(arrival_time=2.0), RequestArrival(arrival_time=4.0)],
        }
        merged = merge_request_streams(streams)
        assert [t for t, _ in merged] == ["a", "b", "b", "a"]
        times = [r.arrival_time for _, r in merged]
        assert times == sorted(times)

    def test_ties_break_by_stream_insertion_order(self):
        from repro.execution.events import RequestArrival

        tied = {
            "late": [RequestArrival(arrival_time=3.0)],
            "early": [RequestArrival(arrival_time=3.0)],
        }
        assert [t for t, _ in merge_request_streams(tied)] == ["late", "early"]

    def test_empty_streams_merge_to_empty(self):
        assert merge_request_streams({}) == []
        assert merge_request_streams({"a": []}) == []


class TestNonFiniteTraceValidation:
    def test_constructor_rejects_nan_and_infinity(self):
        for bad in ([float("nan"), 1.0], [0.0, float("inf")], [float("-inf")]):
            with pytest.raises(ValueError, match="finite"):
                TraceArrivals(bad)

    def test_loader_rejects_json_nan_literals(self, tmp_path):
        # json.load happily parses the NaN/Infinity literals, and NaN fails
        # every `<` comparison, so it used to slip past the monotonicity and
        # negativity validators.
        for literal in ("[0.0, NaN, 2.0]", "[0.0, Infinity]", "[-Infinity, 0.0]"):
            path = tmp_path / "corrupt.json"
            path.write_text(literal)
            with pytest.raises(ValueError, match="finite"):
                load_trace_times(str(path))


NAN, INF = float("nan"), float("inf")
NON_FINITE = [NAN, INF, -INF]

#: Every process that draws its timestamps from a rate, by constructor.
RATE_PROCESSES = [
    ConstantRateArrivals,
    PoissonArrivals,
    BurstyArrivals,
    DiurnalArrivals,
]


class TestNonFiniteProcessValidation:
    """NaN fails every comparison, so `rate <= 0` style checks let it
    through; NaN and the infinities must be rejected where they enter."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("process", RATE_PROCESSES)
    def test_rate_rejected(self, process, bad):
        with pytest.raises(ValueError, match="rate_rps"):
            process(bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "field", ["burst_multiplier", "mean_calm_seconds", "mean_burst_seconds"]
    )
    def test_bursty_multiplier_and_holding_times_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            BurstyArrivals(1.0, **{field: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("field", ["period_seconds", "phase_seconds"])
    def test_diurnal_period_and_phase_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            DiurnalArrivals(1.0, **{field: bad})

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_replay_bin_width_rejected(self, bad):
        with pytest.raises(ValueError, match="bin_seconds"):
            ReplayArrivals([1, 2], bin_seconds=bad)

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "process",
        [
            ConstantRateArrivals(1.0),
            PoissonArrivals(1.0),
            BurstyArrivals(1.0),
            DiurnalArrivals(1.0),
            TraceArrivals([0.0, 1.0]),
            ReplayArrivals([1, 2], bin_seconds=10.0),
        ],
        ids=lambda process: process.name,
    )
    def test_duration_rejected(self, process, bad):
        rng = RngStream(7)
        with pytest.raises(ValueError, match="duration_seconds"):
            process.arrival_times(bad, rng)
        with pytest.raises(ValueError, match="duration_seconds"):
            process.arrival_times_array(bad, rng)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_drifting_model_duration_rejected(self, bad):
        model = DriftingTrafficModel(
            [TrafficPhase("calm", 0.0, TrafficProfile(arrival="poisson", rate_rps=1.0))]
        )
        with pytest.raises(ValueError, match="duration_seconds"):
            model.generate(bad, RngStream(7))
        with pytest.raises(ValueError, match="duration_seconds"):
            model.generate_batch(bad, RngStream(7))


class TestClassWeightValidation:
    def test_unknown_weight_keys_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            TrafficModel(
                ConstantRateArrivals(1.0),
                classes=VIDEO_INPUT_CLASSES,
                weights={"light": 0.5, "hevy": 0.5},  # typo'd class name
            )
        assert "hevy" in str(excinfo.value)

    def test_non_finite_or_negative_weights_rejected(self):
        for bad in ({"light": float("nan")}, {"light": -1.0}):
            with pytest.raises(ValueError):
                TrafficModel(
                    ConstantRateArrivals(1.0),
                    classes=VIDEO_INPUT_CLASSES,
                    weights=bad,
                )

    def test_zero_weight_class_never_emitted(self):
        # "heavy" is the *last* class; the old fallback returned classes[-1]
        # whenever float rounding left the cumulative sum below the draw.
        model = TrafficModel(
            ConstantRateArrivals(50.0),
            classes=VIDEO_INPUT_CLASSES,
            weights={"light": 0.1, "middle": 0.2, "heavy": 0.0},
        )
        requests = model.generate(200.0, RngStream(31, "zero-weight"))
        assert len(requests) == 10000
        assert all(r.input_class != "heavy" for r in requests)

    def test_zero_weight_class_never_emitted_batch(self):
        model = TrafficModel(
            ConstantRateArrivals(50.0),
            classes=VIDEO_INPUT_CLASSES,
            weights={"light": 0.1, "middle": 0.2, "heavy": 0.0},
        )
        batch = model.generate_batch(200.0, RngStream(31, "zero-weight"))
        assert all(r.input_class != "heavy" for r in batch.to_requests())


class TestReplayArrivals:
    def test_round_trips_counts_exactly(self):
        counts = [3, 0, 7, 1, 0, 5]
        process = ReplayArrivals(counts, bin_seconds=60.0)
        times = process.arrival_times(6 * 60.0)
        assert len(times) == sum(counts)
        rebinned = [0] * len(counts)
        for t in times:
            rebinned[int(t // 60.0)] += 1
        assert rebinned == counts

    def test_clips_to_duration(self):
        process = ReplayArrivals([2, 2], bin_seconds=10.0)
        assert process.arrival_times(10.0) == [0.0, 5.0]
        assert process.arrival_times(15.0) == [0.0, 5.0, 10.0]

    def test_scalar_and_array_paths_identical(self):
        process = ReplayArrivals([4, 0, 9, 2], bin_seconds=30.0)
        scalar = process.arrival_times(100.0)
        array = process.arrival_times_array(100.0)
        assert scalar == list(array)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReplayArrivals([])
        with pytest.raises(ValueError):
            ReplayArrivals([0, 0])
        with pytest.raises(ValueError):
            ReplayArrivals([1.5])
        with pytest.raises(ValueError):
            ReplayArrivals([-1])
        with pytest.raises(ValueError):
            ReplayArrivals([float("nan")])
        with pytest.raises(ValueError):
            ReplayArrivals([1], bin_seconds=0.0)

    def test_composes_with_traffic_model(self):
        model = TrafficModel(ReplayArrivals([2, 3], bin_seconds=10.0))
        requests = model.generate(20.0)
        assert len(requests) == 5

    def test_load_invocation_counts_json(self, tmp_path):
        flat = tmp_path / "flat.json"
        flat.write_text(json.dumps([1, 2, 3]))
        assert load_invocation_counts(str(flat)) == [1.0, 2.0, 3.0]
        keyed = tmp_path / "keyed.json"
        keyed.write_text(json.dumps({"counts": [4, 0], "app": "demo"}))
        assert load_invocation_counts(str(keyed)) == [4.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"no": "counts"}))
        with pytest.raises(ValueError):
            load_invocation_counts(str(bad))

    def test_load_invocation_counts_csv_sums_functions(self, tmp_path):
        path = tmp_path / "azure.csv"
        path.write_text(
            "HashFunction,Trigger,1,2,3\n"
            "f1,http,1,0,2\n"
            "f2,timer,0,5,1\n"
        )
        # The Azure header labels minutes with bare numbers (1,2,3); the
        # loader must recognise and skip it, not sum it into the totals.
        assert load_invocation_counts(str(path)) == [1.0, 5.0, 3.0]

    def test_load_rejects_negative_counts(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps([1, -2]))
        with pytest.raises(ValueError):
            load_invocation_counts(str(path))


class TestReplayRoundTripProperty:
    from hypothesis import given, settings as hsettings, strategies as st

    @given(
        counts=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=12),
        bin_seconds=st.sampled_from([1.0, 7.5, 60.0]),
    )
    @hsettings(max_examples=60, deadline=None)
    def test_rebinning_recovers_counts(self, counts, bin_seconds):
        from hypothesis import assume

        assume(any(counts))
        process = ReplayArrivals(counts, bin_seconds=bin_seconds)
        horizon = len(counts) * bin_seconds
        times = process.arrival_times(horizon)
        assert len(times) == sum(counts) == process.total_invocations
        rebinned = [0] * len(counts)
        for t in times:
            rebinned[int(t // bin_seconds)] += 1
        assert rebinned == counts
        assert list(process.arrival_times_array(horizon)) == times

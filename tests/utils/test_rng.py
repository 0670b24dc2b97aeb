"""Tests for the seeded RNG utilities."""

import pickle
import warnings

import numpy as np
import pytest

import repro.utils.rng as rng_module
from repro.utils.rng import RngStream, derive_seed, first_randoms, spawn_streams


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_labels_change_seed(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_base_seed_changes_seed(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_within_modulus(self):
        for label in range(50):
            seed = derive_seed(123, label)
            assert 0 <= seed < 2**63 - 1


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(42).uniform()
        b = RngStream(42).uniform()
        assert a == b

    def test_different_seed_different_sequence(self):
        assert RngStream(1).uniform() != RngStream(2).uniform()

    def test_child_streams_independent_of_parent_state(self):
        parent = RngStream(9, "root")
        child_before = parent.child("x").uniform()
        parent.uniform()  # advance the parent
        child_after = parent.child("x").uniform()
        assert child_before == child_after

    def test_child_label_composition(self):
        child = RngStream(3, "root").child("sub", 4)
        assert child.label == "root/sub/4"

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RngStream(0).choice([])

    def test_choice_returns_member(self):
        options = ["a", "b", "c"]
        assert RngStream(0).choice(options) in options

    def test_integers_in_range(self):
        stream = RngStream(5)
        for _ in range(100):
            assert 0 <= stream.integers(0, 10) < 10

    def test_shuffle_preserves_elements(self):
        items = list(range(20))
        shuffled = RngStream(11).shuffle(items)
        assert sorted(shuffled) == items
        assert items == list(range(20))  # original untouched

    def test_multiplicative_noise_zero_cv_is_one(self):
        assert RngStream(0).multiplicative_noise(0.0) == 1.0

    def test_multiplicative_noise_negative_cv_raises(self):
        with pytest.raises(ValueError):
            RngStream(0).multiplicative_noise(-0.1)

    def test_multiplicative_noise_mean_close_to_one(self):
        stream = RngStream(123)
        samples = [stream.multiplicative_noise(0.1) for _ in range(4000)]
        assert np.mean(samples) == pytest.approx(1.0, rel=0.02)
        assert all(s > 0 for s in samples)

    def test_normal_and_lognormal_types(self):
        stream = RngStream(77)
        assert isinstance(stream.normal(), float)
        assert stream.lognormal() > 0


class TestLazyGenerator:
    """A stream builds its generator on first draw; draws must not notice."""

    def _chain(self) -> RngStream:
        return RngStream(7, "root").child("request", 3).child("f")

    def _reference(self) -> np.random.Generator:
        seed = derive_seed(derive_seed(7, "root", "request", 3), "root/request/3", "f")
        return np.random.default_rng(seed)

    def test_seed_and_label_of_chained_children(self):
        stream = self._chain()
        assert stream.seed == derive_seed(
            derive_seed(7, "root", "request", 3), "root/request/3", "f"
        )
        assert stream.label == "root/request/3/f"

    def test_scalar_and_array_draws_match_default_rng(self):
        stream, reference = self._chain(), self._reference()
        assert stream.uniform(2.0, 5.0) == float(reference.uniform(2.0, 5.0))
        assert stream.normal(1.0, 0.5) == float(reference.normal(1.0, 0.5))
        assert stream.integers(0, 100) == int(reference.integers(0, 100))
        np.testing.assert_array_equal(
            stream.generator.uniform(0.0, 1.0, size=16),
            reference.uniform(0.0, 1.0, size=16),
        )
        assert stream.exponential(3.0) == float(reference.exponential(3.0))

    def test_no_generator_is_built_until_the_first_draw(self, monkeypatch):
        built = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed: built.append(seed) or default_rng(seed)
        )
        stream = self._chain()
        assert stream.multiplicative_noise(0.0) == 1.0  # a CV of 0 draws nothing
        assert built == []
        stream.uniform()
        stream.uniform()
        assert built == [stream.seed]

    def test_pickle_round_trip_before_first_draw(self):
        restored = pickle.loads(pickle.dumps(self._chain()))
        assert (restored.seed, restored.label) == (self._chain().seed, "root/request/3/f")
        np.testing.assert_array_equal(
            restored.generator.normal(size=8), self._reference().normal(size=8)
        )

    def test_pickle_round_trip_after_first_draw_keeps_the_position(self):
        stream, reference = self._chain(), self._reference()
        assert stream.uniform() == float(reference.uniform())
        restored = pickle.loads(pickle.dumps(stream))
        expected = reference.uniform(size=4)
        np.testing.assert_array_equal(restored.generator.uniform(size=4), expected)
        np.testing.assert_array_equal(stream.generator.uniform(size=4), expected)


class TestLazyChild:
    def test_a_child_hashes_nothing_until_its_seed_or_label_is_used(self, monkeypatch):
        calls = []
        real = rng_module.derive_seed
        monkeypatch.setattr(
            rng_module, "derive_seed", lambda *args: calls.append(args) or real(*args)
        )
        parent = RngStream(7, "root")
        children = [parent.child("request", index) for index in range(100)]
        assert calls == []
        assert children[3].label == "root/request/3"
        assert children[3].seed == real(7, "root", "request", 3)
        assert len(calls) == 1

    def test_pickled_child_of_a_drawn_parent_keeps_its_seed(self):
        parent = RngStream(5, "root")
        parent.uniform()
        child = parent.child("x", 1)
        restored = pickle.loads(pickle.dumps(child))
        assert (restored.seed, restored.label) == (derive_seed(5, "root", "x", 1), "root/x/1")


class TestChildSeeds:
    def test_bulk_seeds_equal_each_childs_seed(self):
        stream = RngStream(2025, "faults").child("serve", 3)
        keys = [
            ("invocation", index, 0, name, attempt)
            for index in (0, 1, 511, 10**6)
            for name in ("split", "video-analysis", "f\u00e9")
            for attempt in (1, 2, 1001)
        ] + [("backoff", 4, 0, "split", 1), (0,), ("x",), ()]
        assert stream.child_seeds(keys) == [stream.child(*key).seed for key in keys]

    def test_shared_prefixes_equal_each_childs_seed(self):
        stream = RngStream(2025, "faults").child("serve", 3)
        prefixes = [("invocation", index, 0) for index in (0, 1, 511, 10**6)]
        prefixes += [("backoff", 4, 0), (), ("f\u00e9",)]
        suffixes = [
            (name, attempt)
            for name in ("split", "video-analysis", "f\u00e9")
            for attempt in (1, 2, 1001)
        ] + [(), (0,), ("x", "y", 3)]
        expected = [
            stream.child(*prefix, *suffix).seed for prefix in prefixes for suffix in suffixes
        ]
        assert stream.child_seeds(prefixes, suffixes) == expected
        # A prefix with its suffix is the same key however it is split.
        assert stream.child_seeds([("invocation", 1)], [(0, "split", 2)]) == stream.child_seeds(
            [("invocation", 1, 0, "split", 2)]
        )

    def test_no_keys_no_seeds(self):
        assert RngStream(1).child_seeds([]) == []
        assert RngStream(1).child_seeds([("a",)], []) == []


#: Seeds at the edges of SeedSequence's one- and two-word entropy and of
#: the uint64 range.
BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 2, 2**63 - 1, 2**64 - 1]


class TestFirstRandoms:
    """The array kernel against NumPy's own generators, bit for bit."""

    @staticmethod
    def _reference(seeds, count):
        return np.array(
            [np.random.default_rng(seed).random(count) for seed in seeds]
        ).reshape(len(seeds), count)

    def test_boundary_seeds(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drawn = first_randoms(BOUNDARY_SEEDS, 3)
        assert drawn.shape == (len(BOUNDARY_SEEDS), 3)
        assert drawn.dtype == np.float64
        np.testing.assert_array_equal(drawn, self._reference(BOUNDARY_SEEDS, 3))

    def test_sample_of_seeds(self):
        sampler = np.random.default_rng(20251017)
        seeds = [int(s) for s in sampler.integers(0, 2**63 - 1, size=8000)]
        seeds += [int(s) for s in sampler.integers(0, 2**32, size=2000)]
        seeds += [int(s) for s in sampler.integers(0, 2**64, size=2000, dtype=np.uint64)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drawn = first_randoms(seeds, 2)
        np.testing.assert_array_equal(drawn, self._reference(seeds, 2))

    def test_derived_seeds_and_empty_input(self):
        seeds = RngStream(717, "faults").child_seeds([("invocation", i) for i in range(50)])
        np.testing.assert_array_equal(first_randoms(seeds), self._reference(seeds, 1))
        assert first_randoms([], 2).shape == (0, 2)


class TestSpawnStreams:
    def test_one_stream_per_label(self):
        streams = spawn_streams(10, ["a", "b", "c"])
        assert len(streams) == 3

    def test_streams_are_distinct(self):
        streams = spawn_streams(10, ["a", "b"])
        assert streams[0].uniform() != streams[1].uniform()

    def test_reproducible_across_calls(self):
        first = spawn_streams(10, ["a", "b"])[0].uniform()
        second = spawn_streams(10, ["a", "b"])[0].uniform()
        assert first == second

"""Tests for the seeded RNG utilities."""

import pickle

import numpy as np
import pytest

from repro.utils.rng import RngStream, derive_seed, spawn_streams


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

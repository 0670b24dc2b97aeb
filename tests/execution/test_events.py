"""Tests for the event loop and the request record."""

import pytest

from repro.execution.events import EventLoop, RequestArrival


class TestEventLoop:
    def test_processes_in_timestamp_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda: seen.append("b"))
        loop.schedule(1.0, lambda: seen.append("a"))
        loop.schedule(9.0, lambda: seen.append("c"))
        processed = loop.run()
        assert processed == 3
        assert seen == ["a", "b", "c"]
        assert loop.now == 9.0

    def test_ties_keep_insertion_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append("first"))
        loop.schedule(1.0, lambda: seen.append("second"))
        loop.run()
        assert seen == ["first", "second"]

    def test_until_limits_processing(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda: seen.append(1))
        loop.schedule(10.0, lambda: seen.append(2))
        loop.run(until=5.0)
        assert seen == [1]
        assert len(loop) == 1
        assert loop.now == 5.0

    def test_schedule_in_past_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule(0.5, lambda: None)

    def test_schedule_after(self):
        loop = EventLoop()
        seen = []
        loop.schedule_after(2.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [2.0]


NAN, INF = float("nan"), float("inf")


class TestRequestArrival:
    def test_validation(self):
        with pytest.raises(ValueError):
            RequestArrival(arrival_time=-1.0)
        with pytest.raises(ValueError):
            RequestArrival(arrival_time=0.0, input_scale=0.0)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_arrival_time_rejected(self, bad):
        with pytest.raises(ValueError, match="arrival_time"):
            RequestArrival(bad)

    @pytest.mark.parametrize("bad", [NAN, INF, -INF])
    def test_non_finite_input_scale_rejected(self, bad):
        with pytest.raises(ValueError, match="input_scale"):
            RequestArrival(1.0, bad)

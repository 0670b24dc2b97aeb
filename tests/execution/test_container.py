"""Tests for the container warm-pool model."""

import math
import random

import pytest

import repro.execution.container as container_module
from repro.execution.container import Container, ContainerPool
from repro.workflow.resources import ResourceConfig


CONFIG = ResourceConfig(vcpu=1, memory_mb=512)
OTHER_CONFIG = ResourceConfig(vcpu=2, memory_mb=512)


class TestContainer:
    def test_record_invocation_moves_last_used(self):
        container = Container(1, "f", CONFIG, created_at=0.0, last_used_at=0.0)
        container.record_invocation(5.0)
        assert container.last_used_at == 5.0
        assert container.invocations == 1

    def test_record_invocation_cannot_go_backwards(self):
        container = Container(1, "f", CONFIG, created_at=0.0, last_used_at=10.0)
        with pytest.raises(ValueError):
            container.record_invocation(5.0)

    def test_warmth_window(self):
        container = Container(1, "f", CONFIG, created_at=0.0, last_used_at=0.0)
        assert container.is_warm_at(100.0, keep_alive_seconds=600.0)
        assert not container.is_warm_at(601.0, keep_alive_seconds=600.0)


class TestContainerPool:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ContainerPool(keep_alive_seconds=-1)
        with pytest.raises(ValueError):
            ContainerPool(max_containers_per_function=0)

    def test_first_acquire_is_cold(self):
        pool = ContainerPool()
        _, cold = pool.acquire("f", CONFIG, timestamp=0.0)
        assert cold
        assert pool.cold_starts == 1

    def test_reuse_within_keep_alive_is_warm(self):
        pool = ContainerPool(keep_alive_seconds=100.0)
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(container, finish_time=10.0)
        _, cold = pool.acquire("f", CONFIG, timestamp=50.0)
        assert not cold
        assert pool.warm_hits == 1

    def test_expired_container_triggers_cold_start(self):
        pool = ContainerPool(keep_alive_seconds=100.0)
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(container, finish_time=10.0)
        _, cold = pool.acquire("f", CONFIG, timestamp=500.0)
        assert cold
        assert pool.evictions >= 1

    def test_different_configuration_is_not_reused(self):
        pool = ContainerPool()
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(container, finish_time=1.0)
        _, cold = pool.acquire("f", OTHER_CONFIG, timestamp=2.0)
        assert cold

    def test_different_function_is_not_reused(self):
        pool = ContainerPool()
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(container, finish_time=1.0)
        _, cold = pool.acquire("g", CONFIG, timestamp=2.0)
        assert cold

    def test_capacity_enforced(self):
        pool = ContainerPool(max_containers_per_function=2)
        for i in range(5):
            container, _ = pool.acquire("f", ResourceConfig(1 + i, 512), timestamp=float(i))
            pool.release(container, finish_time=float(i) + 0.5)
        assert pool.warm_count("f", timestamp=10.0) <= 2

    def test_infinite_cap_keeps_every_container(self):
        pool = ContainerPool(max_containers_per_function=math.inf)
        assert pool.max_containers_per_function == math.inf
        held = [pool.acquire("f", CONFIG, timestamp=0.0)[0] for _ in range(40)]
        for container in held:
            pool.release(container, finish_time=1.0)
        assert pool.warm_count("f", timestamp=2.0) == 40
        assert pool.evictions == 0
        assert pool.resize(4) == 36
        assert pool.resize(math.inf) == 0
        assert pool.max_containers_per_function == math.inf

    @pytest.mark.parametrize("cap", [0, -math.inf, float("nan")])
    def test_rejects_caps_below_one(self, cap):
        with pytest.raises(ValueError, match="max_containers_per_function"):
            ContainerPool(max_containers_per_function=cap)
        with pytest.raises(ValueError, match="max_containers_per_function"):
            ContainerPool().resize(cap)

    def test_warm_count(self):
        pool = ContainerPool(keep_alive_seconds=10.0)
        a, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(a, 1.0)
        assert pool.warm_count("f", timestamp=5.0) == 1
        assert pool.warm_count("f", timestamp=50.0) == 0

    def test_clear(self):
        pool = ContainerPool()
        pool.acquire("f", CONFIG, timestamp=0.0)
        pool.clear()
        _, cold = pool.acquire("f", CONFIG, timestamp=1.0)
        assert cold

    def test_checked_out_container_is_not_shared(self):
        pool = ContainerPool()
        a, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(a, finish_time=1.0)
        # While a is checked out again, a concurrent acquire must cold-start.
        b, cold_b = pool.acquire("f", CONFIG, timestamp=2.0)
        c, cold_c = pool.acquire("f", CONFIG, timestamp=2.0)
        assert not cold_b and cold_c
        assert b.container_id != c.container_id

    def test_release_clamps_non_monotonic_finish_times(self):
        pool = ContainerPool()
        a, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(a, finish_time=10.0)
        b, cold = pool.acquire("f", CONFIG, timestamp=0.0)
        assert not cold and b is a
        # Search loops restart the clock at 0; an earlier finish must not raise.
        pool.release(b, finish_time=5.0)
        assert b.last_used_at == 10.0

    def test_discard_removes_pooled_container(self):
        pool = ContainerPool()
        a, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(a, finish_time=1.0)
        pool.discard(a)
        assert pool.warm_count("f", timestamp=2.0) == 0
        assert pool.evictions == 1
        # Discarding a checked-out (or already removed) container is a no-op.
        b, _ = pool.acquire("f", CONFIG, timestamp=3.0)
        pool.discard(b)
        assert pool.evictions == 1


class TestExpiryHeap:
    """The lazy expiry heap must evict exactly what a full scan would."""

    def test_bulk_expiry_evicts_all_in_one_event(self):
        pool = ContainerPool(keep_alive_seconds=50.0, max_containers_per_function=64)
        for i in range(20):
            container, _ = pool.acquire("f", ResourceConfig(1 + i, 512), timestamp=0.0)
            pool.release(container, finish_time=1.0)
        assert pool.warm_count("f", timestamp=10.0) == 20
        _, cold = pool.acquire("f", CONFIG, timestamp=500.0)
        assert cold
        assert pool.evictions == 20

    def test_re_release_refreshes_expiry(self):
        pool = ContainerPool(keep_alive_seconds=100.0)
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(container, finish_time=10.0)  # would expire at 110
        reused, cold = pool.acquire("f", CONFIG, timestamp=100.0)
        assert not cold and reused is container
        pool.release(reused, finish_time=150.0)  # refreshed: expires at 250
        # The stale (expiry 110) heap entry must not evict the refreshed one.
        _, cold = pool.acquire("f", CONFIG, timestamp=200.0)
        assert not cold
        assert pool.evictions == 0

    def test_discarded_container_not_double_counted_on_expiry(self):
        pool = ContainerPool(keep_alive_seconds=10.0)
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(container, finish_time=1.0)
        pool.discard(container)
        assert pool.evictions == 1
        # Its stale heap entry is skipped silently at the next sweep.
        _, cold = pool.acquire("f", CONFIG, timestamp=100.0)
        assert cold
        assert pool.evictions == 1

    def test_checked_out_container_not_evicted_by_stale_entry(self):
        pool = ContainerPool(keep_alive_seconds=10.0)
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(container, finish_time=1.0)
        checked_out, cold = pool.acquire("f", CONFIG, timestamp=5.0)
        assert not cold
        # Expiry sweep while the container is checked out: nothing to evict.
        _, cold = pool.acquire("f", CONFIG, timestamp=100.0)
        assert cold
        assert pool.evictions == 0
        # Releasing it afterwards restores it as warm from its new last use.
        pool.release(checked_out, finish_time=105.0)
        assert pool.warm_count("f", timestamp=110.0) == 1

    def test_busy_container_keeps_the_heap_at_pool_size(self):
        # Regression: a popped entry whose container was re-released since
        # was re-queued next to the fresher entry that release had pushed,
        # so the heap gained one duplicate per reuse of a busy container.
        pool = ContainerPool(keep_alive_seconds=10.0)
        t = 0.0
        for _ in range(1000):
            container, _ = pool.acquire("f", CONFIG, timestamp=t)
            pool.release(container, finish_time=t + 1.0)
            t += 6.0
        assert len(pool._expiry_heaps["f"]) == 2
        assert (pool.cold_starts, pool.warm_hits, pool.evictions) == (1, 999, 0)

    def test_rounding_boundary_entry_stays_queued(self):
        # 13.4 + 16.9 rounds to 30.299999999999997, yet 30.3 - 13.4 == 16.9:
        # the container is still warm when its own entry falls due.
        pool = ContainerPool(keep_alive_seconds=16.9)
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(container, finish_time=13.4)
        pool.acquire("f", OTHER_CONFIG, timestamp=30.3)
        assert pool.evictions == 0
        assert len(pool._expiry_heaps["f"]) == 1
        assert pool.warm_count("f", timestamp=30.3) == 1
        pool.acquire("f", OTHER_CONFIG, timestamp=31.0)
        assert pool.evictions == 1

    def test_reused_containers_keep_the_heap_bounded(self):
        # Each release pushes an entry that stays until its expiry passes,
        # so without a rebuild four containers reused every second under a
        # 600 s keep-alive would leave about 2,400 entries in the heap.
        pool = ContainerPool(keep_alive_seconds=600.0)
        for step in range(5000):
            held = [pool.acquire("f", CONFIG, timestamp=float(step))[0] for _ in range(4)]
            for container in held:
                pool.release(container, finish_time=step + 0.5)
            assert len(pool._expiry_heaps["f"]) <= 2 * 4 + container_module._HEAP_SLACK
        assert (pool.cold_starts, pool.warm_hits, pool.evictions) == (4, 19996, 0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rebuilt_heaps_change_no_acquisition(self, monkeypatch, seed):
        # After each step: the eviction count, warm containers and the
        # resident containers of both functions.
        def replay():
            rng = random.Random(seed)
            pool = ContainerPool(keep_alive_seconds=60.0, max_containers_per_function=6)
            configs = [CONFIG, OTHER_CONFIG]
            busy, seen, t, peak = [], [], 0.0, 0
            for _ in range(4000):
                t = round(t + rng.choice([0.0, 0.1, 0.2, 0.5, 1.3] * 20 + [13.4, 75.0]), 1)
                action = rng.random()
                if action < 0.45 or not busy:
                    function = rng.choice("fg")
                    container, cold = pool.acquire(function, rng.choice(configs), t)
                    busy.append(container)
                    seen.append((container.container_id, cold))
                elif action < 0.9:
                    pool.release(busy.pop(rng.randrange(len(busy))), t + rng.random())
                elif action < 0.95:
                    pool.kill(busy.pop(rng.randrange(len(busy))))
                else:
                    pool.resize(rng.choice([2, 6, 10]))
                seen.append(
                    (pool.evictions, pool.warm_count("f", t), pool.warm_count("g", t))
                    + tuple(sorted(pool._containers.get(f, {})) for f in "fg")
                )
                peak = max([peak] + [len(heap) for heap in pool._expiry_heaps.values()])
            counters = (pool.cold_starts, pool.warm_hits, pool.evictions, pool.fault_kills)
            return seen, counters, peak

        rebuilt = replay()
        monkeypatch.setattr(container_module, "_HEAP_SLACK", math.inf)
        unbounded = replay()
        assert rebuilt[:2] == unbounded[:2]
        assert rebuilt[1][2] > 0  # evictions happened
        assert rebuilt[2] < unbounded[2]

    def test_most_recently_used_match_wins(self):
        pool = ContainerPool(keep_alive_seconds=1000.0)
        a, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        b, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        pool.release(a, finish_time=10.0)
        pool.release(b, finish_time=20.0)
        reused, cold = pool.acquire("f", CONFIG, timestamp=30.0)
        assert not cold and reused is b


class TestRetarget:
    def test_retarget_evicts_mismatched_idle_containers(self):
        pool = ContainerPool(keep_alive_seconds=600.0)
        old, _ = pool.acquire("f", CONFIG, 0.0)
        pool.release(old, 1.0)
        other, _ = pool.acquire("g", CONFIG, 0.0)
        pool.release(other, 1.0)
        evicted = pool.retarget({"f": OTHER_CONFIG, "g": CONFIG})
        assert evicted == 1
        assert pool.evictions == 1
        # f's old-config container is gone: acquiring is a cold start ...
        _, cold = pool.acquire("f", CONFIG, 2.0)
        assert cold
        # ... while g's matching container survived as a warm hit.
        _, cold = pool.acquire("g", CONFIG, 2.0)
        assert not cold

    def test_retarget_spares_checked_out_containers(self):
        pool = ContainerPool(keep_alive_seconds=600.0)
        checked_out, _ = pool.acquire("f", CONFIG, 0.0)
        assert pool.retarget({"f": OTHER_CONFIG}) == 0
        # The in-flight container is unaffected and can still be returned.
        pool.release(checked_out, 5.0)
        assert pool.warm_count("f", 5.0) == 1

    def test_retarget_matching_config_is_a_noop(self):
        pool = ContainerPool(keep_alive_seconds=600.0)
        container, _ = pool.acquire("f", CONFIG, 0.0)
        pool.release(container, 1.0)
        assert pool.retarget({"f": CONFIG}) == 0
        _, cold = pool.acquire("f", CONFIG, 2.0)
        assert not cold


class TestEvictNode:
    def test_evicts_only_idle_containers_on_that_node(self):
        pool = ContainerPool()
        on_node, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        on_node.node_name = "node-a"
        elsewhere, _ = pool.acquire("g", CONFIG, timestamp=0.0)
        elsewhere.node_name = "node-b"
        unplaced, _ = pool.acquire("h", CONFIG, timestamp=0.0)
        for container in (on_node, elsewhere, unplaced):
            pool.release(container, finish_time=1.0)

        assert pool.evict_node("node-a") == 1
        assert pool.evictions == 1
        # The evicted function cold-starts again; the others stay warm.
        _, cold = pool.acquire("f", CONFIG, timestamp=2.0)
        assert cold
        _, cold = pool.acquire("g", CONFIG, timestamp=2.0)
        assert not cold
        _, cold = pool.acquire("h", CONFIG, timestamp=2.0)
        assert not cold

    def test_checked_out_containers_are_untouched(self):
        pool = ContainerPool()
        container, _ = pool.acquire("f", CONFIG, timestamp=0.0)
        container.node_name = "node-a"
        # Still checked out: evict_node must not reach into in-flight work.
        assert pool.evict_node("node-a") == 0
        pool.release(container, finish_time=1.0)
        assert pool.evict_node("node-a") == 1

    def test_empty_node_is_a_noop(self):
        pool = ContainerPool()
        assert pool.evict_node("ghost") == 0
        assert pool.evictions == 0

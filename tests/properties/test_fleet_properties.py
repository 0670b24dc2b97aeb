"""Hypothesis property tests for multi-tenant fleet serving.

Three invariants the fleet layer promises:

* per-tenant conservation — every offered request is eventually either
  completed or rejected, for every tenant, policy and seed;
* billing closure — the fleet-wide bill is exactly the sum of the
  per-tenant bills (no request is double-billed or dropped from the
  ledger);
* capacity safety — key-scored, capped placement never overcommits a
  node, whatever heterogeneous shapes the cluster mixes;
* reference equivalence — the cluster ledger's plan-then-commit
  reservation with its refusal memo makes exactly the decisions of the
  original scan-and-rollback loop, node usage included, bit for bit, for
  both node orders and with or without a cap (the serving layer's
  ``balance_key`` with no cap included).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.execution.cluster import ClusterLedger, balance_key, spread_key
from repro.execution.fleet import (
    PLACEMENT_POLICIES,
    FleetOptions,
    FleetSimulator,
    Tenant,
)
from repro.execution.instances import build_cluster, instance_catalog
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration
from repro.workloads.registry import get_workload


def run_fleet(policy, seed, rate_interactive, rate_batch, spot_rate):
    tenants = [
        Tenant(
            name="interactive",
            workload=get_workload("chatbot"),
            priority=1,
            arrival="poisson",
            rate_rps=rate_interactive,
        ),
        Tenant(
            name="batch",
            workload=get_workload("ml-pipeline"),
            priority=0,
            arrival="poisson",
            rate_rps=rate_batch,
        ),
    ]
    cluster = build_cluster(
        [("m5.4xlarge", 2), ("c5.4xlarge", 1)],
        spot_spec=[("m5a.4xlarge", 1)],
    )
    options = FleetOptions(
        placement=policy,
        spot_evictions_per_hour=spot_rate,
        spot_recovery_seconds=45.0,
    )
    simulator = FleetSimulator(tenants, cluster, options=options)
    return simulator.run(240.0, seed=seed)


class TestFleetRunInvariants:
    @given(
        policy=st.sampled_from(PLACEMENT_POLICIES),
        seed=st.integers(min_value=0, max_value=2**31),
        rate_interactive=st.floats(min_value=0.001, max_value=0.05),
        rate_batch=st.floats(min_value=0.001, max_value=0.05),
        spot_rate=st.floats(min_value=0.0, max_value=60.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_per_tenant_conservation(
        self, policy, seed, rate_interactive, rate_batch, spot_rate
    ):
        result = run_fleet(policy, seed, rate_interactive, rate_batch, spot_rate)
        for tenant_result in result.tenants.values():
            metrics = tenant_result.metrics
            assert metrics.offered == metrics.completed + metrics.rejected
            assert metrics.rejected == sum(tenant_result.rejected_by_cause.values())
        assert result.offered == result.completed + result.rejected_total

    @given(
        policy=st.sampled_from(PLACEMENT_POLICIES),
        seed=st.integers(min_value=0, max_value=2**31),
        rate_interactive=st.floats(min_value=0.001, max_value=0.05),
        rate_batch=st.floats(min_value=0.001, max_value=0.05),
    )
    @settings(max_examples=10, deadline=None)
    def test_tenant_bills_sum_to_fleet_bill(
        self, policy, seed, rate_interactive, rate_batch
    ):
        result = run_fleet(policy, seed, rate_interactive, rate_batch, 0.0)
        assert result.total_cost == sum(
            t.metrics.total_cost for t in result.tenants.values()
        )
        for tenant_result in result.tenants.values():
            assert tenant_result.metrics.total_cost >= 0.0


# Configs drawn small enough that *some* catalog node can host them, large
# enough to overcommit small nodes if the ledger ever ignored capacity.
configs = st.builds(
    ResourceConfig,
    vcpu=st.floats(min_value=0.25, max_value=8.0),
    memory_mb=st.floats(min_value=128.0, max_value=16384.0),
)
instance_names = st.sampled_from(sorted(instance_catalog()))
# The node scores the serving layer and the fleet policies use.
node_keys = st.sampled_from((balance_key, spread_key))


def caps_for(reserve):
    """The caps callers pass: none (serving), full nodes, or a reserve."""
    return (None, 1.0, 1.0 - reserve)


class TestLedgerCapacitySafety:
    @given(
        key=node_keys,
        shapes=st.lists(instance_names, min_size=1, max_size=4),
        requests=st.lists(
            st.lists(configs, min_size=1, max_size=3), min_size=1, max_size=12
        ),
        reserve=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_placement_never_exceeds_node_capacity(
        self, key, shapes, requests, reserve
    ):
        cluster = build_cluster([(name, 1) for name in dict.fromkeys(shapes)])
        ledger = ClusterLedger(cluster, key=key)
        caps = caps_for(reserve)
        now = 0.0
        live = []
        for request_id, request in enumerate(requests):
            configuration = WorkflowConfiguration(
                {f"f{i}": config for i, config in enumerate(request)}
            )
            now += 1.0
            assignment = ledger.try_reserve(
                request_id, configuration, now, caps[request_id % len(caps)]
            )
            if assignment is not None:
                live.append(request_id)
            for node in cluster.nodes:
                assert node.vcpu_used <= node.vcpu_capacity + 1e-9
                assert node.memory_used_mb <= node.memory_capacity_mb + 1e-9
            # Periodically release the oldest request; capacity must come back.
            if len(live) >= 3:
                now += 1.0
                ledger.release(live.pop(0), now)
        for request_id in live:
            now += 1.0
            ledger.release(request_id, now)
        assert ledger.active == 0
        # Releasing everything returns capacity (up to float round-off from
        # summing and subtracting the drawn vcpu values).
        assert all(abs(node.vcpu_used) < 1e-9 for node in cluster.nodes)
        assert all(abs(node.memory_used_mb) < 1e-6 for node in cluster.nodes)


class _ReferenceLedger(ClusterLedger):
    """The ledgers' original scan-and-rollback reservation loop.

    Each function is placed on its best node as soon as it is chosen, found
    by scoring every healthy node; when a later function fits nowhere the
    placements are removed again and every node's usage is then restored
    exactly (removal alone leaves float residue).  Nothing is remembered
    between calls: every call scans, and ``advance`` re-sums every node.

    It places behind the ledger's back, so every ledger method that keeps
    the node classes or the cached sums is overridden with the original
    linear loop, and the refusal memo is never consulted.  Only the
    constructor's counters, ``has_down_nodes`` and ``utilization``'s
    arithmetic are shared.
    """

    def advance(self, now):
        dt = now - self._last_time
        if dt <= 0:
            return
        nodes = self.cluster.nodes
        self._cpu_area += sum(n.vcpu_used for n in nodes) * dt
        self._mem_area += sum(n.memory_used_mb for n in nodes) * dt
        cap_cpu = 0.0
        cap_mem = 0.0
        all_healthy = True
        for n in nodes:
            if n.healthy:
                cap_cpu += n.vcpu_capacity
                cap_mem += n.memory_capacity_mb
            else:
                all_healthy = False
        self._cap_cpu_area += cap_cpu * dt
        self._cap_mem_area += cap_mem * dt
        if not all_healthy:
            self._saw_unhealthy_window = True
        self._concurrency_area += self.active * dt
        self._last_time = now

    def release(self, request_id, now):
        self.advance(now)
        self.active -= 1
        for node, name in self._placements.pop(request_id, ()):
            node.remove(name)

    def fail_node(self, node_name, now):
        self.advance(now)
        node = self.cluster.node(node_name)
        if not node.healthy:
            return []
        affected = sorted(
            request_id
            for request_id, placed in self._placements.items()
            if any(n is node for n, _ in placed)
        )
        for request_id in affected:
            for placed_node, name in self._placements.pop(request_id):
                if placed_node is not node:
                    placed_node.remove(name)
            self.active -= 1
        self.cluster.fail_node(node_name)
        return affected

    def restore_node(self, node_name, now):
        self.advance(now)
        self.cluster.restore_node(node_name)

    def try_reserve(self, request_id, configuration, now, cap=None):
        self.advance(now)
        snapshot = [(n, n.vcpu_used, n.memory_used_mb) for n in self.cluster.nodes]
        placed = []
        node_of = {}
        for function_name, config in configuration.items():
            best = None
            best_key = None
            for node in self.cluster.nodes:
                if not node.can_fit(config):
                    continue
                projected_cpu = (node.vcpu_used + config.vcpu) / node.vcpu_capacity
                projected_mem = (
                    node.memory_used_mb + config.memory_mb
                ) / node.memory_capacity_mb
                if cap is not None and max(projected_cpu, projected_mem) > cap + 1e-9:
                    continue
                imbalance = round(abs(projected_cpu - projected_mem), 9)
                load = round(projected_cpu + projected_mem, 9)
                if self.key is balance_key:
                    key = (imbalance, load, node.name)
                else:
                    key = (load, imbalance, node.name)
                if best_key is None or key < best_key:
                    best_key = key
                    best = node
            if best is None:
                for node, name in placed:
                    node.remove(name)
                for node, vcpu_used, memory_used_mb in snapshot:
                    node.vcpu_used = vcpu_used
                    node.memory_used_mb = memory_used_mb
                return None
            name = f"{function_name}#{request_id}"
            best.place(name, config)
            placed.append((best, name))
            node_of[function_name] = best
        self._placements[request_id] = placed
        self.active += 1
        self.peak_active = max(self.peak_active, self.active)
        return node_of


def _usage(cluster):
    """Every node's state, with usage as exact float bit patterns."""
    return [
        (
            node.name,
            node.healthy,
            node.vcpu_used.hex(),
            node.memory_used_mb.hex(),
            list(node.placements),
        )
        for node in cluster.nodes
    ]


def _assignment(node_of):
    if node_of is None:
        return None
    return {function_name: node.name for function_name, node in node_of.items()}


# A small pool of configuration objects, reused across reservations so the
# ledger's refusal memo (keyed by object identity) gets hit.
configuration_pool = st.lists(
    st.lists(configs, min_size=1, max_size=4).map(
        lambda drawn: WorkflowConfiguration({f"f{i}": c for i, c in enumerate(drawn)})
    ),
    min_size=1,
    max_size=4,
)
# (kind, pick, cap index): ``pick`` selects the configuration, live request
# or node modulo the available choices; reservations are drawn most often.
ledger_operations = st.lists(
    st.tuples(
        st.sampled_from(("reserve", "reserve", "reserve", "release", "fail", "restore")),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=40,
)


class TestLedgerMatchesReference:
    @given(
        key=node_keys,
        shapes=st.lists(
            st.tuples(instance_names, st.integers(min_value=1, max_value=6)),
            min_size=1,
            max_size=3,
        ),
        pool=configuration_pool,
        reserve=st.floats(min_value=0.0, max_value=0.5),
        operations=ledger_operations,
    )
    @settings(max_examples=150, deadline=None)
    def test_decisions_and_node_usage_match_the_reference(
        self, key, shapes, pool, reserve, operations
    ):
        spec = list(dict(shapes).items())  # one entry per instance type
        cluster, reference_cluster = build_cluster(spec), build_cluster(spec)
        ledger = ClusterLedger(cluster, key=key)
        reference = _ReferenceLedger(reference_cluster, key=key)
        caps = caps_for(reserve)
        node_names = [node.name for node in cluster.nodes]
        live = []
        now = 0.0
        for request_id, (kind, pick, cap_index) in enumerate(operations):
            now += 1.0
            if kind == "reserve":
                configuration = pool[pick % len(pool)]
                cap = caps[cap_index]
                got = ledger.try_reserve(request_id, configuration, now, cap)
                want = reference.try_reserve(request_id, configuration, now, cap)
                if want is not None:
                    assert got is not None, "the memo refused a grantable reservation"
                assert _assignment(got) == _assignment(want)
                if got is not None:
                    live.append(request_id)
            elif kind == "release":
                if not live:
                    continue
                released = live.pop(pick % len(live))
                ledger.release(released, now)
                reference.release(released, now)
            elif kind == "fail":
                name = node_names[pick % len(node_names)]
                aborted = ledger.fail_node(name, now)
                assert aborted == reference.fail_node(name, now)
                live = [r for r in live if r not in aborted]
            else:
                name = node_names[pick % len(node_names)]
                ledger.restore_node(name, now)
                reference.restore_node(name, now)
            assert _usage(cluster) == _usage(reference_cluster)
            assert ledger.active == reference.active
        assert ledger.utilization() == reference.utilization()

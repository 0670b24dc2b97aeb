"""Tests for the cluster model and affinity-aware placement."""

import pytest

from repro.execution.cluster import (
    Cluster,
    ClusterLedger,
    Node,
    PlacementError,
    affinity_aware_placement,
    balance_key,
)
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration


class TestNode:
    def test_capacity_must_be_positive(self):
        nan, inf = float("nan"), float("inf")
        for vcpu, memory_mb in [
            (0, 1024), (4, -1.0), (nan, 1024), (4, nan), (inf, 1024), (4, inf), (-inf, 1024),
        ]:
            with pytest.raises(ValueError, match="positive and finite"):
                Node("n", vcpu_capacity=vcpu, memory_capacity_mb=memory_mb)

    def test_can_fit_and_place(self):
        node = Node("n", vcpu_capacity=4, memory_capacity_mb=4096)
        config = ResourceConfig(2, 2048)
        assert node.can_fit(config)
        node.place("f", config)
        assert node.vcpu_used == 2
        assert node.memory_used_mb == 2048
        assert not node.can_fit(ResourceConfig(3, 1024))

    def test_place_beyond_capacity_raises(self):
        node = Node("n", vcpu_capacity=1, memory_capacity_mb=512)
        with pytest.raises(PlacementError):
            node.place("f", ResourceConfig(2, 256))

    def test_remove_releases_capacity(self):
        node = Node("n", vcpu_capacity=4, memory_capacity_mb=4096)
        node.place("f", ResourceConfig(2, 1024))
        node.remove("f")
        assert node.vcpu_used == 0
        assert node.memory_used_mb == 0

    def test_remove_unknown_raises(self):
        node = Node("n", vcpu_capacity=4, memory_capacity_mb=4096)
        with pytest.raises(KeyError):
            node.remove("missing")

    def test_utilization_and_imbalance(self):
        node = Node("n", vcpu_capacity=4, memory_capacity_mb=4096)
        node.place("f", ResourceConfig(4, 1024))
        assert node.cpu_utilization == 1.0
        assert node.memory_utilization == 0.25
        assert node.imbalance == pytest.approx(0.75)


class TestCluster:
    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            Cluster([])

    def test_unique_node_names(self):
        with pytest.raises(ValueError):
            Cluster([Node("n", 1, 1024), Node("n", 1, 1024)])

    def test_homogeneous_factory(self):
        cluster = Cluster.homogeneous(3, vcpu_per_node=8, memory_per_node_mb=8192)
        assert len(cluster.nodes) == 3
        assert cluster.total_vcpu_capacity == 24
        assert cluster.total_memory_capacity_mb == 3 * 8192

    def test_reset(self):
        cluster = Cluster.homogeneous(1)
        cluster.nodes[0].place("f", ResourceConfig(1, 1024))
        cluster.reset()
        assert cluster.nodes[0].vcpu_used == 0
        assert cluster.placement_of("f") is None


class TestAffinityAwarePlacement:
    def test_places_every_function(self):
        cluster = Cluster.homogeneous(2, vcpu_per_node=16, memory_per_node_mb=32768)
        configuration = WorkflowConfiguration(
            {
                "cpu_hungry": ResourceConfig(8, 1024),
                "mem_hungry": ResourceConfig(1, 16384),
                "small": ResourceConfig(1, 512),
            }
        )
        assignment = affinity_aware_placement(cluster, configuration)
        assert set(assignment.keys()) == set(configuration.keys())
        for function_name, node_name in assignment.items():
            assert cluster.placement_of(function_name) == node_name

    def test_complementary_affinities_colocated(self):
        # One node can hold both a CPU-hungry and a memory-hungry container;
        # balancing utilisation should put them together rather than each on
        # its own node with a stranded dimension.
        cluster = Cluster.homogeneous(2, vcpu_per_node=10, memory_per_node_mb=10240)
        configuration = WorkflowConfiguration(
            {
                "cpu_a": ResourceConfig(8, 1024),
                "mem_a": ResourceConfig(1, 8192),
            }
        )
        assignment = affinity_aware_placement(
            cluster, configuration, affinities={"cpu_a": "cpu", "mem_a": "mem"}
        )
        assert assignment["cpu_a"] == assignment["mem_a"]

    def test_reduces_imbalance_relative_to_naive_split(self):
        cluster = Cluster.homogeneous(2, vcpu_per_node=10, memory_per_node_mb=10240)
        configuration = WorkflowConfiguration(
            {
                "cpu_a": ResourceConfig(6, 512),
                "cpu_b": ResourceConfig(6, 512),
                "mem_a": ResourceConfig(0.5, 6144),
                "mem_b": ResourceConfig(0.5, 6144),
            }
        )
        affinity_aware_placement(cluster, configuration)
        assert cluster.mean_imbalance() < 0.5

    def test_impossible_placement_raises(self):
        cluster = Cluster.homogeneous(1, vcpu_per_node=1, memory_per_node_mb=512)
        configuration = WorkflowConfiguration({"big": ResourceConfig(8, 8192)})
        with pytest.raises(PlacementError):
            affinity_aware_placement(cluster, configuration)

    def test_utilization_summary_shape(self):
        cluster = Cluster.homogeneous(2)
        summary = cluster.utilization_summary()
        assert set(summary.keys()) == {"node-0", "node-1"}
        assert summary["node-0"] == (0.0, 0.0)


class TestHealthyCapacityNormalisation:
    """Regression: dominant-share ordering must ignore failed nodes."""

    def test_failed_node_is_equivalent_to_absent_node(self):
        # A failed cpu-rich node must not be counted in the share
        # denominators: placement on {h1, h2, failed-f} has to match
        # placement on a cluster that never had f at all.
        def nodes():
            return [
                Node("h1", vcpu_capacity=8, memory_capacity_mb=65536),
                Node("h2", vcpu_capacity=8, memory_capacity_mb=65536),
            ]

        configuration = WorkflowConfiguration(
            {
                "cpu_fn": ResourceConfig(4, 1024),
                "mem_fn": ResourceConfig(1, 16384),
            }
        )
        with_failed = Cluster(
            nodes() + [Node("f", vcpu_capacity=48, memory_capacity_mb=8192)]
        )
        with_failed.fail_node("f")
        without = Cluster(nodes())
        assert affinity_aware_placement(with_failed, configuration) == (
            affinity_aware_placement(without, configuration)
        )

    def test_healthy_ordering_places_cpu_heavy_first(self):
        # With the cpu-rich node down, cpu_fn's dominant share (4/16) beats
        # mem_fn's (16384/131072); placing it first spreads the two
        # containers.  The pre-fix full-capacity shares (4/64 vs
        # 16384/139264) inverted the order and stacked both on h1.
        cluster = Cluster(
            [
                Node("h1", vcpu_capacity=8, memory_capacity_mb=65536),
                Node("h2", vcpu_capacity=8, memory_capacity_mb=65536),
                Node("f", vcpu_capacity=48, memory_capacity_mb=8192),
            ]
        )
        cluster.fail_node("f")
        assignment = affinity_aware_placement(
            cluster,
            WorkflowConfiguration(
                {
                    "cpu_fn": ResourceConfig(4, 1024),
                    "mem_fn": ResourceConfig(1, 16384),
                }
            ),
        )
        assert assignment["cpu_fn"] != assignment["mem_fn"]

    def test_all_nodes_failed_falls_back_to_total_capacity(self):
        cluster = Cluster([Node("n", vcpu_capacity=4, memory_capacity_mb=4096)])
        cluster.fail_node("n")
        with pytest.raises(PlacementError):
            affinity_aware_placement(
                cluster, WorkflowConfiguration({"f": ResourceConfig(1, 512)})
            )


class CountingOrder:
    """Wraps a node order and counts node scores, whether a planner
    evaluates the order whole or one component at a time."""

    def __init__(self, order):
        self.order = order
        self.scores = 0

    def __call__(self, node, projected_cpu, projected_mem):
        self.scores += 1
        return self.order(node, projected_cpu, projected_mem)

    def first(self, projected_cpu, projected_mem):
        self.scores += 1
        return self.order.first(projected_cpu, projected_mem)

    def second(self, projected_cpu, projected_mem):
        return self.order.second(projected_cpu, projected_mem)


class TestClusterLedgerPlanning:
    def test_planner_scores_one_node_per_class_plus_touched_nodes(self):
        # 1,000 identical idle nodes form one class.  Function k of the plan
        # scores that class once plus the at most k - 1 nodes the plan
        # already touched: at most 1 + 2 + ... + 7 = 28 scores, not 7,000.
        cluster = Cluster.homogeneous(1000)
        order = CountingOrder(balance_key)
        ledger = ClusterLedger(cluster, key=order)
        configuration = WorkflowConfiguration(
            {f"f{i}": ResourceConfig(1, 1024) for i in range(7)}
        )
        node_of = ledger.try_reserve(0, configuration, 0.0)
        assert order.scores <= 28
        # Each function goes to the idle node with the least name, which is
        # the least name as a string, exactly as a scan of every node picks.
        assert [node_of[f"f{i}"].name for i in range(7)] == [
            "node-0", "node-1", "node-10", "node-100", "node-101", "node-102", "node-103",
        ]

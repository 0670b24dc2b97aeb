"""Cluster model with affinity-aware container placement.

The paper's framework hands the discovered per-function configurations to the
cloud infrastructure "for subsequent container resource allocation" (step ❼).
This module models that last step: a set of nodes with CPU and memory
capacity, and a placement policy that co-locates containers with
*complementary* resource affinities (CPU-hungry next to memory-hungry) so
that node capacity in both dimensions is used evenly — the affinity-aware
co-location that gives the paper its name.  The :class:`ClusterLedger`
books that capacity per request over time for the serving and fleet
simulators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.workflow.resources import ResourceConfig, WorkflowConfiguration

__all__ = [
    "Node",
    "Cluster",
    "ClusterLedger",
    "PlacementError",
    "affinity_aware_placement",
    "balance_key",
    "spread_key",
    "plan_placement",
]


class PlacementError(RuntimeError):
    """Raised when a container cannot be placed on any node."""


@dataclass
class Node:
    """A worker node with finite CPU and memory capacity.

    ``instance_type`` names the catalog shape the node was provisioned from
    (``None`` for ad-hoc homogeneous nodes); ``price_multiplier`` scales
    per-request billing for work hosted on this node, and ``spot`` marks
    preemptible capacity subject to eviction schedules.
    """

    name: str
    vcpu_capacity: float
    memory_capacity_mb: float
    vcpu_used: float = 0.0
    memory_used_mb: float = 0.0
    placements: List[Tuple[str, ResourceConfig]] = field(default_factory=list)
    healthy: bool = True
    instance_type: Optional[str] = None
    price_multiplier: float = 1.0
    spot: bool = False

    def __post_init__(self) -> None:
        if self.vcpu_capacity <= 0 or self.memory_capacity_mb <= 0:
            raise ValueError("node capacities must be positive")

    # -- capacity queries -------------------------------------------------------
    def can_fit(self, config: ResourceConfig) -> bool:
        """Whether the node has room for one more container of this size."""
        return (
            self.healthy
            and self.vcpu_used + config.vcpu <= self.vcpu_capacity + 1e-9
            and self.memory_used_mb + config.memory_mb <= self.memory_capacity_mb + 1e-9
        )

    def place(self, function_name: str, config: ResourceConfig) -> None:
        """Reserve capacity for one container."""
        if not self.can_fit(config):
            raise PlacementError(
                f"container for {function_name!r} ({config.describe()}) does not fit on node {self.name!r}"
            )
        self.vcpu_used += config.vcpu
        self.memory_used_mb += config.memory_mb
        self.placements.append((function_name, config))

    def remove(self, function_name: str) -> None:
        """Release the capacity of one previously placed container."""
        for index, (name, config) in enumerate(self.placements):
            if name == function_name:
                del self.placements[index]
                self.vcpu_used -= config.vcpu
                self.memory_used_mb -= config.memory_mb
                return
        raise KeyError(f"function {function_name!r} is not placed on node {self.name!r}")

    # -- utilisation -----------------------------------------------------------
    @property
    def cpu_utilization(self) -> float:
        """Fraction of CPU capacity in use."""
        return self.vcpu_used / self.vcpu_capacity

    @property
    def memory_utilization(self) -> float:
        """Fraction of memory capacity in use."""
        return self.memory_used_mb / self.memory_capacity_mb

    @property
    def imbalance(self) -> float:
        """Absolute gap between CPU and memory utilisation.

        A node packed only with CPU-hungry containers strands memory (and
        vice versa); affinity-aware placement tries to keep this gap small.
        """
        return abs(self.cpu_utilization - self.memory_utilization)


class Cluster:
    """A fixed set of nodes accepting container placements."""

    def __init__(self, nodes: Sequence[Node]) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique")
        self._nodes: Dict[str, Node] = {node.name: node for node in nodes}

    @classmethod
    def homogeneous(
        cls, n_nodes: int, vcpu_per_node: float = 16.0, memory_per_node_mb: float = 65536.0
    ) -> "Cluster":
        """Build a cluster of identical nodes."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be at least 1")
        nodes = [
            Node(name=f"node-{i}", vcpu_capacity=vcpu_per_node, memory_capacity_mb=memory_per_node_mb)
            for i in range(n_nodes)
        ]
        return cls(nodes)

    # -- accessors --------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """All nodes."""
        return list(self._nodes.values())

    def node(self, name: str) -> Node:
        """Look up one node by name."""
        return self._nodes[name]

    @property
    def total_vcpu_capacity(self) -> float:
        """Aggregate CPU capacity."""
        return sum(n.vcpu_capacity for n in self._nodes.values())

    @property
    def total_memory_capacity_mb(self) -> float:
        """Aggregate memory capacity."""
        return sum(n.memory_capacity_mb for n in self._nodes.values())

    @property
    def total_healthy_vcpu_capacity(self) -> float:
        """Aggregate CPU capacity over nodes currently accepting placements."""
        return sum(n.vcpu_capacity for n in self._nodes.values() if n.healthy)

    @property
    def total_healthy_memory_capacity_mb(self) -> float:
        """Aggregate memory capacity over nodes currently accepting placements."""
        return sum(n.memory_capacity_mb for n in self._nodes.values() if n.healthy)

    @property
    def is_heterogeneous(self) -> bool:
        """Whether nodes differ in shape (capacity, pricing, or spot status)."""
        shapes = {
            (n.vcpu_capacity, n.memory_capacity_mb, n.price_multiplier, n.spot)
            for n in self._nodes.values()
        }
        return len(shapes) > 1

    def placement_of(self, function_name: str) -> Optional[str]:
        """Name of the node hosting a function's container, if any."""
        for node in self._nodes.values():
            if any(name == function_name for name, _ in node.placements):
                return node.name
        return None

    def utilization_summary(self) -> Dict[str, Tuple[float, float]]:
        """Per-node (cpu, memory) utilisation fractions."""
        return {
            name: (node.cpu_utilization, node.memory_utilization)
            for name, node in self._nodes.items()
        }

    def mean_imbalance(self) -> float:
        """Average CPU/memory utilisation gap across nodes hosting containers."""
        occupied = [n for n in self._nodes.values() if n.placements]
        if not occupied:
            return 0.0
        return sum(n.imbalance for n in occupied) / len(occupied)

    # -- failure model ----------------------------------------------------------
    def fail_node(self, name: str) -> List[str]:
        """Take one node down, evicting every resident container.

        Returns the names of the evicted placements so the serving layer can
        reschedule the affected requests.  Failing an already-down node is a
        no-op returning an empty list.
        """
        node = self._nodes[name]
        if not node.healthy:
            return []
        evicted = [placement_name for placement_name, _ in node.placements]
        node.placements.clear()
        node.vcpu_used = 0.0
        node.memory_used_mb = 0.0
        node.healthy = False
        return evicted

    def restore_node(self, name: str) -> None:
        """Bring a failed node back (empty, with its full capacity)."""
        self._nodes[name].healthy = True

    @property
    def healthy_nodes(self) -> List[Node]:
        """Nodes currently accepting placements."""
        return [node for node in self._nodes.values() if node.healthy]

    def reset(self) -> None:
        """Remove all placements (and bring failed nodes back up)."""
        for node in self._nodes.values():
            node.placements.clear()
            node.vcpu_used = 0.0
            node.memory_used_mb = 0.0
            node.healthy = True


def balance_key(node: Node, projected_cpu: float, projected_mem: float) -> Tuple:
    """Affinity-aware score: least CPU/memory imbalance, then least load, then name."""
    return (
        round(abs(projected_cpu - projected_mem), 9),
        round(projected_cpu + projected_mem, 9),
        node.name,
    )


def spread_key(node: Node, projected_cpu: float, projected_mem: float) -> Tuple:
    """Spreading score: least load, then least imbalance, then name."""
    return (
        round(projected_cpu + projected_mem, 9),
        round(abs(projected_cpu - projected_mem), 9),
        node.name,
    )


def plan_placement(
    nodes: Sequence[Node],
    configuration: WorkflowConfiguration,
    key: Callable[[Node, float, float], Tuple],
    cap: Optional[float] = None,
) -> Optional[List[Tuple[str, ResourceConfig, Node]]]:
    """Choose a node for every function of ``configuration``, placing nothing.

    Functions are considered in configuration order.  Each goes to the healthy
    node that fits it after the earlier functions of the same plan and has
    the smallest ``key(node, projected_cpu, projected_mem)``; the projections
    are the node's utilisation fractions after hosting the container.  Those
    earlier choices live in a tentative per-node usage overlay computed with
    exactly the additions :meth:`Node.place` would make, so committing the
    plan in order reproduces the overlay bit for bit.  With ``cap`` set, a
    node whose projected CPU or memory utilisation would exceed it is skipped
    too.

    Returns ``(function, config, node)`` triples, or ``None`` when some
    function fits nowhere; the nodes are never touched either way.
    """
    tentative: Dict[str, Tuple[float, float]] = {}
    plan: List[Tuple[str, ResourceConfig, Node]] = []
    for function_name, config in configuration.items():
        vcpu = config.vcpu
        memory_mb = config.memory_mb
        best: Optional[Node] = None
        best_key: Optional[Tuple] = None
        for node in nodes:
            if not node.healthy:
                continue
            if node.name in tentative:
                cpu, mem = tentative[node.name]
            else:
                cpu, mem = node.vcpu_used, node.memory_used_mb
            # Node.can_fit's capacity checks, on the tentative usage.
            if not (
                cpu + vcpu <= node.vcpu_capacity + 1e-9
                and mem + memory_mb <= node.memory_capacity_mb + 1e-9
            ):
                continue
            projected_cpu = (cpu + vcpu) / node.vcpu_capacity
            projected_mem = (mem + memory_mb) / node.memory_capacity_mb
            if cap is not None and max(projected_cpu, projected_mem) > cap + 1e-9:
                continue
            score = key(node, projected_cpu, projected_mem)
            if best_key is None or score < best_key:
                best_key = score
                best = node
                best_used = (cpu + vcpu, mem + memory_mb)
        if best is None:
            return None
        tentative[best.name] = best_used
        plan.append((function_name, config, best))
    return plan


class ClusterLedger:
    """Per-request capacity reservations on a cluster, with utilization.

    A request reserves one container per workflow function for its whole
    residence time.  :func:`plan_placement` scores candidate nodes with
    ``key`` (the affinity-aware :func:`balance_key` by default), and a
    reservation's optional ``cap`` keeps every node it touches at or below
    that utilisation fraction.  Placements are keyed ``function#request`` so
    concurrent requests running the same workflow release exactly their own
    capacity.  The ledger also integrates reserved vCPU/memory and the
    number of requests in flight over time.  Without a cluster every
    reservation succeeds with an empty assignment and only concurrency is
    integrated.

    ``version`` counts capacity changes (commits, releases, node failures and
    restores).  A refusal depends only on the (immutable) configuration, the
    cap and the node state, so the ledger remembers which configuration
    objects were refused at which cap since the last change and refuses them
    again without rescanning the cluster.  This holds as long as the nodes
    change only through the ledger.
    """

    def __init__(
        self,
        cluster: Optional[Cluster],
        key: Callable[[Node, float, float], Tuple] = balance_key,
    ) -> None:
        self.cluster = cluster
        self.key = key
        self.active = 0
        self.peak_active = 0
        self.version = 0
        self._nodes: List[Node] = cluster.nodes if cluster is not None else []
        self._last_time = 0.0
        self._cpu_area = 0.0
        self._mem_area = 0.0
        self._concurrency_area = 0.0
        self._cap_cpu_area = 0.0
        self._cap_mem_area = 0.0
        self._saw_unhealthy_window = False
        self._placements: Dict[int, List[Tuple[Node, str]]] = {}
        # (id(configuration), cap) -> configuration for refusals at the current
        # version; holding the object keeps its id from being reused.
        self._refused: Dict[Tuple[int, Optional[float]], WorkflowConfiguration] = {}

    def _changed(self) -> None:
        self.version += 1
        self._refused.clear()

    # -- time integration -------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate utilization up to ``now`` (call before any change)."""
        dt = now - self._last_time
        if dt <= 0:
            return
        if self.cluster is not None:
            nodes = self._nodes
            self._cpu_area += sum(n.vcpu_used for n in nodes) * dt
            self._mem_area += sum(n.memory_used_mb for n in nodes) * dt
            # Capacity that could actually have hosted work over this window:
            # failed nodes contribute nothing, so node-storm runs do not
            # deflate reported utilization by dividing by ghost capacity.
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

    # -- reservations -----------------------------------------------------------
    def try_reserve(
        self,
        request_id: int,
        configuration: WorkflowConfiguration,
        now: float,
        cap: Optional[float] = None,
    ) -> Optional[Dict[str, Node]]:
        """Reserve one container per function; ``None`` (nothing placed) if
        some function fits nowhere.

        Returns the function → node assignment, so callers can price and
        interfere per node.  Without a cluster it is empty, so test the
        result with ``is None``.
        """
        self.advance(now)
        if self.cluster is None:
            self.active += 1
            self.peak_active = max(self.peak_active, self.active)
            return {}
        memo = (id(configuration), cap)
        if self._refused.get(memo) is configuration:
            return None
        plan = plan_placement(self._nodes, configuration, self.key, cap)
        if plan is None:
            self._refused[memo] = configuration
            return None
        placed: List[Tuple[Node, str]] = []
        node_of: Dict[str, Node] = {}
        for function_name, config, node in plan:
            name = f"{function_name}#{request_id}"
            node.place(name, config)
            placed.append((node, name))
            node_of[function_name] = node
        self._placements[request_id] = placed
        self.active += 1
        self.peak_active = max(self.peak_active, self.active)
        self._changed()
        return node_of

    def release(self, request_id: int, now: float) -> None:
        """Give a finished request's capacity back."""
        self.advance(now)
        self.active -= 1
        placed = self._placements.pop(request_id, None)
        if placed is not None:
            for node, name in placed:
                node.remove(name)
            self._changed()

    # -- node failures ----------------------------------------------------------
    def fail_node(self, node_name: str, now: float) -> List[int]:
        """Take one node down and abort every request placed on it.

        Every affected request loses *all* its reservations (including those
        on healthy nodes — the request restarts from scratch), so the caller
        must re-queue the returned request ids.  Failing an already-down
        node is a no-op.
        """
        self.advance(now)
        if self.cluster is None:
            return []
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
        self._changed()
        return affected

    def restore_node(self, node_name: str, now: float) -> None:
        """Bring a failed node back into the placement candidate set."""
        self.advance(now)
        if self.cluster is not None:
            self.cluster.restore_node(node_name)
            self._changed()

    @property
    def has_down_nodes(self) -> bool:
        """Whether any node is currently failed (capacity may come back)."""
        return any(not node.healthy for node in self._nodes)

    # -- reporting --------------------------------------------------------------
    def utilization(self) -> Tuple[Optional[float], Optional[float], float]:
        """Time-averaged (cpu, memory, concurrency) over the observed span."""
        span = self._last_time
        if span <= 0:
            return (None, None, 0.0) if self.cluster is None else (0.0, 0.0, 0.0)
        mean_concurrency = self._concurrency_area / span
        if self.cluster is None:
            return None, None, mean_concurrency
        if self._saw_unhealthy_window and self._cap_cpu_area > 0 and self._cap_mem_area > 0:
            # Healthy-capacity time-area denominator: windows with failed
            # nodes count only the capacity that was actually up.
            cpu = self._cpu_area / self._cap_cpu_area
            mem = self._mem_area / self._cap_mem_area
            return cpu, mem, mean_concurrency
        # No node was ever down: keep the closed-form denominator so
        # fault-free runs stay byte-identical to the historical goldens
        # (summing per-window capacity areas is not float-associative
        # with multiplying total capacity by the span).
        cpu = self._cpu_area / (self.cluster.total_vcpu_capacity * span)
        mem = self._mem_area / (self.cluster.total_memory_capacity_mb * span)
        return cpu, mem, mean_concurrency


def affinity_aware_placement(
    cluster: Cluster,
    configuration: WorkflowConfiguration,
    affinities: Optional[Mapping[str, str]] = None,
) -> Dict[str, str]:
    """Place one container per function, balancing CPU vs memory pressure.

    The policy scores each candidate node by the CPU/memory utilisation
    imbalance it would have *after* hosting the container and picks the node
    that minimises it (ties broken by lower total utilisation, then name).
    Containers are considered in decreasing order of their dominant resource
    share so the large ones are placed while the most freedom remains.

    Parameters
    ----------
    cluster:
        The target cluster (mutated: placements are recorded on its nodes).
    configuration:
        Function → resource allocation to place.
    affinities:
        Optional function → affinity-label mapping (e.g. ``"cpu-bound"``);
        only used to prefer spreading same-affinity containers across nodes.

    Returns
    -------
    dict
        Function name → node name.

    Raises
    ------
    PlacementError
        If some container fits on no node.
    """
    affinities = dict(affinities or {})

    # Normalise by the capacity actually available: failed nodes cannot host
    # containers, and counting them shrinks every share by the same *absolute*
    # amount — which reorders heterogeneous configs whose dominant dimension
    # differs (the cpu- and memory-capacity pools shrink by different factors).
    cpu_capacity = cluster.total_healthy_vcpu_capacity
    mem_capacity = cluster.total_healthy_memory_capacity_mb
    if cpu_capacity <= 0 or mem_capacity <= 0:
        cpu_capacity = cluster.total_vcpu_capacity
        mem_capacity = cluster.total_memory_capacity_mb

    def dominant_share(config: ResourceConfig) -> float:
        cpu_share = config.vcpu / cpu_capacity
        mem_share = config.memory_mb / mem_capacity
        return max(cpu_share, mem_share)

    assignment: Dict[str, str] = {}
    ordered = sorted(
        configuration.items(), key=lambda item: (-dominant_share(item[1]), item[0])
    )
    for function_name, config in ordered:
        best_node: Optional[Node] = None
        best_key: Optional[Tuple[float, float, int, str]] = None
        for node in cluster.nodes:
            if not node.can_fit(config):
                continue
            projected_cpu = (node.vcpu_used + config.vcpu) / node.vcpu_capacity
            projected_mem = (node.memory_used_mb + config.memory_mb) / node.memory_capacity_mb
            imbalance = abs(projected_cpu - projected_mem)
            same_affinity = sum(
                1
                for placed_name, _ in node.placements
                if affinities.get(placed_name) is not None
                and affinities.get(placed_name) == affinities.get(function_name)
            )
            key = (
                round(imbalance, 9),
                round(projected_cpu + projected_mem, 9),
                same_affinity,
                node.name,
            )
            if best_key is None or key < best_key:
                best_key = key
                best_node = node
        if best_node is None:
            raise PlacementError(
                f"no node can host container for {function_name!r} ({config.describe()})"
            )
        best_node.place(function_name, config)
        assignment[function_name] = best_node.name
    return assignment

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

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.utils.ranges import AT_LEAST_1, NON_NEGATIVE, POSITIVE, check_fields
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration

__all__ = [
    "Node",
    "Cluster",
    "ClusterLedger",
    "NodeOrder",
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
    vcpu_capacity: float = POSITIVE.field()
    memory_capacity_mb: float = POSITIVE.field()
    vcpu_used: float = 0.0
    memory_used_mb: float = 0.0
    placements: List[Tuple[str, ResourceConfig]] = field(default_factory=list)
    healthy: bool = True
    instance_type: Optional[str] = None
    price_multiplier: float = NON_NEGATIVE.field(1.0)
    spot: bool = False

    def __post_init__(self) -> None:
        check_fields(self)

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
        AT_LEAST_1.check(n_nodes, "n_nodes")
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


def _imbalance(projected_cpu: float, projected_mem: float) -> float:
    return round(abs(projected_cpu - projected_mem), 9)


def _load(projected_cpu: float, projected_mem: float) -> float:
    return round(projected_cpu + projected_mem, 9)


@dataclass(frozen=True)
class NodeOrder:
    """A total order on candidate nodes: ``first``, then ``second``, then name.

    Each component maps a node's projected CPU and memory utilisation
    fractions (after hosting the container) to a number; calling the order
    gives the whole sort key.  The contract the planner relies on: an order
    reads nothing of a node but its projections and, last, its name.  Nodes
    with equal capacities and usage therefore differ only by name, and the
    planner computes ``second`` only when ``first`` ties.
    """

    first: Callable[[float, float], float]
    second: Callable[[float, float], float]

    def __call__(self, node: Node, projected_cpu: float, projected_mem: float) -> Tuple:
        return (
            self.first(projected_cpu, projected_mem),
            self.second(projected_cpu, projected_mem),
            node.name,
        )


#: Affinity-aware order: least CPU/memory imbalance, then least load, then name.
balance_key = NodeOrder(_imbalance, _load)
#: Spreading order: least load, then least imbalance, then name.
spread_key = NodeOrder(_load, _imbalance)

#: ``(vcpu_capacity, memory_capacity_mb, vcpu_used, memory_used_mb)``, exact.
NodeClassKey = Tuple[float, float, float, float]
#: Class key -> the class's ``(name, node)`` members, in name order.
NodeClasses = Dict[NodeClassKey, List[Tuple[str, Node]]]


def _class_key(node: Node) -> NodeClassKey:
    return (node.vcpu_capacity, node.memory_capacity_mb, node.vcpu_used, node.memory_used_mb)


def _file(classes: NodeClasses, key: NodeClassKey, member: Tuple[str, Node]) -> None:
    members = classes.get(key)
    if members is None:
        classes[key] = [member]
    else:
        insort(members, member)


def _unfile(classes: NodeClasses, key: NodeClassKey, name: str) -> None:
    members = classes[key]
    if len(members) == 1:
        del classes[key]
    else:
        del members[bisect_left(members, (name,))]


def plan_placement(
    classes: NodeClasses,
    configuration: WorkflowConfiguration,
    order: NodeOrder,
    cap: Optional[float] = None,
) -> Optional[List[Tuple[str, ResourceConfig, Node]]]:
    """Choose a node for every function of ``configuration``, placing nothing.

    ``classes`` groups the healthy nodes by capacities and exact usage.
    Functions are considered in configuration order.  Each goes to the node
    that fits it after the earlier functions of the same plan and comes
    first in ``order``.  With ``cap`` set, a node whose projected CPU or
    memory utilisation would exceed it is skipped too.

    The members of a class differ only by name, so each class is scored
    once, through its least name; that picks exactly the node a scan of
    every healthy node would pick.  The earlier functions' choices form a
    tentative usage overlay: the planner moves each chosen node to the
    class of its usage after the container, computed with exactly the
    additions :meth:`Node.place` makes.  When some function fits nowhere
    the moves are undone and ``None`` is returned.  Otherwise the
    ``(function, config, node)`` triples are returned and ``classes``
    already matches the nodes as they will be once the caller places the
    plan in order.  The nodes themselves are never touched either way.
    """
    first = order.first
    second = order.second
    limit = None if cap is None else cap + 1e-9
    plan: List[Tuple[str, ResourceConfig, Node]] = []
    moves: List[Tuple[NodeClassKey, NodeClassKey, Tuple[str, Node]]] = []
    for function_name, config in configuration.items():
        vcpu = config.vcpu
        memory_mb = config.memory_mb
        best_key: Optional[NodeClassKey] = None
        for key, members in classes.items():
            vcpu_capacity, memory_capacity_mb, cpu, mem = key
            cpu += vcpu
            mem += memory_mb
            # Node.can_fit's capacity checks, on the tentative usage.
            if not (cpu <= vcpu_capacity + 1e-9 and mem <= memory_capacity_mb + 1e-9):
                continue
            projected_cpu = cpu / vcpu_capacity
            projected_mem = mem / memory_capacity_mb
            if limit is not None and max(projected_cpu, projected_mem) > limit:
                continue
            # Compare (first, second, name) as a tuple would, computing
            # second only when first ties.
            score = first(projected_cpu, projected_mem)
            if best_key is None or score != best_score:
                if best_key is not None and not score < best_score:
                    continue
                best_score = score
                best_second = None
                best_projected = (projected_cpu, projected_mem)
            else:
                if best_second is None:
                    best_second = second(*best_projected)
                tiebreak = second(projected_cpu, projected_mem)
                if not (
                    tiebreak < best_second
                    or (tiebreak == best_second and members[0][0] < best_name)
                ):
                    continue
                best_second = tiebreak
            best_key = key
            best_name = members[0][0]
            best_used = (cpu, mem)
        if best_key is None:
            for old_key, new_key, member in reversed(moves):
                _unfile(classes, new_key, member[0])
                _file(classes, old_key, member)
            return None
        member = classes[best_key][0]
        new_key = best_key[:2] + best_used
        _unfile(classes, best_key, best_name)
        _file(classes, new_key, member)
        moves.append((best_key, new_key, member))
        plan.append((function_name, config, member[1]))
    return plan


class ClusterLedger:
    """Per-request capacity reservations on a cluster, with utilization.

    A request reserves one container per workflow function for its whole
    residence time.  :func:`plan_placement` picks each function's node by
    ``key``, a :class:`NodeOrder` (the affinity-aware :data:`balance_key` by
    default), and a reservation's optional ``cap`` keeps every node it
    touches at or below that utilisation fraction.  Placements are keyed
    ``function#request`` so concurrent requests running the same workflow
    release exactly their own capacity.  The ledger also integrates reserved
    vCPU/memory and the number of requests in flight over time.  Without a
    cluster every reservation succeeds with an empty assignment and only
    concurrency is integrated.

    The ledger keeps the healthy nodes grouped into classes of equal
    capacities and exactly equal usage, the planner's candidate set, and
    moves a node between classes whenever it places, removes, fails or
    restores.  ``advance`` reuses its usage sums until the next such change
    and its healthy-capacity sums until the next failure or restore.

    ``version`` counts capacity changes (commits, releases, node failures and
    restores).  A refusal depends only on the (immutable) configuration, the
    cap and the node state, so the ledger remembers which configuration
    objects were refused at which cap since the last change and refuses them
    again without rescanning the cluster.  The class index, the cached sums
    and the memo all hold only as long as the nodes change only through the
    ledger.
    """

    def __init__(self, cluster: Optional[Cluster], key: NodeOrder = balance_key) -> None:
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
        self._classes: NodeClasses = {}
        self._reindex_all({node.name: node for node in self._nodes})
        # advance's sums over the nodes, None until recomputed after a change:
        # (vcpu used, memory used) and (healthy vcpu, healthy memory, all healthy).
        self._used: Optional[Tuple[float, float]] = None
        self._healthy_capacity: Optional[Tuple[float, float, bool]] = None

    def _changed(self) -> None:
        self.version += 1
        self._refused.clear()
        self._used = None

    # -- node classes -------------------------------------------------------------
    def _unindex_all(self, nodes: Iterable[Node]) -> Dict[str, Node]:
        """Take each distinct node out of its class before its usage changes."""
        moving = {node.name: node for node in nodes}
        for node in moving.values():
            _unfile(self._classes, _class_key(node), node.name)
        return moving

    def _reindex_all(self, moving: Dict[str, Node]) -> None:
        """File the nodes taken out by :meth:`_unindex_all` under their new
        usage; a node that went down stays out."""
        for node in moving.values():
            if node.healthy:
                _file(self._classes, _class_key(node), (node.name, node))

    # -- time integration -------------------------------------------------------
    def advance(self, now: float) -> None:
        """Integrate utilization up to ``now`` (call before any change)."""
        dt = now - self._last_time
        if dt <= 0:
            return
        if self.cluster is not None:
            nodes = self._nodes
            if self._used is None:
                self._used = (
                    sum(map(attrgetter("vcpu_used"), nodes)),
                    sum(map(attrgetter("memory_used_mb"), nodes)),
                )
            if self._healthy_capacity is None:
                # Capacity that could actually have hosted work: failed nodes
                # contribute nothing, so node-storm runs do not deflate
                # reported utilization by dividing by ghost capacity.
                cap_cpu = 0.0
                cap_mem = 0.0
                all_healthy = True
                for n in nodes:
                    if n.healthy:
                        cap_cpu += n.vcpu_capacity
                        cap_mem += n.memory_capacity_mb
                    else:
                        all_healthy = False
                self._healthy_capacity = (cap_cpu, cap_mem, all_healthy)
            used_cpu, used_mem = self._used
            cap_cpu, cap_mem, all_healthy = self._healthy_capacity
            self._cpu_area += used_cpu * dt
            self._mem_area += used_mem * dt
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
        plan = plan_placement(self._classes, configuration, self.key, cap)
        if plan is None:
            self._refused[memo] = configuration
            return None
        # The planner already moved the chosen nodes to their new classes.
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
            moving = self._unindex_all(node for node, _ in placed)
            for node, name in placed:
                node.remove(name)
            self._reindex_all(moving)
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
        moving = self._unindex_all(
            [node]
            + [n for request_id in affected for n, _ in self._placements[request_id]]
        )
        for request_id in affected:
            for placed_node, name in self._placements.pop(request_id):
                if placed_node is not node:
                    placed_node.remove(name)
            self.active -= 1
        self.cluster.fail_node(node_name)
        self._reindex_all(moving)
        self._healthy_capacity = None
        self._changed()
        return affected

    def restore_node(self, node_name: str, now: float) -> None:
        """Bring a failed node back into the placement candidate set."""
        self.advance(now)
        if self.cluster is not None:
            node = self.cluster.node(node_name)
            if not node.healthy:
                self.cluster.restore_node(node_name)
                self._reindex_all({node_name: node})
            self._healthy_capacity = None
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

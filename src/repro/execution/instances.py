"""Heterogeneous instance-type catalog for fleet clusters.

Real tuning systems search over cloud instance families rather than one
homogeneous node shape (SNIPPETS.md Snippet 3 sweeps
``m5/m5a/m6g/c5/c5a/c6g`` × cpu × memory).  This module adopts that space as
a node catalog: each :class:`InstanceType` names a family shape with a vCPU
count, memory size and a per-family pricing multiplier (AMD ``*a`` and
Graviton ``*g`` variants undercut the Intel baseline, compute-optimised
``c*`` families trade memory for cheaper vCPUs).  ``spot=True`` nodes take a
further discount but are subject to seed-deterministic eviction schedules
that ride the same Poisson downtime machinery as PR 4 node failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.execution.cluster import Cluster, Node
from repro.execution.faults import poisson_node_event_schedule
from repro.utils.rng import RngStream, derive_seed

__all__ = [
    "InstanceType",
    "INSTANCE_FAMILIES",
    "SPOT_DISCOUNT",
    "instance_catalog",
    "get_instance_type",
    "make_node",
    "build_cluster",
    "spot_eviction_schedule",
]

# Per-family (memory MiB per vCPU, price multiplier per vCPU-hour relative to
# m5).  The m* families are general-purpose 4 GiB/vCPU shapes; the c* families
# are compute-optimised 2 GiB/vCPU shapes at a lower per-vCPU price.
INSTANCE_FAMILIES: Dict[str, Tuple[float, float]] = {
    "m5": (4096.0, 1.00),
    "m5a": (4096.0, 0.90),
    "m6g": (4096.0, 0.80),
    "c5": (2048.0, 0.89),
    "c5a": (2048.0, 0.80),
    "c6g": (2048.0, 0.72),
}

# vCPU counts for the .large → .4xlarge size ladder.
_SIZE_LADDER: Dict[str, int] = {"large": 2, "xlarge": 4, "2xlarge": 8, "4xlarge": 16}

# Extra discount applied to the price multiplier of spot (preemptible) nodes.
SPOT_DISCOUNT = 0.35


@dataclass(frozen=True)
class InstanceType:
    """One catalog shape a fleet node can be provisioned from."""

    name: str
    family: str
    vcpu: int
    memory_mb: float
    price_multiplier: float

    def describe(self) -> str:
        return (
            f"{self.name}: {self.vcpu} vCPU, {self.memory_mb / 1024.0:.0f} GiB, "
            f"{self.price_multiplier:.2f}x"
        )


def instance_catalog() -> Dict[str, InstanceType]:
    """The full family × size catalog, keyed by instance name."""
    catalog: Dict[str, InstanceType] = {}
    for family, (mb_per_vcpu, price) in INSTANCE_FAMILIES.items():
        for size, vcpu in _SIZE_LADDER.items():
            name = f"{family}.{size}"
            catalog[name] = InstanceType(
                name=name,
                family=family,
                vcpu=vcpu,
                memory_mb=vcpu * mb_per_vcpu,
                price_multiplier=price,
            )
    return catalog


_CATALOG = instance_catalog()


def get_instance_type(name: str) -> InstanceType:
    """Look up one catalog entry by name (e.g. ``"c5.2xlarge"``)."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise KeyError(
            f"unknown instance type {name!r}; available: {', '.join(sorted(_CATALOG))}"
        ) from None


def make_node(instance: Union[str, InstanceType], name: str, spot: bool = False) -> Node:
    """Provision one node from a catalog shape."""
    if isinstance(instance, str):
        instance = get_instance_type(instance)
    multiplier = instance.price_multiplier * (SPOT_DISCOUNT if spot else 1.0)
    return Node(
        name=name,
        vcpu_capacity=float(instance.vcpu),
        memory_capacity_mb=float(instance.memory_mb),
        instance_type=instance.name,
        price_multiplier=multiplier,
        spot=spot,
    )


def build_cluster(spec: Sequence[Tuple[str, int]], spot_spec: Sequence[Tuple[str, int]] = ()) -> Cluster:
    """Build a heterogeneous cluster from ``(instance_type, count)`` pairs.

    On-demand nodes are named ``<type>-<i>``; spot nodes ``<type>-spot-<i>``.
    Node order follows the spec order; placement ties break by node name.
    """
    nodes: List[Node] = []
    for instance_name, count in spec:
        for i in range(count):
            nodes.append(make_node(instance_name, f"{instance_name}-{i}"))
    for instance_name, count in spot_spec:
        for i in range(count):
            nodes.append(make_node(instance_name, f"{instance_name}-spot-{i}", spot=True))
    return Cluster(nodes)


def spot_eviction_schedule(
    cluster: Cluster,
    duration_seconds: float,
    evictions_per_hour: float,
    seed: int,
) -> List[Tuple[float, str]]:
    """Seed-deterministic ``(time, node)`` eviction events over spot nodes.

    Uses the same Poisson downtime machinery as node-failure plans so spot
    evictions and PR 4 node failures compose on one recovery path; only
    ``spot=True`` nodes are eligible.
    """
    spot_nodes = [node.name for node in cluster.nodes if node.spot]
    stream = RngStream(derive_seed(seed, "spot-evictions"))
    return poisson_node_event_schedule(
        stream, duration_seconds, evictions_per_hour, spot_nodes
    )

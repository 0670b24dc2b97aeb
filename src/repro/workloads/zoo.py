"""Procedural workload zoo: seed-deterministic generated workflows.

The three paper applications exercise exactly three DAG shapes, which caps
how many serving / drift / fault / fleet scenarios the reproduction can
explore.  This module turns workflow construction into a *generator*: four
parameterized families of DAGs (layered, fan-out/fan-in, pipeline and
random-DAG, à la the DAG-of-functions builders used by serverless
simulators), each function carrying a procedurally drawn analytic
performance profile, bundled into a full :class:`~repro.workloads.base.
WorkloadSpec` — SLO, base configuration and traffic profile included — so a
generated workload is a first-class citizen anywhere the three paper apps
are accepted.

Everything is derived from a :class:`ZooConfig` through
:class:`~repro.utils.rng.RngStream` children, so the same config always
yields a byte-identical workload (the zoo property tests pin this), and a
workload can be reconstructed from its canonical *name* alone —
``zoo-layered-w3-d4-e35-s717`` — which is what lets scenario-fuzzer worker
processes rebuild generated workloads from a plain string.

Structural invariants are enforced by construction and re-checked by
:class:`~repro.workflow.dag.Workflow` (acyclicity and weak connectivity); the
generator additionally guarantees every DAG has a single source layer
reaching every sink.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.execution.executor import WorkflowExecutor
from repro.perfmodel.analytic import FunctionProfile
from repro.perfmodel.profiles import (
    balanced_profile,
    cpu_bound_profile,
    io_bound_profile,
    memory_bound_profile,
)
from repro.perfmodel.registry import PerformanceModelRegistry
from repro.utils.ranges import AT_LEAST_0, AT_LEAST_1, UNIT, Range, check_fields
from repro.utils.rng import RngStream
from repro.workflow.dag import FunctionSpec, Workflow, reachable
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration
from repro.workflow.slo import SLO
from repro.workloads.arrivals import TrafficProfile
from repro.workloads.base import WorkloadSpec

__all__ = [
    "ZOO_FAMILIES",
    "ZooConfig",
    "generate_workflow",
    "generate_profiles",
    "zoo_workload",
    "zoo_workload_from_name",
    "parse_zoo_name",
    "is_zoo_name",
]

#: Generator families, in documentation order.
ZOO_FAMILIES: Tuple[str, ...] = ("layered", "fanout", "pipeline", "random")

_NAME_PATTERN = re.compile(
    r"^zoo-(?P<family>[a-z]+)"
    r"(?:-w(?P<width>\d+)-d(?P<depth>\d+)-e(?P<density>\d+)-s(?P<seed>\d+))?$"
)


@dataclass(frozen=True)
class ZooConfig:
    """Parameters of one generated workload.

    Attributes
    ----------
    family:
        DAG family (see :data:`ZOO_FAMILIES`): ``layered`` stacks randomly
        sized layers with random inter-layer wiring, ``fanout`` fans an
        entry stage out to ``width`` parallel branch pipelines that re-join,
        ``pipeline`` is a linear chain, and ``random`` grows a random DAG in
        topological order (every node wired to an earlier one, extra edges
        by density).
    seed:
        Root seed; all structure and every profile parameter derive from it.
    width:
        Maximum parallel width (branches, layer size, or node budget).
    depth:
        Layers / chain length / per-branch stages (``layered`` needs ≥ 2).
    edge_density:
        Probability of each optional extra edge (``layered`` / ``random``).
    slo_slack:
        End-to-end SLO as a multiple of the base-configuration latency.
    """

    family: str = "layered"
    seed: int = AT_LEAST_0.field(0)
    width: int = AT_LEAST_1.field(3)
    depth: int = AT_LEAST_1.field(3)
    edge_density: float = UNIT.field(0.35)
    slo_slack: float = Range(1.0, math.inf, lo_open=True, hi_open=True).field(3.0)

    def __post_init__(self) -> None:
        if self.family not in ZOO_FAMILIES:
            raise ValueError(
                f"unknown zoo family {self.family!r}; "
                f"expected one of {', '.join(ZOO_FAMILIES)}"
            )
        check_fields(self)
        if self.family == "layered" and self.depth < 2:
            raise ValueError("the 'layered' family needs depth >= 2")

    @property
    def name(self) -> str:
        """Canonical workload name; parseable by :func:`parse_zoo_name`."""
        return (
            f"zoo-{self.family}-w{self.width}-d{self.depth}"
            f"-e{int(round(self.edge_density * 100)):02d}-s{self.seed}"
        )


def is_zoo_name(name: str) -> bool:
    """Whether ``name`` addresses a generated zoo workload."""
    return bool(_NAME_PATTERN.match(name.strip().lower()))


def parse_zoo_name(name: str) -> ZooConfig:
    """Parse a canonical zoo name (``zoo-<family>-w3-d4-e35-s717``).

    The short form ``zoo-<family>`` resolves to the family's default
    parameters, so the four families are addressable like built-in
    workloads.
    """
    match = _NAME_PATTERN.match(name.strip().lower())
    if match is None:
        raise KeyError(
            f"not a zoo workload name: {name!r} (expected "
            "'zoo-<family>' or 'zoo-<family>-w<W>-d<D>-e<E>-s<S>')"
        )
    family = match.group("family")
    if family not in ZOO_FAMILIES:
        raise KeyError(
            f"unknown zoo family {family!r}; expected one of {', '.join(ZOO_FAMILIES)}"
        )
    config = ZooConfig(family=family)
    if match.group("width") is not None:
        config = replace(
            config,
            width=int(match.group("width")),
            depth=int(match.group("depth")),
            edge_density=int(match.group("density")) / 100.0,
            seed=int(match.group("seed")),
        )
    return config


# -- DAG construction -------------------------------------------------------------


def _layered_edges(
    config: ZooConfig, rng: RngStream
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Random layered DAG: every node wired to an adjacent layer."""
    sizes = [1 + rng.integers(0, config.width) for _ in range(config.depth)]
    layers: List[List[str]] = []
    layer_of: Dict[str, int] = {}
    for level, size in enumerate(sizes):
        layer = [f"l{level}n{i}" for i in range(size)]
        layers.append(layer)
        for node in layer:
            layer_of[node] = level
    names = [node for layer in layers for node in layer]
    order = {node: i for i, node in enumerate(names)}

    successors: Dict[str, List[str]] = {node: [] for node in names}
    # Both directions of every edge, for the weakly-connected components.
    neighbours: Dict[str, List[str]] = {node: [] for node in names}

    def add_edge(parent: str, child: str) -> None:
        successors[parent].append(child)
        neighbours[parent].append(child)
        neighbours[child].append(parent)

    for level in range(1, config.depth):
        above, layer = layers[level - 1], layers[level]
        # Every node gets one upstream parent; every parent-layer node gets
        # at least one downstream child, so no stage dangles.
        for node in layer:
            add_edge(above[rng.integers(0, len(above))], node)
        for parent in above:
            if not successors[parent]:
                add_edge(parent, layer[rng.integers(0, len(layer))])
        for parent in above:
            for node in layer:
                if node not in successors[parent] and rng.uniform() < config.edge_density:
                    add_edge(parent, node)

    # The random wiring can still split into parallel strands; stitch the
    # weakly-connected components together with forward (layer-increasing)
    # edges, which preserves acyclicity.
    while True:
        # The component of the first node, then that of the first node
        # outside it: the two components whose least nodes come first.
        first = {names[0]} | reachable(neighbours, names[0])
        rest = next((node for node in names if node not in first), None)
        if rest is None:
            break
        second = {rest} | reachable(neighbours, rest)
        # One of the two components reaches strictly deeper layers than the
        # other starts at, because every node touches an adjacent layer.
        la = min(layer_of[n] for n in first)
        lb = min(layer_of[n] for n in second)
        upstream, downstream = (first, second) if la <= lb else (second, first)
        low = min(layer_of[n] for n in downstream.union(upstream))
        candidates_down = sorted(
            (n for n in downstream if layer_of[n] > low), key=order.get
        )
        if not candidates_down:
            # Downstream component sits entirely in the lowest layer; link
            # from it into the other component instead.
            upstream, downstream = downstream, upstream
            candidates_down = sorted(
                (n for n in downstream if layer_of[n] > low), key=order.get
            )
        target = candidates_down[rng.integers(0, len(candidates_down))]
        sources = sorted(
            (n for n in upstream if layer_of[n] < layer_of[target]), key=order.get
        )
        add_edge(sources[rng.integers(0, len(sources))], target)
    edges = [(parent, child) for parent in names for child in successors[parent]]
    return names, sorted(edges, key=lambda e: (order[e[0]], order[e[1]]))


def _fanout_edges(config: ZooConfig) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Fan-out/fan-in: source → width parallel branch pipelines → sink."""
    names = ["src"]
    edges: List[Tuple[str, str]] = []
    for branch in range(config.width):
        previous = "src"
        for stage in range(config.depth):
            node = f"b{branch}s{stage}"
            names.append(node)
            edges.append((previous, node))
            previous = node
        edges.append((previous, "sink"))
    names.append("sink")
    return names, edges


def _pipeline_edges(config: ZooConfig) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Linear chain of ``depth`` stages (width is ignored)."""
    names = [f"s{i}" for i in range(config.depth)]
    return names, [(names[i], names[i + 1]) for i in range(len(names) - 1)]


def _random_edges(
    config: ZooConfig, rng: RngStream
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Random DAG grown in topological order (acyclic by construction)."""
    count = config.width * config.depth
    names = [f"f{i:02d}" for i in range(count)]
    edges: List[Tuple[str, str]] = []
    seen = set()
    for j in range(1, count):
        parent = rng.integers(0, j)
        edges.append((names[parent], names[j]))
        seen.add((parent, j))
        for i in range(j):
            if (i, j) not in seen and rng.uniform() < config.edge_density:
                edges.append((names[i], names[j]))
                seen.add((i, j))
    return names, edges


def generate_workflow(config: ZooConfig) -> Workflow:
    """Generate the workflow DAG a :class:`ZooConfig` describes.

    The returned :class:`~repro.workflow.dag.Workflow` re-validates
    acyclicity and weak connectivity, so a generator regression cannot
    silently ship a broken DAG.
    """
    rng = RngStream(config.seed, f"zoo/{config.family}").child("graph")
    if config.family == "layered":
        names, edges = _layered_edges(config, rng)
    elif config.family == "fanout":
        names, edges = _fanout_edges(config)
    elif config.family == "pipeline":
        names, edges = _pipeline_edges(config)
    else:
        names, edges = _random_edges(config, rng)
    functions = [
        FunctionSpec(name=name, description=f"generated {config.family} stage")
        for name in names
    ]
    return Workflow(name=config.name, functions=functions, edges=edges)


# -- profile synthesis ------------------------------------------------------------

_AFFINITIES: Tuple[str, ...] = ("cpu", "io", "memory", "balanced")


def _draw_profile(name: str, rng: RngStream) -> FunctionProfile:
    """Draw one function's analytic profile from its own keyed stream."""
    affinity = _AFFINITIES[rng.integers(0, len(_AFFINITIES))]
    if affinity == "cpu":
        return cpu_bound_profile(
            name,
            cpu_seconds=rng.uniform(1.0, 8.0),
            working_set_mb=rng.uniform(128.0, 256.0),
            parallel_fraction=rng.uniform(0.6, 0.95),
            io_seconds=rng.uniform(0.2, 1.0),
        )
    if affinity == "io":
        return io_bound_profile(
            name,
            io_seconds=rng.uniform(1.0, 6.0),
            cpu_seconds=rng.uniform(0.3, 2.0),
            working_set_mb=rng.uniform(96.0, 224.0),
        )
    if affinity == "memory":
        return memory_bound_profile(
            name,
            cpu_seconds=rng.uniform(1.0, 6.0),
            working_set_mb=rng.uniform(192.0, 512.0),
            io_seconds=rng.uniform(0.3, 2.0),
        )
    return balanced_profile(
        name,
        cpu_seconds=rng.uniform(0.8, 5.0),
        io_seconds=rng.uniform(0.5, 3.0),
        working_set_mb=rng.uniform(160.0, 384.0),
    )


def generate_profiles(workflow: Workflow, config: ZooConfig) -> List[FunctionProfile]:
    """Draw a performance profile for every function of a generated DAG.

    Each function draws from ``RngStream(seed, "zoo/<family>").child
    ("profile", name)``, so profiles depend only on the config and the
    function name — editing one family parameter never reshuffles another
    function's profile.
    """
    root = RngStream(config.seed, f"zoo/{config.family}")
    return [
        _draw_profile(spec.profile_name, root.child("profile", spec.profile_name))
        for spec in workflow.functions
    ]


def zoo_workload(config: Optional[ZooConfig] = None) -> WorkloadSpec:
    """Build the full workload specification a :class:`ZooConfig` describes.

    The base configuration is sized so no generated function is ever below
    its comfortable memory (the generator must not fabricate OOMing
    workloads), and the SLO is derived from the base configuration's own
    end-to-end latency times ``slo_slack`` — tight enough to be violable
    under contention, loose enough that a clean uncontended run meets it.
    """
    config = config if config is not None else ZooConfig()
    workflow = generate_workflow(config)
    profiles = generate_profiles(workflow, config)

    headroom_mb = max(profile.comfortable_memory_mb for profile in profiles) * 1.25
    base_config = ResourceConfig(
        vcpu=2.0, memory_mb=float(64 * math.ceil(headroom_mb / 64.0))
    )
    executor = WorkflowExecutor(
        performance_model=PerformanceModelRegistry.from_profiles(profiles)
    )
    probe = executor.execute(
        workflow,
        WorkflowConfiguration.uniform(workflow.function_names, base_config),
    )
    slo = SLO(
        latency_limit=config.slo_slack * probe.end_to_end_latency,
        name=f"{config.name}-e2e",
    )
    return WorkloadSpec(
        name=config.name,
        workflow=workflow,
        profiles=profiles,
        slo=slo,
        base_config=base_config,
        description=(
            f"generated {config.family} workflow "
            f"({workflow.n_functions} functions, {workflow.n_edges} edges, "
            f"seed {config.seed})"
        ),
        communication_pattern=workflow.communication_pattern(),
        traffic=TrafficProfile(arrival="poisson", rate_rps=0.2),
    )


def zoo_workload_from_name(name: str) -> WorkloadSpec:
    """Rebuild a generated workload from its canonical name alone.

    This is the hook the workload registry falls back to, and what lets
    scenario-matrix / fuzzer worker processes reconstruct generated
    workloads from the plain strings their specs carry.
    """
    return zoo_workload(parse_zoo_name(name))

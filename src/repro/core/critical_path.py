"""Critical-path and detour sub-path analysis (Graph-Centric Scheduler support).

Given per-function runtimes measured under the base configuration, the
Graph-Centric Scheduler turns the workflow into a weighted DAG, extracts the
critical path (the heaviest source-to-sink path, which determines the
end-to-end latency) and then identifies *detour sub-paths*: paths that branch
off the critical path at one of its nodes and rejoin it at a later one,
passing only through non-critical functions.  Each detour receives a sub-SLO
equal to the time the critical path spends between the detour's endpoints, so
configuring the detour can never lengthen the workflow beyond the critical
path (Algorithm 1, lines 10–21).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.workflow.dag import Workflow, simple_paths

__all__ = [
    "SubPath",
    "CriticalPathAnalysis",
    "find_critical_path",
    "find_detour_subpaths",
    "runtime_sum",
]


@dataclass(frozen=True)
class SubPath:
    """A detour sub-path attached to the critical path.

    Attributes
    ----------
    start / end:
        Critical-path nodes where the detour branches off and rejoins.
    nodes:
        The full node sequence ``start, interior..., end``.
    """

    start: str
    end: str
    nodes: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 3:
            raise ValueError("a detour sub-path needs at least one interior node")
        if self.nodes[0] != self.start or self.nodes[-1] != self.end:
            raise ValueError("nodes must start at 'start' and finish at 'end'")

    @property
    def interior(self) -> Tuple[str, ...]:
        """Nodes strictly between the endpoints (the functions to configure)."""
        return self.nodes[1:-1]

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass
class CriticalPathAnalysis:
    """Result of analysing a weighted workflow DAG."""

    workflow_name: str
    critical_path: List[str]
    critical_path_runtime: float
    runtimes: Dict[str, float]
    subpaths: List[SubPath] = field(default_factory=list)

    @property
    def critical_set(self) -> set:
        """Set view of the critical-path nodes."""
        return set(self.critical_path)

    def off_critical_functions(self) -> List[str]:
        """Functions not on the critical path, in runtime-dictionary order."""
        return [name for name in self.runtimes if name not in self.critical_set]

    def functions_covered_by_subpaths(self) -> set:
        """Interior functions reachable through some detour sub-path."""
        covered: set = set()
        for subpath in self.subpaths:
            covered.update(subpath.interior)
        return covered

    def uncovered_functions(self) -> List[str]:
        """Off-critical functions not covered by any detour sub-path.

        For the DAG shapes evaluated in the paper this is always empty; the
        scheduler keeps such functions at their base configuration as a safe
        fallback.
        """
        covered = self.functions_covered_by_subpaths()
        return [name for name in self.off_critical_functions() if name not in covered]


def find_critical_path(
    workflow: Workflow, runtimes: Mapping[str, float]
) -> Tuple[List[str], float]:
    """Return the heaviest source-to-sink path and its total runtime.

    This is ``find_critical_path(G)`` from the paper's TABLE I, with node
    weights supplied explicitly (the measured per-function runtimes).
    """
    return workflow.longest_path(runtimes)


def runtime_sum(
    path: Sequence[str], runtimes: Mapping[str, float], start: str, end: str
) -> float:
    """Total runtime along ``path`` between ``start`` and ``end`` (inclusive).

    This is ``runtime_sum(path, start, end)`` from the paper's TABLE I.

    Raises
    ------
    ValueError
        If either endpoint is missing from the path or appears in the wrong
        order.
    """
    try:
        start_index = list(path).index(start)
        end_index = list(path).index(end)
    except ValueError as exc:
        raise ValueError(f"{exc} (path={list(path)!r})") from None
    if end_index < start_index:
        raise ValueError(f"{end!r} precedes {start!r} on the path")
    return sum(float(runtimes[node]) for node in path[start_index : end_index + 1])


def find_detour_subpaths(workflow: Workflow, critical_path: Sequence[str]) -> List[SubPath]:
    """Find all detour sub-paths attached to the critical path.

    A detour sub-path starts at a critical-path node, ends at a *later*
    critical-path node, and every interior node lies off the critical path
    (the "no intersections with other nodes" condition of Algorithm 1).  The
    result is ordered deterministically by (start position, end position,
    node names) so scheduling order is stable.
    """
    critical_list = list(critical_path)
    critical_set = set(critical_list)
    missing = [n for n in critical_list if n not in workflow]
    if missing:
        raise KeyError(f"critical path references unknown functions: {missing}")
    position = {name: index for index, name in enumerate(critical_list)}

    # Drop edges between critical nodes so simple-path search only returns
    # genuine detours (paths leaving the critical path).
    detour_graph: Dict[str, List[str]] = {name: [] for name in workflow.function_names}
    for u, v in workflow.edges:
        if u in critical_set and v in critical_set:
            continue
        detour_graph[u].append(v)

    subpaths: List[SubPath] = []
    seen: set = set()
    for start in critical_list:
        for end in critical_list:
            if position[end] <= position[start]:
                continue
            for path in simple_paths(detour_graph, start, end):
                interior = path[1:-1]
                if not interior:
                    continue
                if any(node in critical_set for node in interior):
                    continue
                key = tuple(path)
                if key in seen:
                    continue
                seen.add(key)
                subpaths.append(SubPath(start=start, end=end, nodes=tuple(path)))
    subpaths.sort(key=lambda sp: (position[sp.start], position[sp.end], sp.nodes))
    return subpaths


def analyse(workflow: Workflow, runtimes: Mapping[str, float]) -> CriticalPathAnalysis:
    """Run the full critical-path + detour analysis in one call."""
    critical_path, total = find_critical_path(workflow, runtimes)
    subpaths = find_detour_subpaths(workflow, critical_path)
    return CriticalPathAnalysis(
        workflow_name=workflow.name,
        critical_path=critical_path,
        critical_path_runtime=total,
        runtimes=dict(runtimes),
        subpaths=subpaths,
    )

"""Workflow DAG model.

A :class:`Workflow` is a directed acyclic graph whose nodes are serverless
functions (:class:`FunctionSpec`).  Edges express invocation/data dependencies:
a function starts once all of its predecessors have finished.  The model keeps
a single virtual entry and exit implicit — a workflow may have multiple source
or sink functions, and end-to-end latency is defined over the longest weighted
path from any source to any sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

import networkx as nx

__all__ = ["FunctionSpec", "Workflow", "WorkflowValidationError"]


class WorkflowValidationError(ValueError):
    """Raised when a workflow definition is structurally invalid."""


@dataclass(frozen=True)
class FunctionSpec:
    """Static description of one serverless function in a workflow.

    Attributes
    ----------
    name:
        Unique identifier within the workflow.
    description:
        Free-text role description (used only for reporting).
    profile:
        Name of the performance profile used by the simulator; defaults to the
        function name so workloads can register profiles keyed by function.
    tags:
        Optional labels (e.g. ``"io-bound"``) used by reporting and tests.
    """

    name: str
    description: str = ""
    profile: Optional[str] = None
    tags: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name or not str(self.name).strip():
            raise WorkflowValidationError("function name must be a non-empty string")

    @property
    def profile_name(self) -> str:
        """Profile key used by the performance-model registry."""
        return self.profile if self.profile is not None else self.name


class Workflow:
    """A DAG of serverless functions.

    Parameters
    ----------
    name:
        Workflow identifier (e.g. ``"chatbot"``).
    functions:
        The function specifications (order is preserved for reporting).
    edges:
        ``(upstream, downstream)`` pairs referencing function names.
    """

    def __init__(
        self,
        name: str,
        functions: Sequence[FunctionSpec],
        edges: Iterable[Tuple[str, str]] = (),
    ) -> None:
        if not name or not str(name).strip():
            raise WorkflowValidationError("workflow name must be a non-empty string")
        self.name = str(name)
        self._functions: Dict[str, FunctionSpec] = {}
        for spec in functions:
            if spec.name in self._functions:
                raise WorkflowValidationError(f"duplicate function name {spec.name!r}")
            self._functions[spec.name] = spec
        self._graph = nx.DiGraph()
        self._graph.add_nodes_from(self._functions.keys())
        # Topology caches, filled on first query and dropped by add_edge.
        self._order: Optional[List[str]] = None
        self._preds: Optional[Dict[str, List[str]]] = None
        for upstream, downstream in edges:
            self.add_edge(upstream, downstream)
        self.validate()

    # -- construction ------------------------------------------------------
    def add_edge(self, upstream: str, downstream: str) -> None:
        """Add a dependency edge ``upstream -> downstream``."""
        for endpoint in (upstream, downstream):
            if endpoint not in self._functions:
                raise WorkflowValidationError(
                    f"edge endpoint {endpoint!r} is not a function of workflow {self.name!r}"
                )
        if upstream == downstream:
            raise WorkflowValidationError(f"self-loop on {upstream!r} is not allowed")
        self._order = None
        self._preds = None
        self._graph.add_edge(upstream, downstream)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(upstream, downstream)
            raise WorkflowValidationError(
                f"edge {upstream!r} -> {downstream!r} would create a cycle"
            )

    def validate(self) -> None:
        """Check structural invariants; raise :class:`WorkflowValidationError`."""
        if len(self._functions) == 0:
            raise WorkflowValidationError("workflow must contain at least one function")
        if not nx.is_directed_acyclic_graph(self._graph):
            raise WorkflowValidationError("workflow graph contains a cycle")
        if self._graph.number_of_edges() > 0:
            undirected = self._graph.to_undirected()
            if nx.number_connected_components(undirected) > 1:
                raise WorkflowValidationError(
                    "workflow graph must be weakly connected (got disconnected components)"
                )

    # -- basic accessors -----------------------------------------------------
    @property
    def function_names(self) -> List[str]:
        """Function names in insertion order."""
        return list(self._functions.keys())

    @property
    def functions(self) -> List[FunctionSpec]:
        """Function specs in insertion order."""
        return list(self._functions.values())

    @property
    def n_functions(self) -> int:
        """Number of functions in the workflow."""
        return len(self._functions)

    @property
    def n_edges(self) -> int:
        """Number of dependency edges."""
        return self._graph.number_of_edges()

    @property
    def edges(self) -> List[Tuple[str, str]]:
        """All dependency edges."""
        return list(self._graph.edges())

    def function(self, name: str) -> FunctionSpec:
        """Look up one function spec by name."""
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"workflow {self.name!r} has no function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __len__(self) -> int:
        return len(self._functions)

    # -- graph queries -------------------------------------------------------
    def predecessors(self, name: str) -> List[str]:
        """Direct upstream dependencies of a function, sorted by name."""
        self.function(name)
        return list(self._sorted_predecessors()[name])

    def successors(self, name: str) -> List[str]:
        """Direct downstream dependents of a function."""
        self.function(name)
        return sorted(self._graph.successors(name))

    def sources(self) -> List[str]:
        """Functions with no predecessors (workflow entry points)."""
        return [n for n in self._functions if self._graph.in_degree(n) == 0]

    def sinks(self) -> List[str]:
        """Functions with no successors (workflow exit points)."""
        return [n for n in self._functions if self._graph.out_degree(n) == 0]

    def topological_order(self) -> List[str]:
        """A deterministic topological ordering of the functions.

        Ties are broken by insertion order so repeated calls always return the
        same ordering, which keeps simulation traces stable.
        """
        return list(self._topological_order())

    def _topological_order(self) -> List[str]:
        """The cached topological order (callers must not mutate it)."""
        if self._order is None:
            insertion_rank = {name: i for i, name in enumerate(self._functions)}
            self._order = list(
                nx.lexicographical_topological_sort(
                    self._graph, key=lambda n: insertion_rank[n]
                )
            )
        return self._order

    def _sorted_predecessors(self) -> Dict[str, List[str]]:
        """The cached name-sorted predecessor lists (callers must not mutate them)."""
        if self._preds is None:
            self._preds = {
                name: sorted(self._graph.predecessors(name)) for name in self._functions
            }
        return self._preds

    def ancestors(self, name: str) -> Set[str]:
        """All transitive predecessors of a function."""
        self.function(name)
        return set(nx.ancestors(self._graph, name))

    def descendants(self, name: str) -> Set[str]:
        """All transitive successors of a function."""
        self.function(name)
        return set(nx.descendants(self._graph, name))

    def all_paths(self) -> List[List[str]]:
        """All source-to-sink paths (exponential in the worst case; the
        workflows in this reproduction are small)."""
        paths: List[List[str]] = []
        for source in self.sources():
            for sink in self.sinks():
                if source == sink:
                    paths.append([source])
                    continue
                for path in nx.all_simple_paths(self._graph, source, sink):
                    paths.append(list(path))
        return paths

    def subgraph_view(self) -> nx.DiGraph:
        """A read-only copy of the underlying networkx graph."""
        return self._graph.copy(as_view=False)

    # -- weighted-path analysis ----------------------------------------------
    def longest_path(self, weights: Mapping[str, float]) -> Tuple[List[str], float]:
        """Longest (heaviest) source-to-sink path under node weights.

        Parameters
        ----------
        weights:
            Mapping of every function name to a non-negative weight, typically
            the function's measured runtime.

        Returns
        -------
        (path, total_weight)
            The path as a list of function names and the sum of its node
            weights.  Ties are broken deterministically (lexicographically
            smaller predecessor chain wins).
        """
        missing = [n for n in self._functions if n not in weights]
        if missing:
            raise KeyError(f"missing weights for functions: {missing}")
        for name, value in weights.items():
            if name in self._functions and value < 0:
                raise ValueError(f"weight of {name!r} must be non-negative, got {value}")

        best_total: Dict[str, float] = {}
        best_pred: Dict[str, Optional[str]] = {}
        sorted_preds = self._sorted_predecessors()
        for node in self._topological_order():
            node_weight = float(weights[node])
            preds = sorted_preds[node]
            if not preds:
                best_total[node] = node_weight
                best_pred[node] = None
                continue
            # Deterministic tie-break: highest total first, then name order.
            best_upstream = None
            best_upstream_total = float("-inf")
            for pred in preds:
                total = best_total[pred]
                if total > best_upstream_total + 1e-12:
                    best_upstream_total = total
                    best_upstream = pred
            best_total[node] = best_upstream_total + node_weight
            best_pred[node] = best_upstream

        end_node = None
        end_total = float("-inf")
        for sink in sorted(self.sinks()):
            if best_total[sink] > end_total + 1e-12:
                end_total = best_total[sink]
                end_node = sink
        assert end_node is not None
        path: List[str] = []
        cursor: Optional[str] = end_node
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        path.reverse()
        return path, end_total

    def makespan(self, runtimes: Mapping[str, float]) -> float:
        """End-to-end latency of the workflow under per-function runtimes.

        Equal to the weight of the longest source-to-sink path: each function
        starts as soon as all its predecessors finish and runs for its own
        runtime, so the completion time of the last sink is the critical-path
        length.
        """
        _, total = self.longest_path(runtimes)
        return total

    def completion_times(self, runtimes: Mapping[str, float]) -> Dict[str, float]:
        """Finish time of every function under the dependency semantics."""
        finish: Dict[str, float] = {}
        for node in self._topological_order():
            preds = list(self._graph.predecessors(node))
            start = max((finish[p] for p in preds), default=0.0)
            finish[node] = start + float(runtimes[node])
        return finish

    # -- structural summaries --------------------------------------------------
    def communication_pattern(self) -> str:
        """Classify the DAG as ``'scatter'``, ``'broadcast'``, ``'chain'`` or
        ``'mixed'``.

        The paper (§IV-A) distinguishes scatter (fan-out from an early stage,
        e.g. Video Analysis and Chatbot) from broadcast (a source feeding
        several parallel branches that later join, e.g. ML Pipeline).  The
        heuristic here looks at where the maximum out-degree occurs.
        """
        if self.n_edges == 0:
            return "chain" if self.n_functions == 1 else "mixed"
        out_degrees = {n: self._graph.out_degree(n) for n in self._functions}
        max_out = max(out_degrees.values())
        if max_out <= 1:
            return "chain"
        order = self.topological_order()
        position = {name: i for i, name in enumerate(order)}
        fanout_nodes = [n for n, d in out_degrees.items() if d == max_out]
        earliest_fanout = min(position[n] for n in fanout_nodes)
        if earliest_fanout == 0:
            return "broadcast"
        return "scatter"

    def describe(self) -> str:
        """Multi-line human-readable summary of the workflow structure."""
        lines = [
            f"Workflow {self.name!r}: {self.n_functions} functions, "
            f"{self.n_edges} edges, pattern={self.communication_pattern()}"
        ]
        for name in self.topological_order():
            succ = ", ".join(self.successors(name)) or "(sink)"
            lines.append(f"  {name} -> {succ}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workflow(name={self.name!r}, functions={self.function_names!r})"

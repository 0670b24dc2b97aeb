"""Workflow DAG model.

A :class:`Workflow` is a directed acyclic graph whose nodes are serverless
functions (:class:`FunctionSpec`).  Edges express invocation/data dependencies:
a function starts once all of its predecessors have finished.  The model keeps
a single virtual entry and exit implicit — a workflow may have multiple source
or sink functions, and end-to-end latency is defined over the longest weighted
path from any source to any sink.

The graph is kept as insertion-ordered adjacency dicts (successors and
predecessors of every function).  :func:`reachable` and :func:`simple_paths`
work on any such ``node -> successors`` mapping, so the detour search and the
workload zoo share this module's graph format.

A workflow is immutable: its constructor checks the graph once and resolves
the topology into a :class:`WorkflowPlan`, which every execution engine reads
instead of re-deriving the order and adjacency itself.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

__all__ = [
    "FunctionSpec",
    "Workflow",
    "WorkflowPlan",
    "WorkflowValidationError",
    "reachable",
    "simple_paths",
]


class WorkflowValidationError(ValueError):
    """Raised when a workflow definition is structurally invalid."""


def reachable(adjacency: Mapping[str, Iterable[str]], source: str) -> Set[str]:
    """Every node reachable from ``source`` along the edges of ``adjacency``.

    ``adjacency`` maps each node to its successors.  ``source`` itself is
    excluded even when a cycle leads back to it.
    """
    seen = {source}
    stack = [source]
    while stack:
        for node in adjacency[stack.pop()]:
            if node not in seen:
                seen.add(node)
                stack.append(node)
    seen.discard(source)
    return seen


def simple_paths(
    adjacency: Mapping[str, Iterable[str]], source: str, target: str
) -> Iterator[List[str]]:
    """Every path from ``source`` to ``target`` that repeats no node.

    The search is depth-first and visits successors in the order
    ``adjacency`` lists them; a path ends at its first visit of ``target``.
    When ``source`` is ``target`` the one path is ``[source]``.
    """
    if source == target:
        yield [source]
        return
    path = [source]
    stack = [iter(adjacency[source])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            path.pop()
        elif node == target:
            yield path + [node]
        elif node not in path:
            path.append(node)
            stack.append(iter(adjacency[node]))


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


@dataclass(frozen=True)
class WorkflowPlan:
    """A workflow's topology as positions in its topological order.

    Built once by the :class:`Workflow` constructor.  A function's position
    is its index in ``names``; ``preds``, ``succs`` and ``roots`` hold
    positions.
    """

    #: Function names in the deterministic topological order.
    names: Tuple[str, ...]
    #: Name to position (inverts ``names``).
    index: Mapping[str, int]
    #: Positions of each function's predecessors, in name order of the
    #: predecessors (the order :meth:`Workflow.longest_path` breaks ties in).
    preds: Tuple[Tuple[int, ...], ...]
    #: Positions of each function's successors, ascending (the order the
    #: serving engines schedule successors that become ready together).
    succs: Tuple[Tuple[int, ...], ...]
    #: Ascending positions of the functions without predecessors.
    roots: Tuple[int, ...]


class Workflow:
    """An immutable DAG of serverless functions.

    Parameters
    ----------
    name:
        Workflow identifier (e.g. ``"chatbot"``).
    functions:
        The function specifications (order is preserved for reporting).
    edges:
        ``(upstream, downstream)`` pairs referencing function names; a
        repeated edge changes nothing.

    The constructor rejects self-loops, cycles and disconnected graphs, and
    builds :attr:`plan`.  There is no way to add an edge afterwards: build a
    new workflow instead.
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
        # Adjacency in insertion order; the inner dicts are ordered sets.
        self._succ: Dict[str, Dict[str, None]] = {name: {} for name in self._functions}
        self._pred: Dict[str, Dict[str, None]] = {name: {} for name in self._functions}
        for upstream, downstream in edges:
            self._add_edge(upstream, downstream)
        self._validate()
        #: The topology every engine reads; the workflow never changes after this.
        self.plan = self._build_plan()

    # -- construction ------------------------------------------------------
    def _add_edge(self, upstream: str, downstream: str) -> None:
        """Add a dependency edge ``upstream -> downstream``.

        Adding an edge that already exists changes nothing.
        """
        for endpoint in (upstream, downstream):
            if endpoint not in self._functions:
                raise WorkflowValidationError(
                    f"edge endpoint {endpoint!r} is not a function of workflow {self.name!r}"
                )
        if upstream == downstream:
            raise WorkflowValidationError(f"self-loop on {upstream!r} is not allowed")
        if downstream in self._succ[upstream]:
            return
        if upstream in reachable(self._succ, downstream):
            raise WorkflowValidationError(
                f"edge {upstream!r} -> {downstream!r} would create a cycle"
            )
        self._succ[upstream][downstream] = None
        self._pred[downstream][upstream] = None

    def _validate(self) -> None:
        """Check that the graph is non-empty and weakly connected."""
        if len(self._functions) == 0:
            raise WorkflowValidationError("workflow must contain at least one function")
        if self.n_edges > 0:
            neighbours = {
                name: list(self._succ[name]) + list(self._pred[name])
                for name in self._functions
            }
            first = next(iter(self._functions))
            if len(reachable(neighbours, first)) + 1 < len(self._functions):
                raise WorkflowValidationError(
                    "workflow graph must be weakly connected (got disconnected components)"
                )

    def _build_plan(self) -> WorkflowPlan:
        """Resolve the topology to positions in the topological order.

        Kahn's algorithm that always emits the ready function inserted
        first, so the order equals networkx's
        ``lexicographical_topological_sort`` keyed by insertion rank.  It
        reaches every function because :meth:`_add_edge` refuses cycles.
        """
        names = list(self._functions)
        rank = {name: i for i, name in enumerate(names)}
        waiting = {name: len(preds) for name, preds in self._pred.items()}
        # Ascending ranks, so the list is already a heap.
        ready = [rank[name] for name in names if waiting[name] == 0]
        order: List[str] = []
        while ready:
            node = names[heapq.heappop(ready)]
            order.append(node)
            for child in self._succ[node]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    heapq.heappush(ready, rank[child])
        index = {name: k for k, name in enumerate(order)}
        preds = tuple(tuple(index[p] for p in sorted(self._pred[name])) for name in order)
        return WorkflowPlan(
            names=tuple(order),
            index=index,
            preds=preds,
            succs=tuple(tuple(sorted(index[s] for s in self._succ[name])) for name in order),
            roots=tuple(k for k, upstream in enumerate(preds) if not upstream),
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
        return sum(len(successors) for successors in self._succ.values())

    @property
    def edges(self) -> List[Tuple[str, str]]:
        """All dependency edges, by upstream function then insertion order."""
        return [(u, v) for u, successors in self._succ.items() for v in successors]

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
        names = self.plan.names
        return [names[p] for p in self.plan.preds[self.plan.index[name]]]

    def successors(self, name: str) -> List[str]:
        """Direct downstream dependents of a function, sorted by name."""
        self.function(name)
        return sorted(self._succ[name])

    def sources(self) -> List[str]:
        """Functions with no predecessors (workflow entry points)."""
        return [n for n in self._functions if not self._pred[n]]

    def sinks(self) -> List[str]:
        """Functions with no successors (workflow exit points)."""
        return [n for n in self._functions if not self._succ[n]]

    def topological_order(self) -> List[str]:
        """A deterministic topological ordering of the functions.

        Ties are broken by insertion order so repeated calls always return the
        same ordering, which keeps simulation traces stable.
        """
        return list(self.plan.names)

    def ancestors(self, name: str) -> Set[str]:
        """All transitive predecessors of a function."""
        self.function(name)
        return reachable(self._pred, name)

    def descendants(self, name: str) -> Set[str]:
        """All transitive successors of a function."""
        self.function(name)
        return reachable(self._succ, name)

    def all_paths(self) -> List[List[str]]:
        """All source-to-sink paths (exponential in the worst case; the
        workflows in this reproduction are small)."""
        return [
            path
            for source in self.sources()
            for sink in self.sinks()
            for path in simple_paths(self._succ, source, sink)
        ]

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

        plan = self.plan
        # Per position: heaviest total of a path ending there, and the
        # position it came from.
        best_total: List[float] = []
        best_pred: List[Optional[int]] = []
        for name, preds in zip(plan.names, plan.preds):
            node_weight = float(weights[name])
            if not preds:
                best_total.append(node_weight)
                best_pred.append(None)
                continue
            # Deterministic tie-break: highest total first, then name order.
            best_upstream = None
            best_upstream_total = float("-inf")
            for pred in preds:
                total = best_total[pred]
                if total > best_upstream_total + 1e-12:
                    best_upstream_total = total
                    best_upstream = pred
            best_total.append(best_upstream_total + node_weight)
            best_pred.append(best_upstream)

        end_node = None
        end_total = float("-inf")
        for sink in sorted(self.sinks()):
            k = plan.index[sink]
            if best_total[k] > end_total + 1e-12:
                end_total = best_total[k]
                end_node = k
        assert end_node is not None
        path: List[str] = []
        cursor: Optional[int] = end_node
        while cursor is not None:
            path.append(plan.names[cursor])
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
        plan = self.plan
        finish: List[float] = []
        for name, preds in zip(plan.names, plan.preds):
            start = max((finish[p] for p in preds), default=0.0)
            finish.append(start + float(runtimes[name]))
        return dict(zip(plan.names, finish))

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
        out_degrees = {n: len(self._succ[n]) for n in self._functions}
        max_out = max(out_degrees.values())
        if max_out <= 1:
            return "chain"
        fanout_nodes = [n for n, d in out_degrees.items() if d == max_out]
        earliest_fanout = min(self.plan.index[n] for n in fanout_nodes)
        if earliest_fanout == 0:
            return "broadcast"
        return "scatter"

    def describe(self) -> str:
        """Multi-line human-readable summary of the workflow structure."""
        lines = [
            f"Workflow {self.name!r}: {self.n_functions} functions, "
            f"{self.n_edges} edges, pattern={self.communication_pattern()}"
        ]
        for name in self.plan.names:
            succ = ", ".join(self.successors(name)) or "(sink)"
            lines.append(f"  {name} -> {succ}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Workflow(name={self.name!r}, functions={self.function_names!r})"

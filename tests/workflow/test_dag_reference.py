"""networkx as the reference for the workflow DAG's own adjacency.

:class:`~repro.workflow.dag.Workflow` keeps its graph in insertion-ordered
dicts and walks it with :func:`~repro.workflow.dag.reachable` and
:func:`~repro.workflow.dag.simple_paths`.  These properties check it against
networkx, which is a test dependency only: the same accept or reject verdict
on arbitrary edge lists, and the same orders on every valid DAG (the orders
reach ``workflow_to_json`` and the simulators, so they are part of the
byte-identical contract).  The same checks pin ``workflow.plan``, the
integer topology every engine reads.
"""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.critical_path import find_critical_path, find_detour_subpaths
from repro.workflow.dag import (
    FunctionSpec,
    Workflow,
    WorkflowValidationError,
    reachable,
    simple_paths,
)
from repro.workloads.zoo import ZOO_FAMILIES, ZooConfig, generate_workflow

#: Function names; each example inserts a shuffled prefix, so insertion
#: order and name order differ.
NAMES = [f"fn-{letter}" for letter in "abcdefghijkl"]


@st.composite
def edge_lists(draw, max_functions=12, dag_half=True):
    """Functions in insertion order and an edge list over them.

    The edges may repeat and may hold self-loops, cycles and disconnected
    parts.  With ``dag_half`` every other example orients each edge along a
    hidden topological rank, so about half the examples are acyclic.
    """
    count = draw(st.integers(min_value=1, max_value=max_functions))
    names = draw(st.permutations(NAMES))[:count]
    index = st.integers(min_value=0, max_value=count - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * count))
    if dag_half and draw(st.booleans()):
        rank = draw(st.permutations(range(count)))
        pairs = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in pairs if a != b]
    return names, [(names[a], names[b]) for a, b in pairs]


def reference_graph(names, edges) -> nx.DiGraph:
    graph = nx.DiGraph()
    graph.add_nodes_from(names)
    graph.add_edges_from(edges)
    return graph


def reference_all_paths(graph):
    sources = [n for n in graph if graph.in_degree(n) == 0]
    sinks = [n for n in graph if graph.out_degree(n) == 0]
    paths = []
    for source in sources:
        for sink in sinks:
            # Older networkx versions yield no path when source is target.
            if source == sink:
                paths.append([source])
            else:
                paths.extend(nx.all_simple_paths(graph, source, sink))
    return paths


def reference_detours(graph, critical):
    """Algorithm 1's detour search, as it was written on networkx."""
    on_path = set(critical)
    position = {name: i for i, name in enumerate(critical)}
    detour_graph = graph.copy()
    detour_graph.remove_edges_from(
        [(u, v) for u, v in graph.edges() if u in on_path and v in on_path]
    )
    found = set()
    for start in critical:
        for end in critical[position[start] + 1:]:
            for path in nx.all_simple_paths(detour_graph, start, end):
                if len(path) > 2 and not on_path.intersection(path[1:-1]):
                    found.add(tuple(path))
    return sorted(found, key=lambda nodes: (position[nodes[0]], position[nodes[-1]], nodes))


def assert_plan_matches_networkx(workflow: Workflow, graph: nx.DiGraph) -> None:
    # plan.names is topological_order(), which assert_matches_networkx checks.
    plan = workflow.plan
    assert len(plan.index) == len(plan.names)
    assert all(plan.names[plan.index[name]] == name for name in graph)
    position = plan.index
    for k, name in enumerate(plan.names):
        # Predecessors in name order (longest_path's tie-break), successors
        # in position order (the engines' scheduling order).
        assert plan.preds[k] == tuple(position[p] for p in sorted(graph.predecessors(name)))
        assert plan.succs[k] == tuple(sorted(position[s] for s in graph.successors(name)))
    assert plan.roots == tuple(
        k for k, name in enumerate(plan.names) if graph.in_degree(name) == 0
    )


def assert_matches_networkx(workflow: Workflow, graph: nx.DiGraph, weights) -> None:
    assert_plan_matches_networkx(workflow, graph)
    rank = {name: i for i, name in enumerate(workflow.function_names)}
    assert workflow.topological_order() == list(
        nx.lexicographical_topological_sort(graph, key=rank.get)
    )
    assert workflow.edges == list(graph.edges())
    assert workflow.n_edges == graph.number_of_edges()
    assert workflow.all_paths() == reference_all_paths(graph)
    for name in workflow.function_names:
        assert workflow.ancestors(name) == nx.ancestors(graph, name)
        assert workflow.descendants(name) == nx.descendants(graph, name)
        assert workflow.predecessors(name) == sorted(graph.predecessors(name))
        assert workflow.successors(name) == sorted(graph.successors(name))
    runtimes = {name: float(weights[rank[name]]) for name in workflow.function_names}
    critical, _ = find_critical_path(workflow, runtimes)
    detours = find_detour_subpaths(workflow, critical)
    assert [detour.nodes for detour in detours] == reference_detours(graph, critical)


weight_lists = st.lists(st.integers(min_value=1, max_value=9), min_size=64, max_size=64)


@given(case=edge_lists(), weights=weight_lists)
@settings(max_examples=300, deadline=None)
def test_edge_lists_match_networkx(case, weights):
    names, edges = case
    graph = reference_graph(names, edges)
    valid = nx.is_directed_acyclic_graph(graph) and (
        graph.number_of_edges() == 0 or nx.is_weakly_connected(graph)
    )
    try:
        workflow = Workflow("w", [FunctionSpec(name) for name in names], edges)
    except WorkflowValidationError:
        assert not valid
        return
    assert valid
    assert_matches_networkx(workflow, graph, weights)


@pytest.mark.parametrize("family", ZOO_FAMILIES)
@given(
    seed=st.integers(min_value=0, max_value=99_999),
    # Small enough that enumerating every path stays cheap.
    width=st.integers(min_value=1, max_value=3),
    depth=st.integers(min_value=2, max_value=4),
    edge_density=st.sampled_from([0.0, 0.15, 0.35, 0.6, 1.0]),
    weights=weight_lists,
)
@settings(max_examples=20, deadline=None)
def test_zoo_workflows_match_networkx(family, seed, width, depth, edge_density, weights):
    workflow = generate_workflow(
        ZooConfig(family=family, seed=seed, width=width, depth=depth, edge_density=edge_density)
    )
    assert_matches_networkx(
        workflow, reference_graph(workflow.function_names, workflow.edges), weights
    )


def test_plan_orders_successors_by_position_and_predecessors_by_name():
    # Insertion order r, y, x, j puts y before x, against name order.
    workflow = Workflow(
        "w",
        [FunctionSpec(name) for name in ("r", "y", "x", "j")],
        [("r", "y"), ("r", "x"), ("y", "j"), ("x", "j")],
    )
    plan = workflow.plan
    assert plan.names == ("r", "y", "x", "j")
    assert [plan.names[s] for s in plan.succs[plan.index["r"]]] == ["y", "x"]
    assert workflow.successors("r") == ["x", "y"]
    assert [plan.names[p] for p in plan.preds[plan.index["j"]]] == ["x", "y"]
    assert workflow.predecessors("j") == ["x", "y"]
    assert plan.roots == (0,)


@given(case=edge_lists(max_functions=7, dag_half=False))
@settings(max_examples=200, deadline=None)
def test_helpers_match_networkx_on_any_digraph(case):
    """The helpers stay exact on graphs with cycles and self-loops."""
    names, edges = case
    graph = reference_graph(names, edges)
    adjacency = {name: list(graph.successors(name)) for name in names}
    for source in names:
        assert reachable(adjacency, source) == nx.descendants(graph, source)
        assert list(simple_paths(adjacency, source, source)) == [[source]]
        for target in names:
            if target != source:
                assert list(simple_paths(adjacency, source, target)) == list(
                    nx.all_simple_paths(graph, source, target)
                )

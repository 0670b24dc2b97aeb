"""Tests for the workflow DAG model."""

import pytest

from repro.workflow.dag import FunctionSpec, Workflow, WorkflowValidationError


def build_diamond() -> Workflow:
    return Workflow(
        name="diamond",
        functions=[FunctionSpec("a"), FunctionSpec("b"), FunctionSpec("c"), FunctionSpec("d")],
        edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
    )


class TestFunctionSpec:
    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowValidationError):
            FunctionSpec("")

    def test_profile_defaults_to_name(self):
        assert FunctionSpec("f").profile_name == "f"

    def test_explicit_profile(self):
        assert FunctionSpec("f", profile="shared").profile_name == "shared"


class TestWorkflowConstruction:
    def test_empty_name_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow(name="", functions=[FunctionSpec("a")])

    def test_no_functions_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow(name="w", functions=[])

    def test_duplicate_function_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow(name="w", functions=[FunctionSpec("a"), FunctionSpec("a")])

    def test_edge_to_unknown_function_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow(name="w", functions=[FunctionSpec("a")], edges=[("a", "b")])

    def test_self_loop_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow(name="w", functions=[FunctionSpec("a")], edges=[("a", "a")])

    def test_cycle_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow(
                name="w",
                functions=[FunctionSpec("a"), FunctionSpec("b")],
                edges=[("a", "b"), ("b", "a")],
            )

    def test_disconnected_components_rejected(self):
        with pytest.raises(WorkflowValidationError):
            Workflow(
                name="w",
                functions=[FunctionSpec("a"), FunctionSpec("b"), FunctionSpec("c"), FunctionSpec("d")],
                edges=[("a", "b"), ("c", "d")],
            )

    def test_single_function_workflow_allowed(self):
        workflow = Workflow(name="w", functions=[FunctionSpec("only")])
        assert workflow.sources() == ["only"]
        assert workflow.sinks() == ["only"]


class TestWorkflowQueries:
    def test_counts(self):
        workflow = build_diamond()
        assert workflow.n_functions == 4
        assert workflow.n_edges == 4
        assert len(workflow) == 4

    def test_contains_and_lookup(self):
        workflow = build_diamond()
        assert "a" in workflow
        assert workflow.function("a").name == "a"
        with pytest.raises(KeyError):
            workflow.function("z")

    def test_predecessors_successors(self):
        workflow = build_diamond()
        assert workflow.predecessors("d") == ["b", "c"]
        assert workflow.successors("a") == ["b", "c"]
        assert workflow.predecessors("a") == []

    def test_sources_and_sinks(self):
        workflow = build_diamond()
        assert workflow.sources() == ["a"]
        assert workflow.sinks() == ["d"]

    def test_topological_order_is_valid_and_deterministic(self):
        workflow = build_diamond()
        order = workflow.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")
        assert order == workflow.topological_order()

    def test_ancestors_descendants(self):
        workflow = build_diamond()
        assert workflow.ancestors("d") == {"a", "b", "c"}
        assert workflow.descendants("a") == {"b", "c", "d"}

    def test_all_paths(self):
        workflow = build_diamond()
        paths = workflow.all_paths()
        assert ["a", "b", "d"] in paths
        assert ["a", "c", "d"] in paths
        assert len(paths) == 2


class TestTopologyCache:
    """The topology is resolved once, into ``workflow.plan``; the public
    getters hand out copies, and nothing can change the graph afterwards."""

    def test_workflow_offers_no_way_to_add_edges(self):
        workflow = build_diamond()
        assert not hasattr(workflow, "add_edge")
        assert not hasattr(workflow, "validate")

    def test_mutating_returned_lists_does_not_corrupt_the_cache(self):
        workflow = build_diamond()
        order = workflow.topological_order()
        order.reverse()
        order.append("z")
        preds = workflow.predecessors("d")
        preds.clear()
        assert workflow.topological_order() == ["a", "b", "c", "d"]
        assert workflow.predecessors("d") == ["b", "c"]
        assert workflow.makespan({"a": 1.0, "b": 2.0, "c": 3.0, "d": 1.0}) == 5.0


class TestLongestPath:
    def test_picks_heavier_branch(self):
        workflow = build_diamond()
        weights = {"a": 1.0, "b": 10.0, "c": 2.0, "d": 1.0}
        path, total = workflow.longest_path(weights)
        assert path == ["a", "b", "d"]
        assert total == 12.0

    def test_missing_weight_raises(self):
        workflow = build_diamond()
        with pytest.raises(KeyError):
            workflow.longest_path({"a": 1.0})

    def test_negative_weight_raises(self):
        workflow = build_diamond()
        with pytest.raises(ValueError):
            workflow.longest_path({"a": 1.0, "b": -1.0, "c": 1.0, "d": 1.0})

    def test_makespan_equals_longest_path(self):
        workflow = build_diamond()
        weights = {"a": 1.0, "b": 5.0, "c": 7.0, "d": 2.0}
        assert workflow.makespan(weights) == 10.0

    def test_completion_times_respect_dependencies(self):
        workflow = build_diamond()
        weights = {"a": 1.0, "b": 5.0, "c": 7.0, "d": 2.0}
        finish = workflow.completion_times(weights)
        assert finish["a"] == 1.0
        assert finish["b"] == 6.0
        assert finish["c"] == 8.0
        assert finish["d"] == 10.0

    def test_tie_break_deterministic(self):
        workflow = build_diamond()
        weights = {"a": 1.0, "b": 3.0, "c": 3.0, "d": 1.0}
        path, _ = workflow.longest_path(weights)
        assert path == workflow.longest_path(weights)[0]


class TestPatternsAndDescribe:
    def test_diamond_is_broadcast_like(self):
        # The fan-out happens at the source, so it is classified broadcast.
        assert build_diamond().communication_pattern() == "broadcast"

    def test_chain_pattern(self):
        workflow = Workflow(
            name="chain",
            functions=[FunctionSpec("a"), FunctionSpec("b"), FunctionSpec("c")],
            edges=[("a", "b"), ("b", "c")],
        )
        assert workflow.communication_pattern() == "chain"

    def test_scatter_pattern(self):
        workflow = Workflow(
            name="scatter",
            functions=[
                FunctionSpec("start"),
                FunctionSpec("split"),
                FunctionSpec("w1"),
                FunctionSpec("w2"),
                FunctionSpec("join"),
            ],
            edges=[
                ("start", "split"),
                ("split", "w1"),
                ("split", "w2"),
                ("w1", "join"),
                ("w2", "join"),
            ],
        )
        assert workflow.communication_pattern() == "scatter"

    def test_describe_lists_functions(self):
        text = build_diamond().describe()
        for name in ("a", "b", "c", "d"):
            assert name in text

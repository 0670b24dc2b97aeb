"""Tests for workflow / configuration JSON (de)serialization."""

import json

import pytest

from repro.workflow.dag import FunctionSpec, Workflow, WorkflowValidationError
from repro.workflow.patterns import diamond_workflow
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration
from repro.workflow.serialization import (
    configuration_from_dict,
    configuration_to_dict,
    workflow_from_dict,
    workflow_from_json,
    workflow_to_dict,
    workflow_to_json,
)


class TestWorkflowRoundTrip:
    def test_dict_round_trip_preserves_structure(self):
        original = diamond_workflow()
        restored = workflow_from_dict(workflow_to_dict(original))
        assert restored.name == original.name
        assert restored.function_names == original.function_names
        assert sorted(restored.edges) == sorted(original.edges)

    def test_json_round_trip(self):
        original = diamond_workflow()
        restored = workflow_from_json(workflow_to_json(original))
        assert restored.function_names == original.function_names

    def test_json_is_valid_json(self):
        payload = json.loads(workflow_to_json(diamond_workflow()))
        assert payload["name"] == "diamond"
        assert payload["schema_version"] == 1

    def test_profile_and_tags_preserved(self):
        workflow = Workflow(
            name="w",
            functions=[
                FunctionSpec("a", description="first", profile="shared", tags=("io",)),
                FunctionSpec("b"),
            ],
            edges=[("a", "b")],
        )
        restored = workflow_from_dict(workflow_to_dict(workflow))
        assert restored.function("a").profile == "shared"
        assert restored.function("a").tags == ("io",)
        assert restored.function("a").description == "first"

    def test_unknown_schema_version_rejected(self):
        payload = workflow_to_dict(diamond_workflow())
        payload["schema_version"] = 99
        with pytest.raises(WorkflowValidationError):
            workflow_from_dict(payload)

    def test_missing_fields_rejected(self):
        with pytest.raises(WorkflowValidationError):
            workflow_from_dict({"name": "x"})


class TestConfigurationRoundTrip:
    def test_round_trip(self):
        original = WorkflowConfiguration(
            {"a": ResourceConfig(1.5, 512), "b": ResourceConfig(4, 2048)}
        )
        restored = configuration_from_dict(configuration_to_dict(original))
        assert restored == original

    def test_dict_layout(self):
        payload = configuration_to_dict(
            WorkflowConfiguration({"f": ResourceConfig(2, 1024)})
        )
        assert payload["functions"]["f"] == {"vcpu": 2, "memory_mb": 1024}

    def test_unknown_schema_version_rejected(self):
        payload = configuration_to_dict(WorkflowConfiguration({"f": ResourceConfig(1, 128)}))
        payload["schema_version"] = 42
        with pytest.raises(ValueError):
            configuration_from_dict(payload)

    def test_empty_configuration(self):
        restored = configuration_from_dict(configuration_to_dict(WorkflowConfiguration()))
        assert len(restored) == 0

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["vcpu", "memory_mb"])
    def test_non_finite_resources_rejected(self, field, literal):
        # json.loads accepts the NaN and Infinity literals; a NaN vCPU used to
        # be built and slipped past every `<=` comparison.
        item = {"vcpu": 1, "memory_mb": 128}
        text = json.dumps({"schema_version": 1, "functions": {"f": item}})
        text = text.replace(f'"{field}": {item[field]}', f'"{field}": {literal}')
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            configuration_from_dict(json.loads(text))

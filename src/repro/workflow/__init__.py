"""Serverless workflow DAG substrate.

A workflow is a directed acyclic graph of serverless functions.  This package
provides the data model (:class:`FunctionSpec`, :class:`Workflow` and its
:class:`WorkflowPlan`), resource configuration containers
(:class:`ResourceConfig`, :class:`WorkflowConfiguration`), SLO objects,
pattern builders for the DAG shapes used in the paper (chain / scatter /
broadcast) and JSON (de)serialization.
"""

from repro.workflow.resources import (
    ResourceConfig,
    WorkflowConfiguration,
    coupled_cpu_for_memory,
)
from repro.workflow.dag import FunctionSpec, Workflow, WorkflowPlan, WorkflowValidationError
from repro.workflow.slo import SLO, SLOViolation
from repro.workflow.patterns import (
    chain_workflow,
    scatter_workflow,
    broadcast_workflow,
    diamond_workflow,
)
from repro.workflow.serialization import (
    workflow_from_dict,
    workflow_from_json,
    workflow_to_dict,
    workflow_to_json,
    configuration_from_dict,
    configuration_to_dict,
)

__all__ = [
    "ResourceConfig",
    "WorkflowConfiguration",
    "coupled_cpu_for_memory",
    "FunctionSpec",
    "Workflow",
    "WorkflowPlan",
    "WorkflowValidationError",
    "SLO",
    "SLOViolation",
    "chain_workflow",
    "scatter_workflow",
    "broadcast_workflow",
    "diamond_workflow",
    "workflow_from_dict",
    "workflow_from_json",
    "workflow_to_dict",
    "workflow_to_json",
    "configuration_from_dict",
    "configuration_to_dict",
]

"""repro — reproduction of AARC (DAC 2025).

AARC automatically finds per-function, decoupled CPU/memory configurations
for serverless workflows that meet an end-to-end latency SLO at minimal cost.
This package re-implements the full system described in the paper — the
Graph-Centric Scheduler, the Priority Configurator and the Input-Aware
Configuration Engine — together with the substrates it needs (a workflow DAG
model, an execution simulator with analytic performance models, a pricing
model) and the baselines it is evaluated against (Bayesian Optimization and
MAFF gradient descent).

Quickstart
----------
>>> from repro import AARC, get_workload
>>> workload = get_workload("chatbot")
>>> objective = workload.build_objective()
>>> result = AARC().search(objective)
>>> result.found_feasible
True
"""

from repro.core import (
    AARC,
    AARCOptions,
    ConfigurationSpace,
    GraphCentricScheduler,
    InputAwareEngine,
    PriorityConfigurator,
    PriorityConfiguratorOptions,
    SchedulerOptions,
    SearchResult,
    WorkflowObjective,
)
from repro.execution import (
    BackendStats,
    CachingBackend,
    EvaluationBackend,
    ExecutorOptions,
    SimulatorBackend,
    VectorizedBackend,
    WorkflowExecutor,
    build_backend,
)
from repro.optimizers import (
    BayesianOptimizer,
    BayesianOptimizerOptions,
    GridSearchOptimizer,
    MAFFOptimizer,
    MAFFOptions,
    RandomSearchOptimizer,
)
from repro.pricing import PAPER_PRICING, PricingModel
from repro.workflow import (
    FunctionSpec,
    ResourceConfig,
    SLO,
    Workflow,
    WorkflowConfiguration,
)
from repro.workloads import get_workload, list_workloads

__version__ = "1.1.0"

__all__ = [
    "AARC",
    "AARCOptions",
    "ConfigurationSpace",
    "GraphCentricScheduler",
    "PriorityConfigurator",
    "PriorityConfiguratorOptions",
    "SchedulerOptions",
    "InputAwareEngine",
    "WorkflowObjective",
    "SearchResult",
    "WorkflowExecutor",
    "ExecutorOptions",
    "EvaluationBackend",
    "SimulatorBackend",
    "CachingBackend",
    "VectorizedBackend",
    "BackendStats",
    "build_backend",
    "BayesianOptimizer",
    "BayesianOptimizerOptions",
    "MAFFOptimizer",
    "MAFFOptions",
    "RandomSearchOptimizer",
    "GridSearchOptimizer",
    "PricingModel",
    "PAPER_PRICING",
    "Workflow",
    "FunctionSpec",
    "ResourceConfig",
    "WorkflowConfiguration",
    "SLO",
    "get_workload",
    "list_workloads",
    "__version__",
]

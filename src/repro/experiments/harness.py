"""Shared experiment plumbing: settings and per-workload method construction.

The paper compares three search methods (AARC, BO, MAFF) on three workloads.
This module centralises how each method is instantiated for a given workload
(base configurations, sample budgets, seeds) so the individual experiments and
the benchmark harness stay small and consistent with one another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.aarc import AARC, AARCOptions
from repro.core.config_space import ConfigurationSpace
from repro.core.configurator import PriorityConfiguratorOptions
from repro.core.objective import ConfigurationSearcher, SearchResult, WorkflowObjective
from repro.core.scheduler import SchedulerOptions
from repro.optimizers.bayesian import BayesianOptimizer, BayesianOptimizerOptions
from repro.optimizers.grid import GridSearchOptimizer
from repro.optimizers.maff import MAFFOptimizer, MAFFOptions
from repro.optimizers.random_search import RandomSearchOptimizer, RandomSearchOptions
from repro.utils.ranges import AT_LEAST_1, FINITE, check_fields
from repro.utils.rng import RngStream
from repro.workloads.base import WorkloadSpec
from repro.workloads.registry import get_workload

__all__ = [
    "ExperimentSettings",
    "make_searcher",
    "make_methods",
    "run_method_on_workload",
    "build_objective",
    "DEFAULT_METHODS",
    "DEFAULT_WORKLOADS",
]

#: Methods compared in the paper's evaluation, in presentation order.
DEFAULT_METHODS: List[str] = ["AARC", "BO", "MAFF"]

#: Workloads of the paper's evaluation, in presentation order.
DEFAULT_WORKLOADS: List[str] = ["chatbot", "ml-pipeline", "video-analysis"]


@dataclass(frozen=True)
class ExperimentSettings:
    """Knobs shared by all experiments.

    Attributes
    ----------
    seed:
        Root seed for every stochastic component.
    bo_samples:
        Evaluation budget of the Bayesian Optimization baseline (the paper
        uses 100 rounds).
    maff_samples:
        Evaluation cap of the MAFF baseline (it normally terminates earlier).
    aarc_configurator:
        Priority Configurator options used by AARC.
    search_noise:
        When True, searches observe noisy executions (the paper's searches run
        on a real, noisy platform); deterministic by default for reproducible
        unit results.
    backend:
        Evaluation substrate name (``"simulator"`` or ``"vectorized"`` — the
        latter serves whole evaluation batches from NumPy array kernels,
        bit-identical to the simulator).
    cache:
        Memoize deterministic evaluations behind a
        :class:`~repro.execution.backend.CachingBackend`.  Noisy searches
        bypass the cache automatically.
    """

    seed: int = FINITE.field(2025)
    bo_samples: int = AT_LEAST_1.field(100)
    maff_samples: int = AT_LEAST_1.field(100)
    aarc_configurator: PriorityConfiguratorOptions = field(
        default_factory=PriorityConfiguratorOptions
    )
    search_noise: bool = False
    backend: str = "simulator"
    cache: bool = False

    def __post_init__(self) -> None:
        check_fields(self)


def make_searcher(
    method: str,
    workload: WorkloadSpec,
    settings: Optional[ExperimentSettings] = None,
    config_space: Optional[ConfigurationSpace] = None,
) -> ConfigurationSearcher:
    """Instantiate one search method, tuned for a particular workload.

    The per-workload tuning mirrors the paper's setup: every method starts
    from the workload's over-provisioned initial configuration (AARC's base
    configuration, MAFF's initial memory) and searches the same decoupled
    space (BO, AARC) or its coupled projection (MAFF).
    """
    settings = settings if settings is not None else ExperimentSettings()
    space = config_space if config_space is not None else ConfigurationSpace()
    key = method.strip().upper()
    if key == "AARC":
        return AARC(
            config_space=space,
            options=AARCOptions(
                configurator=settings.aarc_configurator,
                scheduler=SchedulerOptions(base_config=workload.base_config),
            ),
        )
    if key == "BO":
        return BayesianOptimizer(
            config_space=space,
            options=BayesianOptimizerOptions(
                max_samples=settings.bo_samples, seed=settings.seed
            ),
        )
    if key == "MAFF":
        return MAFFOptimizer(
            config_space=space,
            options=MAFFOptions(
                initial_memory_mb=workload.base_config.memory_mb,
                max_samples=settings.maff_samples,
            ),
        )
    if key == "RANDOM":
        return RandomSearchOptimizer(
            config_space=space,
            options=RandomSearchOptions(max_samples=settings.bo_samples, seed=settings.seed),
        )
    if key == "GRID":
        return GridSearchOptimizer(config_space=space)
    raise KeyError(
        f"unknown method {method!r}; expected one of AARC, BO, MAFF, Random, Grid"
    )


def make_methods(
    workload: WorkloadSpec,
    methods: Sequence[str] = tuple(DEFAULT_METHODS),
    settings: Optional[ExperimentSettings] = None,
) -> Dict[str, ConfigurationSearcher]:
    """Instantiate every requested method for one workload."""
    return {name: make_searcher(name, workload, settings) for name in methods}


def run_method_on_workload(
    method: str,
    workload_name: str,
    settings: Optional[ExperimentSettings] = None,
    input_scale: Optional[float] = None,
) -> SearchResult:
    """Convenience wrapper: build the workload, the objective and run one search."""
    settings = settings if settings is not None else ExperimentSettings()
    workload = get_workload(workload_name)
    searcher = make_searcher(method, workload, settings)
    objective = build_objective(workload, settings, input_scale=input_scale)
    return searcher.search(objective)


def build_objective(
    workload: WorkloadSpec,
    settings: ExperimentSettings,
    input_scale: Optional[float] = None,
) -> WorkflowObjective:
    """Build a workload objective honouring the settings' backend knobs."""
    rng = None
    if settings.search_noise:
        from repro.perfmodel.noise import LognormalNoise

        executor = workload.build_executor(noise=LognormalNoise(0.02))
        rng = RngStream(settings.seed, f"search/{workload.name}")
    else:
        executor = workload.build_executor()
    backend = workload.build_backend(
        executor=executor,
        backend=settings.backend,
        cache=settings.cache,
    )
    return workload.build_objective(
        executor=executor, input_scale=input_scale, rng=rng, backend=backend
    )

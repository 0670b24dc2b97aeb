"""Bayesian Optimization baseline (Bilal et al., adapted to workflows).

The method searches the *decoupled* per-function space directly: a workflow
with ``n`` functions becomes a ``2n``-dimensional box (normalised CPU and
memory per function), a Gaussian-process surrogate models the SLO-penalised
cost, and an acquisition function picks the next configuration to sample.
Exactly as the paper observes, the space grows quickly with workflow size and
the search needs many samples and fluctuates heavily — that behaviour is what
the motivation experiment (Fig. 3) and the comparison figures reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config_space import ConfigurationSpace
from repro.core.objective import (
    ConfigurationSearcher,
    EvaluationResult,
    SearchResult,
    WorkflowObjective,
)
from repro.optimizers.acquisition import AcquisitionFunction, ExpectedImprovement
from repro.optimizers.gp import GaussianProcessRegressor, Matern52Kernel
from repro.utils.ranges import AT_LEAST_1, FINITE, NON_NEGATIVE, POSITIVE, check_fields
from repro.utils.rng import RngStream
from repro.workflow.resources import WorkflowConfiguration

__all__ = ["BayesianOptimizerOptions", "BayesianOptimizer", "SurrogateState"]


@dataclass
class SurrogateState:
    """A live GP surrogate carried across successive searches.

    The adaptive reconfiguration controller re-runs the optimizer every time
    traffic drifts; refitting a surrogate from scratch each time would both
    waste the observations already paid for and cost O(n³) per re-tune.  A
    ``SurrogateState`` owns the surrogate model plus the encoded observation
    history; passing it to :meth:`BayesianOptimizer.search` warm-starts the
    search (the initial design is skipped, new observations extend the model
    through the incremental O(n²) Cholesky
    :meth:`~repro.optimizers.gp.GaussianProcessRegressor.update`) and the
    state is updated in place for the next re-tune.

    Observations recorded under earlier traffic phases keep informing the
    surrogate as a prior over the cost surface; fresh observations under the
    current phase's objective correct it where the phases disagree.
    """

    model: Optional["GaussianProcessRegressor"] = None
    observed_x: List[np.ndarray] = field(default_factory=list)
    observed_y: List[float] = field(default_factory=list)

    @property
    def observation_count(self) -> int:
        """Observations accumulated across all searches so far."""
        return len(self.observed_y)

    @property
    def is_warm(self) -> bool:
        """Whether a fitted surrogate and observations are available."""
        return (
            self.model is not None and self.model.is_fitted and bool(self.observed_y)
        )


@dataclass(frozen=True)
class BayesianOptimizerOptions:
    """Tunables of the BO baseline.

    Attributes
    ----------
    max_samples:
        Total evaluation budget (the paper uses 100 rounds).
    n_initial_samples:
        Random configurations evaluated before the surrogate is trusted.
    n_candidates:
        Random candidate points scored by the acquisition function per round.
    kernel_length_scale:
        Length scale of the Matérn 5/2 surrogate kernel (inputs are
        normalised to the unit box).
    slo_penalty_factor:
        Multiplier applied to the relative SLO violation when folding
        infeasibility into the scalar objective the surrogate models.
    seed:
        Seed of the optimizer's internal randomness (candidate generation and
        initial design); independent of execution noise.
    surrogate_updates:
        When True (the default), the GP surrogate is fitted once on the
        initial design and then *extended* with each new observation via an
        incremental Cholesky update
        (:meth:`~repro.optimizers.gp.GaussianProcessRegressor.update`),
        dropping the per-round surrogate cost from O(n³) to O(n²).  False
        refits from scratch every round (the historical behaviour); both
        paths produce the same search trajectory.
    include_generous_initial:
        Evaluate one over-provisioned configuration (every function at the
        top of the grid) as part of the initial design, mirroring how the
        paper's adapted BO starts from a known-feasible configuration.
    """

    max_samples: int = AT_LEAST_1.field(100)
    n_initial_samples: int = AT_LEAST_1.field(8)
    n_candidates: int = AT_LEAST_1.field(512)
    kernel_length_scale: float = POSITIVE.field(0.25)
    slo_penalty_factor: float = NON_NEGATIVE.field(10.0)
    seed: int = FINITE.field(0)
    surrogate_updates: bool = True
    include_generous_initial: bool = True

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_initial_samples > self.max_samples:
            raise ValueError("n_initial_samples cannot exceed max_samples")


class BayesianOptimizer(ConfigurationSearcher):
    """GP-surrogate search over the decoupled per-function configuration space."""

    name = "BO"

    def __init__(
        self,
        config_space: Optional[ConfigurationSpace] = None,
        options: Optional[BayesianOptimizerOptions] = None,
        acquisition: Optional[AcquisitionFunction] = None,
    ) -> None:
        self.config_space = config_space if config_space is not None else ConfigurationSpace()
        self.options = options if options is not None else BayesianOptimizerOptions()
        self.acquisition = acquisition if acquisition is not None else ExpectedImprovement()

    # -- search -----------------------------------------------------------------
    def search(
        self,
        objective: WorkflowObjective,
        state: Optional[SurrogateState] = None,
    ) -> SearchResult:
        """Run the Bayesian optimisation loop against an objective.

        Parameters
        ----------
        objective:
            The objective to optimise (its ``max_samples`` bounds the run).
        state:
            Optional :class:`SurrogateState` warm-starting the search from a
            surrogate fitted by earlier searches.  When warm, the initial
            design is skipped entirely — every evaluation in this run's
            budget is acquisition-guided — and the state's model and
            observation lists are extended in place, so successive re-tunes
            keep one live surrogate instead of refitting from scratch.
        """
        function_names = objective.function_names
        rng = RngStream(self.options.seed, f"bo/{objective.workflow.name}")
        budget = self._budget(objective)
        # ``budget`` is how many evaluations *this* search may perform; the
        # objective may already carry samples (e.g. the controller evaluates
        # the incumbent first), so the loop targets the cumulative count.
        target = objective.sample_count + budget

        observed_x = state.observed_x if state is not None else []
        observed_y = state.observed_y if state is not None else []
        warm = state is not None and state.is_warm
        model: Optional[GaussianProcessRegressor] = state.model if warm else None
        best: Optional[EvaluationResult] = None
        # Warm-start observations were recorded under *earlier* objectives
        # (other traffic mixtures, other effective SLOs); they inform the
        # surrogate but must not define the acquisition incumbent — a stale,
        # unattainably low best would flatten EI over every candidate of the
        # current objective.  Only y-values observed by *this* search count.
        session_start = len(observed_y)

        if not warm:
            # The initial design has no sequential dependency, so it is
            # submitted as one batch (parallel backends fan it out, caches
            # serve repeats).
            initial_design: List[WorkflowConfiguration] = []
            n_initial = min(self.options.n_initial_samples, budget)
            if self.options.include_generous_initial and budget > 0:
                initial_design.append(
                    WorkflowConfiguration.uniform(function_names, self.config_space.max_config())
                )
                n_initial = max(0, min(n_initial, budget - 1))
            initial_design.extend(
                self.config_space.random_configuration(function_names, rng.child("init", index))
                for index in range(n_initial)
            )
            for result in objective.evaluate_batch(initial_design, phase="bo-init"):
                best = self._record_observation(
                    objective, result, observed_x, observed_y, best
                )

        round_index = 0
        while objective.sample_count < target:
            if model is None or not self.options.surrogate_updates:
                # Full refit: O(n³) in the observation count.
                model = self._fit_surrogate(observed_x, observed_y)
            candidates = self._candidate_matrix(len(function_names), rng.child("cand", round_index))
            session_y = observed_y[session_start:]
            if session_y:
                incumbent = min(session_y)
            else:
                # First warm round: no current-objective observation exists
                # yet, and the stale minimum may be unattainably low under
                # this objective (flattening EI to noise).  The surrogate's
                # own best posterior mean over the candidates is the most
                # informative incumbent available.
                incumbent = float(
                    np.min(model.predict(candidates, return_std=False)[0])
                )
            scores = self.acquisition.score(model, candidates, best_observed=incumbent)
            chosen = candidates[int(np.argmax(scores))]
            configuration = self.config_space.decode(chosen, function_names)
            best = self._observe(
                objective, configuration, observed_x, observed_y, best, phase="bo"
            )
            if self.options.surrogate_updates:
                # Extend the fitted surrogate with the newest observation via
                # an O(n²) incremental Cholesky update instead of refitting.
                model.update(observed_x[-1][None, :], [observed_y[-1]])
            round_index += 1

        if state is not None:
            if model is None and observed_y:
                # The budget was consumed by the initial design alone; fit
                # the surrogate anyway so the *next* search starts warm.
                model = self._fit_surrogate(observed_x, observed_y)
            state.model = model

        return objective.make_result(self.name, best)

    # -- helpers -----------------------------------------------------------------
    def _budget(self, objective: WorkflowObjective) -> int:
        if objective.max_samples is None:
            return self.options.max_samples
        remaining = objective.max_samples - objective.sample_count
        return max(0, min(self.options.max_samples, remaining))

    def _observe(
        self,
        objective: WorkflowObjective,
        configuration,
        observed_x: List[np.ndarray],
        observed_y: List[float],
        best: Optional[EvaluationResult],
        phase: str,
    ) -> Optional[EvaluationResult]:
        result = objective.evaluate(configuration, phase=phase)
        return self._record_observation(objective, result, observed_x, observed_y, best)

    def _record_observation(
        self,
        objective: WorkflowObjective,
        result: EvaluationResult,
        observed_x: List[np.ndarray],
        observed_y: List[float],
        best: Optional[EvaluationResult],
    ) -> Optional[EvaluationResult]:
        observed_x.append(
            self.config_space.encode(result.configuration, objective.function_names)
        )
        observed_y.append(self._scalar_objective(result, objective))
        if result.feasible and (best is None or result.cost < best.cost):
            return result
        return best

    def _scalar_objective(self, result: EvaluationResult, objective: WorkflowObjective) -> float:
        """Cost with SLO violations folded in as a multiplicative penalty."""
        value = result.cost
        if not result.succeeded:
            # An OOM run gives little cost signal; penalise it strongly so the
            # surrogate steers away from infeasible regions.
            return value * (1.0 + self.options.slo_penalty_factor)
        if not result.slo_met:
            violation = (
                result.runtime_seconds - objective.slo.latency_limit
            ) / objective.slo.latency_limit
            value *= 1.0 + self.options.slo_penalty_factor * violation
        return value

    def _fit_surrogate(
        self, observed_x: List[np.ndarray], observed_y: List[float]
    ) -> GaussianProcessRegressor:
        model = GaussianProcessRegressor(
            kernel=Matern52Kernel(length_scale=self.options.kernel_length_scale),
            noise_variance=1e-6,
            normalize_y=True,
        )
        model.fit(np.vstack(observed_x), np.asarray(observed_y))
        return model

    def _candidate_matrix(self, n_functions: int, rng: RngStream) -> np.ndarray:
        dim = self.config_space.dimensionality(n_functions)
        return rng.generator.uniform(0.0, 1.0, size=(self.options.n_candidates, dim))

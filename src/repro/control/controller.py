"""Closed-loop reconfiguration: drift → re-tune → rollout, inside a run.

The offline search layer answers "which configuration is cheapest under the
SLO for *this* traffic?"; the serving layer answers "does that configuration
hold up under load?".  The :class:`ReconfigurationController` closes the
loop between them at runtime: it watches the live request stream through a
:class:`~repro.control.monitor.SlidingWindowMonitor`, lets a pluggable
:class:`~repro.control.drift.DriftDetector` decide when the traffic no
longer matches what the active configuration was tuned for, re-runs the
optimizer against the *observed* traffic profile (a
:class:`MixtureObjective` over the window's input-scale mix, served by the
vectorized backend and warm-started from a live GP surrogate via the
incremental :meth:`~repro.optimizers.gp.GaussianProcessRegressor.update`),
and hands the candidate to a pluggable
:class:`~repro.control.rollout.RolloutPolicy` (immediate, canary-fraction
with automatic rollback on SLO regression, or drain-and-switch).

Everything is deterministic: the controller runs inline within the serving
simulator's existing arrival/completion events (it schedules nothing of its
own), re-tune seeds derive from the controller seed and the re-tune index,
and canary routing is credit-counter based.  A controller whose detector
never fires leaves the run byte-identical to a static one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.control.drift import DriftDetector
from repro.control.monitor import CompletionRecord, SlidingWindowMonitor, WindowSnapshot
from repro.control.rollout import RolloutDecision, RolloutPolicy
from repro.core.aarc import AARC, AARCOptions
from repro.core.config_space import ConfigurationSpace
from repro.core.objective import EvaluationResult, WorkflowObjective
from repro.core.scheduler import SchedulerOptions
from repro.execution.backend import EvaluationBackend
from repro.execution.events import RequestArrival
from repro.execution.serving import ServedRequest
from repro.optimizers.bayesian import (
    BayesianOptimizer,
    BayesianOptimizerOptions,
    SurrogateState,
)
from repro.utils.ranges import (
    AT_LEAST_0,
    AT_LEAST_1,
    NON_NEGATIVE,
    POSITIVE,
    Range,
    check_fields,
)
from repro.utils.rng import derive_seed
from repro.workflow.dag import Workflow
from repro.workflow.resources import ResourceConfig, WorkflowConfiguration
from repro.workflow.slo import SLO

__all__ = [
    "ControllerOptions",
    "ControlEvent",
    "ConfigVersionInfo",
    "ControlSummary",
    "MixtureObjective",
    "ReconfigurationController",
]


#: A non-empty share of a whole, such as an SLO fraction or an attainment target.
_SHARE = Range(0.0, 1.0, lo_open=True)


@dataclass(frozen=True)
class ControllerOptions:
    """Tunables of the reconfiguration controller.

    Attributes
    ----------
    window_seconds:
        Monitor window the drift detectors observe.
    min_window_completions:
        Completions the window must hold before drift is checked at all
        (early-run statistics are too thin to act on).
    min_retune_interval_seconds:
        Cooldown between consecutive re-tunes (measured from the previous
        re-tune or rollout resolution).
    check_interval_seconds:
        Minimum event-loop time between drift *checks* (each check builds a
        full window snapshot, which sorts and re-aggregates the window —
        wasteful per completion at high rates).  ``None`` derives
        ``window_seconds / 20``; ``0`` checks on every completion.
    retune_method:
        ``"AARC"`` (the default) re-tunes with the paper's trace-guided
        scheduler/configurator, which converges on its own in tens of
        samples; ``"BO"`` re-tunes with Bayesian optimisation warm-started
        from the live GP surrogate.  The repo's own Fig. 3 reproduction
        shows why AARC is the default: decoupled-space BO fluctuates and
        needs hundreds of samples, which an online re-tune does not have.
    retune_samples:
        Evaluation budget of each ``"BO"`` re-tune (AARC terminates on its
        own and ignores this).
    warm_start:
        Keep one live GP surrogate across ``"BO"`` re-tunes (incremental
        Cholesky updates) instead of refitting from scratch each time.
    queueing_headroom:
        Tighten the re-tune SLO by the observed mean queueing delay, so the
        optimizer leaves room for contention: a config whose *service* time
        fits ``limit - queueing`` still meets the end-to-end SLO under the
        observed load.
    min_slo_fraction:
        Tightening is applied only while the resulting fraction stays at or
        above this floor.  Deeper overload (queueing eating more of the
        budget than that) means no uncontended-latency target is attainable
        anyway — the re-tune then optimises at the full SLO, where
        minimising cost maximises work-efficiency and therefore serving
        capacity, which is what actually drains the queue.
    attainment_target:
        Fraction of the observed input mix (by weight) that must meet the
        SLO for a candidate to count as feasible (1.0 = every observed
        class).
    max_retunes:
        Optional hard cap on re-tunes per run.
    """

    window_seconds: float = POSITIVE.field(60.0)
    min_window_completions: int = AT_LEAST_1.field(8)
    min_retune_interval_seconds: float = NON_NEGATIVE.field(30.0)
    check_interval_seconds: Optional[float] = NON_NEGATIVE.field(None)
    retune_method: str = "AARC"
    retune_samples: int = Range(2, math.inf, hi_open=True, integer=True).field(16)
    warm_start: bool = True
    queueing_headroom: bool = True
    min_slo_fraction: float = _SHARE.field(0.5)
    attainment_target: float = _SHARE.field(1.0)
    max_retunes: Optional[int] = AT_LEAST_0.field(None)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.retune_method.strip().upper() not in {"AARC", "BO"}:
            raise ValueError("retune_method must be 'AARC' or 'BO'")


@dataclass(frozen=True)
class ControlEvent:
    """One entry of the controller's timeline."""

    time: float
    kind: str  # drift | retune | retune-failed | retune-noop | promote | rollback
    detail: str
    version: Optional[int] = None


@dataclass
class ConfigVersionInfo:
    """One configuration version the controller created or inherited."""

    version: int
    configuration: WorkflowConfiguration
    created_at: float
    reason: str
    rejected: bool = False


@dataclass
class ControlSummary:
    """Everything one adaptive run's control loop did, for reporting."""

    detector: str
    rollout: str
    events: List[ControlEvent]
    versions: List[ConfigVersionInfo]
    final_version: int
    retunes: int
    promotions: int
    rollbacks: int
    failed_retunes: int
    retune_samples_total: int
    version_completions: Dict[int, int] = field(default_factory=dict)
    transition_unresolved: bool = False

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.retunes} re-tunes ({self.promotions} promoted, "
            f"{self.rollbacks} rolled back, {self.failed_retunes} infeasible) "
            f"via {self.detector} / {self.rollout}, "
            f"{self.retune_samples_total} re-tune samples, "
            f"final version v{self.final_version}"
        )


class MixtureObjective(WorkflowObjective):
    """Objective over an *observed* input-scale mixture.

    A re-tune must optimise for the traffic actually being served, not the
    paper's standard input: each candidate configuration is evaluated at
    every observed class scale (``evaluate_batch`` submits one whole batch
    per scale, so a vectorized backend serves each scale in a single array
    pass) and the results are combined by the observed weights — cost is the
    expected cost per request under the mix, runtime the weighted mean
    latency, and feasibility requires classes covering at least
    ``attainment_target`` of the weight to *succeed and* meet the SLO
    individually.  An ``attainment_target`` below 1.0 deliberately lets the
    optimiser sacrifice a vanishing tail of the mix (e.g. the last few
    heavy requests of a phase that is draining away) in exchange for a
    configuration matched to the dominant traffic.

    The recorded trace is the dominant (highest-weight, heaviest on ties)
    component's trace, so trace-guided searchers see the mixture's most
    representative execution.
    """

    def __init__(
        self,
        workflow: Workflow,
        slo: SLO,
        mixture: Sequence[Tuple[float, float]],
        backend: EvaluationBackend,
        max_samples: Optional[int] = None,
        attainment_target: float = 1.0,
    ) -> None:
        super().__init__(
            workflow=workflow, slo=slo, backend=backend, max_samples=max_samples
        )
        components = [(float(scale), float(weight)) for scale, weight in mixture]
        if not components or any(s <= 0 or w < 0 for s, w in components):
            raise ValueError("mixture needs positive scales and non-negative weights")
        total = sum(weight for _, weight in components)
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        self.mixture = sorted((s, w / total) for s, w in components if w > 0)
        self.attainment_target = float(_SHARE.check(attainment_target, "attainment_target"))
        # Dominant component: highest weight, heaviest scale on ties.
        self._dominant = max(range(len(self.mixture)),
                             key=lambda i: (self.mixture[i][1], self.mixture[i][0]))

    def _combine(self, configuration: WorkflowConfiguration, traces) -> EvaluationResult:
        runtime = 0.0
        cost = 0.0
        met_weight = 0.0
        success_weight = 0.0
        for (scale, weight), trace in zip(self.mixture, traces):
            runtime += weight * trace.end_to_end_latency
            cost += weight * trace.total_cost
            if trace.succeeded:
                success_weight += weight
                if self.slo.is_met(trace.end_to_end_latency):
                    met_weight += weight
        target = self.attainment_target - 1e-12
        return EvaluationResult(
            configuration=configuration,
            runtime_seconds=runtime,
            cost=cost,
            slo_met=met_weight >= target,
            succeeded=success_weight >= target,
            trace=traces[self._dominant],
        )

    def evaluate(
        self, configuration: WorkflowConfiguration, phase: str = "retune"
    ) -> EvaluationResult:
        self._check_budget(1)
        traces = [
            self.backend.evaluate(self.workflow, configuration, input_scale=scale)
            for scale, _ in self.mixture
        ]
        result = self._combine(configuration, traces)
        self.history.record(result, phase=phase)
        return result

    def evaluate_batch(
        self, configurations: Sequence[WorkflowConfiguration], phase: str = "retune"
    ) -> List[EvaluationResult]:
        configurations = list(configurations)
        if not configurations:
            return []
        self._check_budget(len(configurations))
        per_scale = [
            self.backend.evaluate_batch(
                self.workflow, configurations, input_scale=scale
            )
            for scale, _ in self.mixture
        ]
        results: List[EvaluationResult] = []
        for column, configuration in enumerate(configurations):
            traces = [per_scale[row][column] for row in range(len(self.mixture))]
            result = self._combine(configuration, traces)
            self.history.record(result, phase=phase)
            results.append(result)
        return results


class ReconfigurationController:
    """Online drift-aware reconfiguration wired into the serving simulator.

    Pass an instance as ``controller=`` to
    :meth:`~repro.execution.serving.ServingSimulator.run`.  The simulator
    calls :meth:`bind` once at run start, :meth:`observe_arrival` +
    :meth:`assign` per arrival, and :meth:`observe_completion` per
    completion; everything else (drift checks, re-tune searches, rollout
    stepping, warm-pool retargeting) happens inside those calls.

    Parameters
    ----------
    workflow / slo:
        What is being served and against which latency objective.
    initial_configuration:
        Version 0 — the offline-tuned configuration the run starts with.
    detector:
        Drift detector deciding *when* to re-tune.
    rollout:
        Rollout policy deciding *how* a candidate reaches traffic.
    backend:
        Evaluation substrate for re-tune sweeps (typically a
        ``CachingBackend(VectorizedBackend(...))`` stack; when the backend
        supports :meth:`~repro.execution.backend.CachingBackend.set_context`,
        each re-tune keys its entries on the observed phase signature so
        cross-phase entries are never read).
    options:
        Controller tunables.
    seed:
        Root seed for re-tune searches (re-tune ``k`` derives its own seed).
    config_space:
        Search space of re-tunes; defaults to the standard space.
    base_config:
        Over-provisioned per-function starting point for AARC re-tunes;
        defaults to the top of the configuration grid.
    """

    def __init__(
        self,
        workflow: Workflow,
        slo: SLO,
        initial_configuration: WorkflowConfiguration,
        detector: DriftDetector,
        rollout: RolloutPolicy,
        backend: EvaluationBackend,
        options: Optional[ControllerOptions] = None,
        seed: int = 2025,
        config_space: Optional[ConfigurationSpace] = None,
        base_config: Optional[ResourceConfig] = None,
        name: str = "",
    ) -> None:
        # Fleet serving runs one controller per tenant, often against one
        # shared memoizing backend; the name namespaces cache contexts (and
        # labels reports) so tenants never read back each other's entries.
        self.name = str(name)
        self.workflow = workflow
        self.slo = slo
        self.detector = detector
        self.rollout = rollout
        self.backend = backend
        self.options = options if options is not None else ControllerOptions()
        self.seed = int(seed)
        self.config_space = (
            config_space if config_space is not None else ConfigurationSpace()
        )
        self.base_config = (
            base_config if base_config is not None else self.config_space.max_config()
        )
        self.rollout.bind(slo)
        self.monitor = SlidingWindowMonitor(self.options.window_seconds, slo=slo)
        self.surrogate = SurrogateState()
        self.versions: List[ConfigVersionInfo] = [
            ConfigVersionInfo(0, initial_configuration, 0.0, "initial")
        ]
        self.timeline: List[ControlEvent] = []
        self.retunes = 0
        self.promotions = 0
        self.rollbacks = 0
        self.failed_retunes = 0
        self.retune_samples_total = 0
        self._active_version = 0
        self._transition: Optional[Tuple[int, int]] = None
        self._assigned: Dict[int, int] = {}
        self._inflight: Set[int] = set()
        self._version_completions: Dict[int, int] = {}
        self._last_retune_time = -math.inf
        self._last_check_time = -math.inf
        self._check_interval = (
            self.options.check_interval_seconds
            if self.options.check_interval_seconds is not None
            else self.options.window_seconds / 20.0
        )
        self._pool = None

    # -- wiring (called by the serving simulator) ---------------------------------
    def bind(self, pool=None) -> None:
        """Attach the run's shared warm pool (retargeted on rollouts)."""
        self._pool = pool

    @property
    def active_version(self) -> int:
        """The configuration version non-canary arrivals are assigned."""
        return self._active_version

    @property
    def active_configuration(self) -> WorkflowConfiguration:
        """The configuration of the active version."""
        return self.versions[self._active_version].configuration

    @property
    def in_transition(self) -> bool:
        """Whether a rollout is currently in progress."""
        return self._transition is not None

    def version_of(self, index: int) -> int:
        """The configuration version request ``index`` was assigned."""
        return self._assigned.get(index, 0)

    def assign(self, index: int, request: RequestArrival) -> WorkflowConfiguration:
        """Choose the configuration (and version) for one arriving request."""
        if self._transition is not None:
            version = self.rollout.assign_version(index)
        else:
            version = self._active_version
        self._assigned[index] = version
        self._inflight.add(index)
        return self.versions[version].configuration

    def observe_arrival(self, now: float, request: RequestArrival) -> None:
        """Feed one arrival into the monitor."""
        self.monitor.observe_arrival(now, request)

    def observe_rejection(self, now: float, index: int) -> None:
        """A previously assigned request was rejected (it never completes).

        The index leaves the in-flight set, and an active rollout gets to
        re-evaluate — a ``drain`` waiting on the rejected request would
        otherwise never resolve.
        """
        self._inflight.discard(index)
        if self._transition is not None:
            decision = self.rollout.on_rejection(now, index, self.version_of(index))
            if decision is RolloutDecision.PROMOTE:
                self._promote(now)
            elif decision is RolloutDecision.ROLLBACK:
                # e.g. a canary whose cohort keeps being rejected outright.
                self._rollback(now)

    def observe_protection(self, now: float, kind: str, detail: str) -> None:
        """Record one protection-layer decision on the control timeline.

        The serving layer's :class:`~repro.execution.protection.ProtectionGuard`
        reports breaker transitions and shed-level changes here, so an
        adaptive run's timeline interleaves *defensive* state changes with
        the controller's own drift/re-tune/rollout events — an operator
        reading the summary sees both control planes in one place.
        """
        self.timeline.append(ControlEvent(now, f"protection-{kind}", detail))

    def observe_completion(self, now: float, outcome: ServedRequest) -> None:
        """Feed one completion; may step a rollout or trigger a re-tune."""
        record = CompletionRecord.from_outcome(outcome)
        self._inflight.discard(record.index)
        self._version_completions[record.config_version] = (
            self._version_completions.get(record.config_version, 0) + 1
        )
        self.monitor.observe_completion(now, record)
        if self._transition is not None:
            decision = self.rollout.on_completion(now, record)
            if decision is RolloutDecision.PROMOTE:
                self._promote(now)
            elif decision is RolloutDecision.ROLLBACK:
                self._rollback(now)
            return
        if self.monitor.completion_count < self.options.min_window_completions:
            return
        if now - self._last_retune_time < self.options.min_retune_interval_seconds:
            return
        if (
            self.options.max_retunes is not None
            and self.retunes >= self.options.max_retunes
        ):
            return
        if not self.detector.requires_snapshot:
            # e.g. NullDriftDetector: don't pay the full-window aggregation
            # on every completion for a detector that reads nothing.
            return
        if now - self._last_check_time < self._check_interval:
            # Each check costs a full window aggregation; at high completion
            # rates checking every completion would dominate the hot path.
            return
        self._last_check_time = now
        snapshot = self.monitor.snapshot(now)
        reason = self.detector.observe(snapshot)
        if reason is not None:
            self._retune(now, snapshot, reason)

    # -- the re-tune loop ---------------------------------------------------------
    def _retune(self, now: float, snapshot: WindowSnapshot, reason: str) -> None:
        self.timeline.append(ControlEvent(now, "drift", reason))
        self._last_retune_time = now
        self.retunes += 1
        objective = self._build_objective(snapshot)
        # The incumbent is measured under the *same* observed objective
        # first: a candidate only rolls out if it strictly improves on the
        # traffic actually being served (never "re-tune for the sake of it").
        incumbent = objective.evaluate(
            self.active_configuration, phase="retune-incumbent"
        )
        if self.options.retune_method.strip().upper() == "AARC":
            searcher = AARC(
                config_space=self.config_space,
                options=AARCOptions(
                    scheduler=SchedulerOptions(base_config=self.base_config)
                ),
            )
            result = searcher.search(objective)
        else:
            searcher = BayesianOptimizer(
                config_space=self.config_space,
                options=BayesianOptimizerOptions(
                    max_samples=self.options.retune_samples,
                    n_initial_samples=max(
                        1, min(4, self.options.retune_samples - 1)
                    ),
                    seed=derive_seed(self.seed, "retune", self.retunes),
                ),
            )
            state = self.surrogate if self.options.warm_start else None
            result = searcher.search(objective, state=state)
        self.retune_samples_total += objective.sample_count
        if not result.found_feasible and not incumbent.feasible:
            self.failed_retunes += 1
            self.timeline.append(
                ControlEvent(
                    now,
                    "retune-failed",
                    f"no feasible configuration in {objective.sample_count} samples",
                )
            )
            self.detector.rebaseline(snapshot)
            return
        improves = result.found_feasible and (
            not incumbent.feasible or result.best_cost < incumbent.cost
        )
        if not improves:
            self.timeline.append(
                ControlEvent(
                    now,
                    "retune-noop",
                    "re-tune found nothing better than the active config "
                    f"(incumbent cost {incumbent.cost:.2f} on the observed mix)",
                )
            )
            self.detector.rebaseline(snapshot)
            return
        candidate = result.best_configuration
        if candidate == self.active_configuration:
            self.timeline.append(
                ControlEvent(now, "retune-noop", "re-tune confirmed the active config")
            )
            self.detector.rebaseline(snapshot)
            return
        version = len(self.versions)
        self.versions.append(
            ConfigVersionInfo(version, candidate, now, reason)
        )
        self.timeline.append(
            ControlEvent(
                now,
                "retune",
                f"candidate v{version}: cost {result.best_cost:.2f}, "
                f"runtime {result.best_runtime_seconds:.2f}s "
                f"({result.sample_count} samples)",
                version=version,
            )
        )
        self._transition = (self._active_version, version)
        decision = self.rollout.begin(
            now,
            self._active_version,
            version,
            snapshot,
            frozenset(self._inflight),
        )
        if decision is RolloutDecision.PROMOTE:
            self._promote(now)
        elif decision is RolloutDecision.ROLLBACK:  # pragma: no cover - defensive
            self._rollback(now)

    def _build_objective(self, snapshot: WindowSnapshot) -> MixtureObjective:
        slo = self.slo
        if self.options.queueing_headroom and snapshot.queueing_mean_seconds > 0:
            # Leave head-room for the observed contention: a service time of
            # (limit - mean queueing) still meets the SLO end to end.  Under
            # deep overload (fraction below the floor) no service-time target
            # is attainable, so keep the full SLO and let cost minimisation
            # maximise capacity instead.
            fraction = (
                self.slo.latency_limit - snapshot.queueing_mean_seconds
            ) / self.slo.latency_limit
            if self.options.min_slo_fraction <= fraction < 1.0:
                slo = self.slo.scaled(fraction)
        set_context = getattr(self.backend, "set_context", None)
        if callable(set_context):
            # Key this re-tune's cached evaluations on the observed phase so
            # entries from other phases are never read back.
            signature = snapshot.signature()
            if self.name:
                signature = f"{self.name}|{signature}"
            set_context(signature)
        bo = self.options.retune_method.strip().upper() == "BO"
        return MixtureObjective(
            workflow=self.workflow,
            slo=slo,
            mixture=snapshot.mixture(),
            backend=self.backend,
            # AARC terminates on its own; BO consumes exactly the budget
            # (the incumbent evaluation is charged against it).
            max_samples=self.options.retune_samples if bo else None,
            attainment_target=self.options.attainment_target,
        )

    def _promote(self, now: float) -> None:
        assert self._transition is not None
        _, new_version = self._transition
        self._transition = None
        self._active_version = new_version
        self.promotions += 1
        evicted = (
            self._pool.retarget(self.active_configuration)
            if self._pool is not None
            else 0
        )
        self.timeline.append(
            ControlEvent(
                now,
                "promote",
                f"v{new_version} active ({evicted} stale warm containers evicted)",
                version=new_version,
            )
        )
        self._last_retune_time = now
        self.detector.rebaseline(self.monitor.snapshot(now))

    def _rollback(self, now: float) -> None:
        assert self._transition is not None
        old_version, new_version = self._transition
        self._transition = None
        # The active version never moved during a canary; restore semantics
        # are "the exact prior configuration object keeps serving".
        self._active_version = old_version
        self.versions[new_version].rejected = True
        self.rollbacks += 1
        evicted = (
            self._pool.retarget(self.active_configuration)
            if self._pool is not None
            else 0
        )
        self.timeline.append(
            ControlEvent(
                now,
                "rollback",
                f"v{new_version} regressed; v{old_version} restored "
                f"({evicted} canary warm containers evicted)",
                version=new_version,
            )
        )
        self._last_retune_time = now
        self.detector.rebaseline(self.monitor.snapshot(now))

    # -- reporting ---------------------------------------------------------------
    def summary(self) -> ControlSummary:
        """Package the run's control activity for reports and goldens."""
        return ControlSummary(
            detector=self.detector.describe(),
            rollout=self.rollout.describe(),
            events=list(self.timeline),
            versions=list(self.versions),
            final_version=self._active_version,
            retunes=self.retunes,
            promotions=self.promotions,
            rollbacks=self.rollbacks,
            failed_retunes=self.failed_retunes,
            retune_samples_total=self.retune_samples_total,
            version_completions=dict(sorted(self._version_completions.items())),
            transition_unresolved=self._transition is not None,
        )

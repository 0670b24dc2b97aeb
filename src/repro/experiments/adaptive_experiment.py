"""Adaptive-vs-static serving comparison under drifting traffic.

The drift scenario suite answers the question behind the control subsystem:
*when traffic drifts, what does closing the loop actually buy?*  Each
scenario serves the same drifting request stream twice from the same initial
configuration — once statically (the configuration is served forever, which
is what PRs 1–4 did) and once adaptively (the
:class:`~repro.control.controller.ReconfigurationController` re-tunes
mid-run) — and compares cost per request and tail latency.  An *oracle*
reference re-tunes for free at every phase boundary with the phase's true
mix (searched offline, served uncontended), turning the comparison into a
regret: how far each strategy is from per-phase optimal cost.

Scenarios cover the drift families the ROADMAP asks for: input-mix shifts
in both directions (video), a from-base online tuning run, a flash crowd
and a diurnal ramp (chatbot).  Everything derives from one seed and is
bit-reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.controller import ControllerOptions, MixtureObjective
from repro.execution.backend import build_backend
from repro.experiments.harness import ExperimentSettings, make_searcher
from repro.experiments.serving_experiment import (
    ServingReport,
    ServingSettings,
    run_serving_experiment,
)
from repro.utils.stats import percentile
from repro.workflow.resources import WorkflowConfiguration
from repro.workloads.arrivals import DriftingTrafficModel, TrafficPhase, TrafficProfile
from repro.workloads.registry import get_workload

__all__ = [
    "DRIFT_SCENARIO_NAMES",
    "DriftScenarioSpec",
    "PhaseStats",
    "RetuneImpact",
    "AdaptiveComparison",
    "DriftSuiteReport",
    "phase_mixture",
    "build_drift_scenarios",
    "run_drift_scenario",
    "run_drift_suite",
]


@dataclass(frozen=True)
class DriftScenarioSpec:
    """One named drift scenario: a traffic story plus controller wiring."""

    name: str
    description: str
    workload: str
    settings: ServingSettings
    #: Mixture the initial configuration is tuned on before the run; ``None``
    #: keeps ``settings``' own configuration source (e.g. ``method="base"``).
    tune_mixture: Optional[Tuple[Tuple[float, float], ...]] = None


@dataclass
class PhaseStats:
    """Outcome statistics of one traffic phase within one run."""

    name: str
    start_seconds: float
    end_seconds: float
    completed: int
    mean_cost: float
    latency_p99_seconds: float
    slo_attainment: Optional[float]


@dataclass
class RetuneImpact:
    """Cost/latency around one resolved rollout (promote or rollback).

    ``before`` covers completions between the previous rollout resolution
    (or run start) and this one; ``after`` covers completions until the next
    resolution (or run end).
    """

    time: float
    kind: str  # promote | rollback
    version: Optional[int]
    before_completed: int
    before_mean_cost: float
    before_p99_seconds: float
    after_completed: int
    after_mean_cost: float
    after_p99_seconds: float


@dataclass
class AdaptiveComparison:
    """Adaptive vs static (vs oracle) results of one drift scenario."""

    spec: DriftScenarioSpec
    adaptive: ServingReport
    static: ServingReport
    adaptive_phases: List[PhaseStats]
    static_phases: List[PhaseStats]
    #: Cost/request and p99 before/after each resolved rollout.
    retune_impacts: List[RetuneImpact] = field(default_factory=list)
    #: Expected per-request cost of an oracle that re-tunes for free at every
    #: phase boundary with the phase's true mix (uncontended reference).
    oracle_cost_per_request: Optional[float] = None
    oracle_phase_costs: Dict[str, float] = field(default_factory=dict)

    # -- headline numbers ---------------------------------------------------------
    @property
    def adaptive_cost(self) -> float:
        return self.adaptive.metrics.mean_cost_per_request

    @property
    def static_cost(self) -> float:
        return self.static.metrics.mean_cost_per_request

    @property
    def adaptive_p99(self) -> float:
        return self.adaptive.metrics.latency_p99_seconds

    @property
    def static_p99(self) -> float:
        return self.static.metrics.latency_p99_seconds

    @property
    def wins_cost(self) -> bool:
        """Adaptive strictly cheaper per request than static."""
        return self.adaptive_cost < self.static_cost

    @property
    def wins_p99(self) -> bool:
        """Adaptive strictly better p99 than static."""
        return self.adaptive_p99 < self.static_p99

    @property
    def wins(self) -> bool:
        """The acceptance notion: strictly better on cost/request or p99."""
        return self.wins_cost or self.wins_p99

    def regret_per_request(self, which: str = "adaptive") -> Optional[float]:
        """Cost-per-request gap to the phase-oracle (``adaptive``/``static``)."""
        if self.oracle_cost_per_request is None:
            return None
        cost = self.adaptive_cost if which == "adaptive" else self.static_cost
        return cost - self.oracle_cost_per_request


@dataclass
class DriftSuiteReport:
    """Every scenario's comparison from one suite run."""

    seed: int
    scenarios: List[DriftScenarioSpec]
    comparisons: Dict[str, AdaptiveComparison]

    @property
    def win_count(self) -> int:
        """Scenarios where adaptive strictly beat static on cost or p99."""
        return sum(1 for c in self.comparisons.values() if c.wins)


def phase_mixture(workload, phase: TrafficPhase) -> List[Tuple[float, float]]:
    """The ``(scale, weight)`` mixture a phase's profile describes."""
    classes = workload.input_classes
    if not classes:
        return [(workload.default_input_scale, 1.0)]
    weights = phase.profile.class_weights
    raw = [
        (c.scale, 1.0 if weights is None else float(weights.get(c.name, 0.0)))
        for c in classes
    ]
    total = sum(w for _, w in raw)
    if total <= 0:
        raise ValueError(f"phase {phase.name!r} weights select no input class")
    merged: Dict[float, float] = {}
    for scale, weight in raw:
        if weight > 0:
            merged[scale] = merged.get(scale, 0.0) + weight / total
    return sorted(merged.items())


def _tune_on_mixture(
    workload, mixture: Sequence[Tuple[float, float]], seed: int, method: str = "AARC"
) -> Optional[Tuple[WorkflowConfiguration, float]]:
    """Offline-tune for one traffic mixture: ``(configuration, cost)`` or None.

    The single source of truth for the offline-tuning recipe — both the
    scenarios' initial configurations and the per-phase oracle reference go
    through it, so they can never silently diverge.
    """
    backend = build_backend(workload.build_executor(), name="vectorized", cache=True)
    objective = MixtureObjective(
        workflow=workload.workflow, slo=workload.slo, mixture=mixture, backend=backend
    )
    searcher = make_searcher(method, workload, ExperimentSettings(seed=seed))
    result = searcher.search(objective)
    if not result.found_feasible:
        return None
    return result.best_configuration, objective.evaluate(result.best_configuration).cost


def _phase_stats(
    report: ServingReport,
    bounds: Sequence[Tuple[TrafficPhase, float, float]],
) -> List[PhaseStats]:
    """Split one run's outcomes by the phase their request *arrived* in."""
    slo_limit = report.metrics.slo_limit_seconds
    stats: List[PhaseStats] = []
    for phase, start, end in bounds:
        outcomes = [
            o
            for o in report.result.outcomes
            if start <= o.request.arrival_time < end
        ]
        latencies = [o.latency_seconds for o in outcomes]
        completed = len(outcomes)
        stats.append(
            PhaseStats(
                name=phase.name,
                start_seconds=start,
                end_seconds=end,
                completed=completed,
                mean_cost=(
                    sum(o.cost for o in outcomes) / completed
                    if completed
                    else float("nan")
                ),
                latency_p99_seconds=percentile(latencies, 99),
                slo_attainment=(
                    sum(
                        1
                        for o in outcomes
                        if o.succeeded and o.latency_seconds <= slo_limit
                    )
                    / completed
                    if slo_limit is not None and completed
                    else None
                ),
            )
        )
    return stats


def _retune_impacts(report: ServingReport) -> List[RetuneImpact]:
    """Cost/request and p99 in the windows around each resolved rollout."""
    control = report.control
    if control is None:
        return []
    resolutions = [
        event for event in control.events if event.kind in {"promote", "rollback"}
    ]
    if not resolutions:
        return []
    boundaries = (
        [0.0] + [event.time for event in resolutions] + [float("inf")]
    )
    outcomes = report.result.outcomes

    def window(start: float, end: float):
        chosen = [o for o in outcomes if start < o.completion_time <= end]
        latencies = [o.latency_seconds for o in chosen]
        mean_cost = (
            sum(o.cost for o in chosen) / len(chosen) if chosen else float("nan")
        )
        return len(chosen), mean_cost, percentile(latencies, 99)

    impacts: List[RetuneImpact] = []
    for position, event in enumerate(resolutions):
        before = window(boundaries[position], event.time)
        after = window(event.time, boundaries[position + 2])
        impacts.append(
            RetuneImpact(
                time=event.time,
                kind=event.kind,
                version=event.version,
                before_completed=before[0],
                before_mean_cost=before[1],
                before_p99_seconds=before[2],
                after_completed=after[0],
                after_mean_cost=after[1],
                after_p99_seconds=after[2],
            )
        )
    return impacts


def _oracle_costs(
    workload, phases: Sequence[TrafficPhase], phase_stats: Sequence[PhaseStats], seed: int
) -> Tuple[Optional[float], Dict[str, float]]:
    """Per-phase optimal (uncontended) cost/request and its traffic-weighted mean.

    The oracle knows each phase's true mix in advance and re-tunes for free
    at every boundary; its cost is each phase's mixture-optimal expected
    cost weighted by the requests the phase actually completed.  Queueing is
    ignored (the oracle is an uncontended lower reference), so regret
    against it folds both mis-configuration *and* contention effects in.
    """
    per_phase: Dict[str, float] = {}
    by_mixture: Dict[Tuple[Tuple[float, float], ...], Optional[float]] = {}
    total_requests = 0
    total_cost = 0.0
    for phase, stats in zip(phases, phase_stats):
        mixture = phase_mixture(workload, phase)
        key = tuple(mixture)
        if key not in by_mixture:
            # Phases sharing a mixture (e.g. rate-only drift) share one
            # search instead of re-tuning the oracle from scratch per phase.
            tuned = _tune_on_mixture(workload, mixture, seed=seed)
            by_mixture[key] = tuned[1] if tuned is not None else None
        cost = by_mixture[key]
        if cost is None:
            return None, per_phase
        per_phase[phase.name] = cost
        total_requests += stats.completed
        total_cost += cost * stats.completed
    if total_requests == 0:
        return None, per_phase
    return total_cost / total_requests, per_phase


#: Scenario names of the built-in drift suite, in run order.
DRIFT_SCENARIO_NAMES: Tuple[str, ...] = (
    "video-mix-lighten",
    "video-mix-deepen",
    "chatbot-online-tune",
    "chatbot-flash-crowd",
    "chatbot-diurnal-ramp",
)


def build_drift_scenarios(
    seed: int = 717, duration_scale: float = 1.0
) -> List[DriftScenarioSpec]:
    """Build the named drift scenario suite.

    ``duration_scale`` shrinks every phase/duration proportionally for
    faster test runs (relationships between phases are preserved).
    """

    def t(seconds: float) -> float:
        return seconds * duration_scale

    # -- video: input-mix drift (uncontended; the drift is in the inputs) -------
    lighten_phases = (
        TrafficPhase(
            "heavy-mix",
            0.0,
            TrafficProfile(
                arrival="constant",
                rate_rps=0.02,
                class_weights={"light": 0.2, "middle": 0.5, "heavy": 0.3},
            ),
        ),
        TrafficPhase(
            "light-mix",
            t(1500.0),
            TrafficProfile(
                arrival="constant",
                rate_rps=0.02,
                class_weights={"light": 0.8, "middle": 0.2},
            ),
        ),
    )
    deepen_phases = (
        TrafficPhase(
            "light-mix",
            0.0,
            TrafficProfile(
                arrival="constant",
                rate_rps=0.02,
                class_weights={"light": 0.85, "middle": 0.15},
            ),
        ),
        TrafficPhase(
            "middle-mix",
            t(1500.0),
            TrafficProfile(
                arrival="constant",
                rate_rps=0.02,
                class_weights={"light": 0.2, "middle": 0.8},
            ),
        ),
    )
    # A 600 s window turns over fast enough that by the time the mix shift
    # crosses the detection threshold the window is dominated by the new
    # phase; attainment_target 0.9 lets a re-tune stop provisioning for a
    # class whose share has decayed below 10% of the observed mix.
    video_controller = ControllerOptions(
        window_seconds=t(600.0),
        min_window_completions=6,
        min_retune_interval_seconds=t(300.0),
        attainment_target=0.9,
    )

    # -- chatbot: rate drift on a finite cluster (the drift is in the load) -----
    crowd_phases = (
        TrafficPhase(
            "calm", 0.0, TrafficProfile(arrival="constant", rate_rps=0.015)
        ),
        TrafficPhase(
            "crowd", t(900.0), TrafficProfile(arrival="constant", rate_rps=0.08)
        ),
        TrafficPhase(
            "calm-again", t(2100.0), TrafficProfile(arrival="constant", rate_rps=0.015)
        ),
    )
    diurnal_phases = (
        TrafficPhase(
            "night", 0.0, TrafficProfile(arrival="constant", rate_rps=0.01)
        ),
        TrafficPhase(
            "morning", t(900.0), TrafficProfile(arrival="constant", rate_rps=0.03)
        ),
        TrafficPhase(
            "midday", t(1800.0), TrafficProfile(arrival="constant", rate_rps=0.05)
        ),
        TrafficPhase(
            "evening", t(2700.0), TrafficProfile(arrival="constant", rate_rps=0.02)
        ),
    )
    chatbot_controller = ControllerOptions(
        window_seconds=t(600.0),
        min_window_completions=5,
        min_retune_interval_seconds=t(240.0),
        retune_samples=20,
    )

    return [
        DriftScenarioSpec(
            name="video-mix-lighten",
            description=(
                "a heavy-video mix drains away; the heavy-capable config "
                "overpays for the light traffic left behind"
            ),
            workload="video-analysis",
            settings=ServingSettings(
                duration_seconds=t(3600.0),
                seed=seed,
                nodes=0,
                phases=lighten_phases,
                adaptive=True,
                detector="threshold",
                rollout="immediate",
                controller=video_controller,
            ),
            tune_mixture=((0.5, 0.2), (1.0, 0.5), (1.5, 0.3)),
        ),
        DriftScenarioSpec(
            name="video-mix-deepen",
            description=(
                "light-video traffic shifts toward standard inputs; the "
                "light-tuned config grows slow and expensive"
            ),
            workload="video-analysis",
            settings=ServingSettings(
                duration_seconds=t(3600.0),
                seed=seed,
                nodes=0,
                phases=deepen_phases,
                adaptive=True,
                detector="threshold",
                rollout="canary",
                # Low request rates: a lean canary cohort keeps the
                # evaluation from outliving the run.
                rollout_options={
                    "fraction": 0.4,
                    "evaluation_requests": 6,
                    "min_stable": 3,
                },
                controller=video_controller,
            ),
            tune_mixture=((0.5, 0.85), (1.0, 0.15)),
        ),
        DriftScenarioSpec(
            name="chatbot-online-tune",
            description=(
                "a service launched on its over-provisioned base config; the "
                "controller tunes it online from live traffic"
            ),
            workload="chatbot",
            settings=ServingSettings(
                method="base",
                duration_seconds=t(3000.0),
                seed=seed,
                nodes=4,
                phases=(
                    TrafficPhase(
                        "steady",
                        0.0,
                        TrafficProfile(arrival="constant", rate_rps=0.015),
                    ),
                ),
                adaptive=True,
                detector="scheduled",
                detector_options={"interval_seconds": t(600.0)},
                rollout="drain",
                controller=chatbot_controller,
            ),
        ),
        DriftScenarioSpec(
            name="chatbot-flash-crowd",
            description=(
                "a flash crowd overruns the wasteful base config; re-tuning "
                "to a work-efficient config restores serving capacity"
            ),
            workload="chatbot",
            settings=ServingSettings(
                method="base",
                duration_seconds=t(3600.0),
                seed=seed,
                nodes=4,
                phases=crowd_phases,
                adaptive=True,
                detector="threshold",
                detector_options={"relative_threshold": 0.5},
                rollout="immediate",
                controller=chatbot_controller,
            ),
        ),
        DriftScenarioSpec(
            name="chatbot-diurnal-ramp",
            description=(
                "a day-cycle ramp: load climbs through morning to midday and "
                "relaxes in the evening"
            ),
            workload="chatbot",
            settings=ServingSettings(
                method="base",
                duration_seconds=t(3600.0),
                seed=seed,
                nodes=4,
                phases=diurnal_phases,
                adaptive=True,
                detector="threshold",
                detector_options={"relative_threshold": 0.5},
                rollout="canary",
                rollout_options={
                    "fraction": 0.4,
                    "evaluation_requests": 8,
                    "min_stable": 3,
                },
                controller=chatbot_controller,
            ),
        ),
    ]


def run_drift_scenario(
    spec: DriftScenarioSpec, with_oracle: bool = True
) -> AdaptiveComparison:
    """Run one scenario's adaptive and static twins and compare them."""
    workload = get_workload(spec.workload)
    settings = spec.settings
    if spec.tune_mixture is not None:
        tuned = _tune_on_mixture(workload, spec.tune_mixture, seed=settings.seed)
        if tuned is None:
            raise RuntimeError(
                f"no feasible configuration for mixture {list(spec.tune_mixture)} "
                f"on {workload.name} (tuning {spec.name!r}'s initial configuration)"
            )
        settings = dataclasses.replace(settings, configuration=tuned[0])
    adaptive_report = run_serving_experiment(spec.workload, settings)
    static_report = run_serving_experiment(
        spec.workload, dataclasses.replace(settings, adaptive=False)
    )
    phases = list(settings.phases or ())
    bounds = (
        DriftingTrafficModel(phases).phase_bounds(settings.duration_seconds)
        if phases
        else []
    )
    adaptive_phases = _phase_stats(adaptive_report, bounds)
    static_phases = _phase_stats(static_report, bounds)
    oracle_cost, oracle_by_phase = (
        _oracle_costs(workload, phases, adaptive_phases, settings.seed)
        if with_oracle
        else (None, {})
    )
    return AdaptiveComparison(
        spec=spec,
        adaptive=adaptive_report,
        static=static_report,
        adaptive_phases=adaptive_phases,
        static_phases=static_phases,
        retune_impacts=_retune_impacts(adaptive_report),
        oracle_cost_per_request=oracle_cost,
        oracle_phase_costs=oracle_by_phase,
    )


def run_drift_suite(
    seed: int = 717,
    scenarios: Optional[Sequence[DriftScenarioSpec]] = None,
    duration_scale: float = 1.0,
    with_oracle: bool = True,
) -> DriftSuiteReport:
    """Run the whole drift suite; deterministic end to end under one seed."""
    specs = list(
        scenarios
        if scenarios is not None
        else build_drift_scenarios(seed=seed, duration_scale=duration_scale)
    )
    comparisons = {
        spec.name: run_drift_scenario(spec, with_oracle=with_oracle)
        for spec in specs
    }
    return DriftSuiteReport(seed=seed, scenarios=specs, comparisons=comparisons)

"""Serving experiment: drive a configured workflow through a traffic model.

Where the search experiments answer "which configuration is cheapest under
the SLO?", the serving experiment answers the operational question behind the
ROADMAP's north star: *does that configuration hold its SLO under load?*  A
workload's workflow is configured by any search method (or its base
configuration, or the input-aware engine's per-class configurations), then a
request stream from a pluggable arrival process is served by the
event-driven :class:`~repro.execution.serving.ServingSimulator` against a
finite cluster and warm-container pool.  The report carries throughput,
p50/p95/p99 latency, SLO attainment, queueing delay, cold-start rate, cost
per request and cluster utilization.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.control.controller import (
    ControlSummary,
    ControllerOptions,
    ReconfigurationController,
)
from repro.control.drift import build_drift_detector
from repro.control.rollout import build_rollout_policy
from repro.core.input_aware import InputAwareEngine
from repro.execution.backend import BackendStats, build_backend
from repro.execution.cluster import Cluster
from repro.execution.events import RequestArrival
from repro.execution.faults import (
    ExponentialBackoffRetry,
    FaultPlan,
    FixedRetry,
    get_fault_profile,
)
from repro.execution.protection import ProtectionPolicy, get_protection_profile
from repro.execution.serving import (
    AutoscalerOptions,
    ServingMetrics,
    ServingOptions,
    ServingResult,
    ServingSimulator,
)
from repro.execution.serving_vectorized import build_serving_engine
from repro.experiments.harness import ExperimentSettings, build_objective, make_searcher
from repro.utils.ranges import (
    AT_LEAST_0,
    AT_LEAST_1,
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    check_fields,
)
from repro.utils.rng import RngStream
from repro.workflow.resources import WorkflowConfiguration
from repro.workloads.arrivals import DriftingTrafficModel, TrafficPhase
from repro.workloads.inputs import input_class_rules
from repro.workloads.registry import get_workload

__all__ = [
    "ServingSettings",
    "ServingReport",
    "run_serving_experiment",
    "resolve_fault_plan",
    "resolve_protection_policy",
    "ScenarioSpec",
    "ScenarioMatrixReport",
    "build_scenario_matrix",
    "build_protection_scenario_matrix",
    "run_scenario_matrix",
    "SCENARIO_NAMES",
    "PROTECTION_SCENARIO_NAMES",
]


@dataclass(frozen=True)
class ServingSettings:
    """Knobs of one serving run.

    Attributes
    ----------
    method:
        Configuration source: a search method name (``"AARC"``, ``"BO"``,
        ``"MAFF"``, ``"Random"``, ``"Grid"``) or ``"base"`` for the
        workload's over-provisioned base configuration.
    input_aware:
        Use the Input-Aware Configuration Engine (one configuration per
        input class, searched by ``method``) instead of one fixed
        configuration.  Requires the workload to define input classes.
    arrival / rate_rps:
        Traffic overrides; ``None`` keeps the workload's default profile.
    duration_seconds:
        Traffic generation horizon (the run itself drains past it).
    seed:
        Root seed for traffic, class mixing and (optional) execution noise.
    nodes / vcpu_per_node / memory_per_node_mb:
        Cluster capacity requests contend for; ``nodes=0`` removes the
        capacity limit entirely (no queueing).
    keep_alive_seconds / max_containers_per_function:
        Warm-pool behaviour.
    autoscale / autoscaler:
        Reactive warm-pool sizing from the observed arrival rate.
    cache:
        Memoize deterministic service traces through the PR-1 caching
        backend (noisy runs bypass it automatically).
    noise_cv:
        Coefficient of variation for lognormal execution noise; 0 keeps the
        run fully deterministic.
    queue_capacity:
        Optional bound on the admission queue (arrivals beyond it are
        rejected).
    slo_scale:
        Stretch (>1) or tighten (<1) the workload SLO for attainment
        reporting.
    faults:
        Fault injection: a named profile (``"crashes"``, ``"node-storm"``,
        ..., or ``"default"`` for the workload's own profile), an explicit
        :class:`~repro.execution.faults.FaultPlan`, or ``None`` for a clean
        run.  Named profiles take their schedule seed from ``seed``.
    protection:
        Graceful-degradation policy guarding the serving layer: a named
        profile (see
        :data:`~repro.execution.protection.PROTECTION_PROFILE_NAMES`), an
        explicit :class:`~repro.execution.protection.ProtectionPolicy`, or
        ``None``/``"none"`` for the unguarded path.  Named profiles are
        rooted at ``seed`` and adopt the workload's per-class priorities for
        load shedding.
    backend:
        Evaluation substrate serving the request path's service traces
        (``"simulator"`` or ``"vectorized"`` — bit-identical; the
        differential test tier asserts it).
    engine:
        Serving engine walking the request stream: ``"event"`` (the scalar
        reference event loop) or ``"batched"`` (the array-cohort engine in
        :mod:`repro.execution.serving_vectorized`).  Bit-identical under
        fixed seeds — the engine differential tier asserts it.  The batched
        engine settles only clean runs without a cluster (``nodes=0``) in
        cohorts; it delegates faulted, protected, noisy, adaptive,
        autoscaled and cluster runs whole to the event loop.
    configuration:
        Explicit initial configuration; when given, ``method`` is skipped
        entirely (no search phase).
    phases:
        Drifting traffic: a sequence of
        :class:`~repro.workloads.arrivals.TrafficPhase` entries replaces the
        workload's stationary traffic profile (``arrival``/``rate_rps``
        overrides are ignored).
    adaptive:
        Serve with the online
        :class:`~repro.control.controller.ReconfigurationController` closing
        the drift → re-tune → rollout loop mid-run.
    detector / detector_options:
        Drift detector name (see
        :data:`~repro.control.drift.DRIFT_DETECTOR_NAMES`) and its knobs.
    rollout / rollout_options:
        Rollout policy name (see
        :data:`~repro.control.rollout.ROLLOUT_POLICY_NAMES`) and its knobs.
    controller:
        Controller tunables (window, cooldown, re-tune budget, ...).
        ``None`` derives a monitor window and cooldown from the run's
        duration so the loop can close at any traffic rate.
    """

    method: str = "AARC"
    input_aware: bool = False
    arrival: Optional[str] = None
    rate_rps: Optional[float] = POSITIVE.field(None)
    duration_seconds: float = POSITIVE.field(300.0)
    seed: int = FINITE.field(2025)
    nodes: int = AT_LEAST_0.field(8)
    vcpu_per_node: float = POSITIVE.field(16.0)
    memory_per_node_mb: float = POSITIVE.field(65536.0)
    keep_alive_seconds: float = NON_NEGATIVE.field(600.0)
    max_containers_per_function: int = AT_LEAST_1.field(16)
    autoscale: bool = False
    autoscaler: AutoscalerOptions = field(default_factory=AutoscalerOptions)
    cache: bool = True
    noise_cv: float = NON_NEGATIVE.field(0.0)
    queue_capacity: Optional[int] = AT_LEAST_0.field(None)
    slo_scale: float = POSITIVE.field(1.0)
    faults: Optional[Union[str, FaultPlan]] = None
    protection: Optional[Union[str, ProtectionPolicy]] = None
    backend: str = "simulator"
    engine: str = "event"
    configuration: Optional[WorkflowConfiguration] = None
    phases: Optional[Tuple[TrafficPhase, ...]] = None
    adaptive: bool = False
    detector: str = "threshold"
    detector_options: Optional[Mapping[str, object]] = None
    rollout: str = "canary"
    rollout_options: Optional[Mapping[str, object]] = None
    controller: Optional[ControllerOptions] = None

    def __post_init__(self) -> None:
        check_fields(self)


@dataclass
class ServingReport:
    """Everything one serving experiment produced, ready for rendering."""

    workload: str
    method: str
    input_aware: bool
    traffic_description: str
    settings: ServingSettings
    metrics: ServingMetrics
    backend_stats: BackendStats
    backend_description: str
    search_samples: int
    uncontended_latency_seconds: Dict[str, float]
    class_counts: Dict[str, int]
    dispatch_counts: Dict[str, int] = field(default_factory=dict)
    autoscaler_decisions: List[Tuple[float, int]] = field(default_factory=list)
    result: Optional[ServingResult] = None
    fault_description: str = ""
    fault_plan: Optional[FaultPlan] = None
    protection_description: str = ""
    protection_policy: Optional[ProtectionPolicy] = None
    control: Optional[ControlSummary] = None
    initial_configuration: Optional[WorkflowConfiguration] = None


def _prepare_dispatcher(workload, settings: ServingSettings):
    """Build the per-arrival configuration callback and count search samples.

    Returns ``(dispatcher, search_samples, engine, fixed_configuration)``;
    ``fixed_configuration`` is ``None`` only for input-aware dispatch (which
    has one configuration per class rather than one).
    """
    search_settings = ExperimentSettings(seed=settings.seed)
    if settings.configuration is not None:

        def explicit(_request) -> WorkflowConfiguration:
            return settings.configuration

        return explicit, 0, None, settings.configuration
    if settings.method.strip().lower() == "base":
        configuration = workload.base_configuration()

        def fixed(_request) -> WorkflowConfiguration:
            return configuration

        return fixed, 0, None, configuration
    searcher = make_searcher(settings.method, workload, search_settings)
    if settings.input_aware:
        if not workload.input_classes:
            raise ValueError(
                f"workload {workload.name!r} defines no input classes; "
                "input-aware serving needs them"
            )
        engine = InputAwareEngine(
            searcher=searcher,
            executor=workload.build_executor(),
            workflow=workload.workflow,
            slo=workload.slo,
            classes=input_class_rules(workload.input_classes),
        )
        results = engine.prepare()
        samples = sum(result.sample_count for result in results.values())
        return engine.dispatcher(), samples, engine, None
    objective = build_objective(workload, search_settings)
    result = searcher.search(objective)
    configuration = (
        result.best_configuration
        if result.found_feasible
        else workload.base_configuration()
    )

    def fixed(_request) -> WorkflowConfiguration:
        return configuration

    return fixed, result.sample_count, None, configuration


def resolve_fault_plan(
    faults: Optional[Union[str, FaultPlan]], workload, seed: int
) -> Optional[FaultPlan]:
    """Turn a settings-level fault spec into a concrete plan.

    Named profiles are rooted at ``seed``; ``"default"`` resolves to the
    workload's own profile (also re-rooted), and ``"none"``/empty plans
    resolve to ``None`` so the serving layer keeps its unperturbed path.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        plan = faults
    else:
        key = faults.strip().lower()
        if key == "default":
            if workload.faults is None:
                return None
            plan = workload.faults.with_seed(seed)
        else:
            plan = get_fault_profile(key, seed=seed)
    return None if plan.is_empty else plan


def resolve_protection_policy(
    protection: Optional[Union[str, ProtectionPolicy]], workload, seed: int
) -> Optional[ProtectionPolicy]:
    """Turn a settings-level protection spec into a concrete policy.

    Named profiles are rooted at ``seed``; explicit policies are used as
    given (their own seed wins).  Either way the workload's per-class
    priorities (``traffic.class_priorities``) are adopted for load shedding
    when the policy does not pin its own.  Empty policies resolve to
    ``None`` so the serving layer keeps its unguarded path byte-identical.
    """
    if protection is None:
        return None
    if isinstance(protection, ProtectionPolicy):
        policy = protection
    else:
        policy = get_protection_profile(protection.strip().lower(), seed=seed)
    if policy.is_empty:
        return None
    traffic = getattr(workload, "traffic", None)
    priorities = getattr(traffic, "class_priorities", None)
    if priorities:
        policy = policy.with_priorities(priorities)
    return policy


def run_serving_experiment(
    workload_name: str = "video-analysis",
    settings: Optional[ServingSettings] = None,
) -> ServingReport:
    """Run one serving experiment end to end and return its report."""
    settings = settings if settings is not None else ServingSettings()
    workload = get_workload(workload_name)
    fault_plan = resolve_fault_plan(settings.faults, workload, settings.seed)
    protection_policy = resolve_protection_policy(
        settings.protection, workload, settings.seed
    )

    dispatcher, search_samples, engine, fixed_configuration = _prepare_dispatcher(
        workload, settings
    )

    noise = None
    serve_rng = None
    if settings.noise_cv > 0:
        from repro.perfmodel.noise import LognormalNoise

        noise = LognormalNoise(settings.noise_cv)
        serve_rng = RngStream(settings.seed, f"serve/{workload.name}")
    executor = workload.build_executor(noise=noise)
    executor.container_pool.keep_alive_seconds = float(settings.keep_alive_seconds)
    executor.container_pool.max_containers_per_function = int(
        settings.max_containers_per_function
    )
    backend = build_backend(executor, name=settings.backend, cache=settings.cache)

    cluster = (
        Cluster.homogeneous(
            settings.nodes,
            vcpu_per_node=settings.vcpu_per_node,
            memory_per_node_mb=settings.memory_per_node_mb,
        )
        if settings.nodes > 0
        else None
    )
    slo = workload.slo.scaled(settings.slo_scale) if settings.slo_scale != 1.0 else workload.slo

    if settings.phases is not None:
        traffic = DriftingTrafficModel(
            list(settings.phases), classes=workload.input_classes
        )
    else:
        traffic = workload.traffic_model(
            arrival=settings.arrival, rate_rps=settings.rate_rps
        )
    traffic_rng = RngStream(settings.seed, f"traffic/{workload.name}")
    # The array path draws the same RngStream children as the scalar
    # iterator, element-for-element (property-tested), so the request
    # stream is identical — just generated in vectorized chunks.  The
    # batched engine serves it as columns, the event loop as records.
    batch = traffic.generate_batch(settings.duration_seconds, traffic_rng)
    class_counts = batch.class_counts()
    requests = batch if settings.engine == "batched" else batch.to_requests()

    controller = None
    if settings.adaptive:
        if settings.input_aware:
            raise ValueError(
                "adaptive serving drives one configuration at a time; "
                "it cannot be combined with input-aware dispatch"
            )
        # Re-tune sweeps run on their own vectorized + caching stack, with
        # the cache keyed per observed traffic phase by the controller.
        retune_backend = build_backend(
            workload.build_executor(), name="vectorized", cache=True
        )
        controller_options = settings.controller
        if controller_options is None:
            # Scale the monitor window and cooldown with the run so the
            # loop can close regardless of the traffic rate.
            window = min(900.0, max(60.0, settings.duration_seconds / 5.0))
            controller_options = ControllerOptions(
                window_seconds=window,
                min_window_completions=5,
                min_retune_interval_seconds=window / 2.0,
            )
        controller = ReconfigurationController(
            workflow=workload.workflow,
            slo=slo,
            initial_configuration=fixed_configuration,
            detector=build_drift_detector(
                settings.detector, **dict(settings.detector_options or {})
            ),
            rollout=build_rollout_policy(
                settings.rollout, **dict(settings.rollout_options or {})
            ),
            backend=retune_backend,
            options=controller_options,
            seed=settings.seed,
            base_config=workload.base_config,
        )

    simulator = build_serving_engine(
        settings.engine,
        workflow=workload.workflow,
        executor=executor,
        backend=backend,
        cluster=cluster,
        slo=slo,
        options=ServingOptions(
            queue_capacity=settings.queue_capacity,
            autoscale=settings.autoscale,
            autoscaler=settings.autoscaler,
        ),
        faults=fault_plan,
        protection=protection_policy,
    )
    result = simulator.run(
        requests,
        dispatcher,
        rng=serve_rng,
        duration_seconds=settings.duration_seconds,
        controller=controller,
    )
    # Snapshot before the probes below also exercise the dispatcher.
    dispatch_counts = dict(engine.dispatch_counts()) if engine is not None else {}

    # Uncontended single-request latency per class: the baseline the tail is
    # compared against (queueing shows up as p99 exceeding these).
    uncontended: Dict[str, float] = {}
    probe_executor = workload.build_executor()
    for input_class in traffic.classes:
        uncontended[input_class.name] = simulator_probe_latency(
            workload, dispatcher, input_class, probe_executor
        )

    return ServingReport(
        workload=workload.name,
        method=settings.method,
        input_aware=settings.input_aware,
        traffic_description=traffic.describe(),
        settings=settings,
        metrics=result.metrics,
        backend_stats=backend.stats,
        backend_description=backend.describe(),
        search_samples=search_samples,
        uncontended_latency_seconds=uncontended,
        class_counts=class_counts,
        dispatch_counts=dispatch_counts,
        autoscaler_decisions=result.autoscaler_decisions,
        result=result,
        fault_description=fault_plan.describe() if fault_plan is not None else "",
        fault_plan=fault_plan,
        protection_description=(
            protection_policy.describe() if protection_policy is not None else ""
        ),
        protection_policy=protection_policy,
        control=controller.summary() if controller is not None else None,
        initial_configuration=fixed_configuration,
    )


def simulator_probe_latency(workload, dispatcher, input_class, executor) -> float:
    """Latency of one isolated, noise-free request of ``input_class``."""
    request = RequestArrival(
        arrival_time=0.0, input_scale=input_class.scale, input_class=input_class.name
    )
    configuration = dispatcher(request)
    trace = executor.execute(
        workload.workflow, configuration, input_scale=input_class.scale
    )
    return trace.end_to_end_latency


# -- scenario matrix --------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """One named cell of the resilience scenario matrix.

    ``workload`` optionally pins the cell to its own workload (the scenario
    fuzzer mixes generated workloads within one matrix run); ``None`` keeps
    the matrix-level workload.  Carrying the *name* rather than the spec
    keeps cells picklable, so mixed-workload matrices still run on the
    process-pool workers — each worker rebuilds the workload from the name
    (zoo names resolve through the procedural generator).
    """

    name: str
    description: str
    settings: ServingSettings
    workload: Optional[str] = None


@dataclass
class ScenarioMatrixReport:
    """Serving reports of every scenario in one matrix run."""

    workload: str
    seed: int
    scenarios: List[ScenarioSpec]
    reports: Dict[str, "ServingReport"]

    def report(self, name: str) -> "ServingReport":
        """Look up one scenario's report."""
        return self.reports[name]


#: Names of the built-in scenario matrix, in run order.
SCENARIO_NAMES: Tuple[str, ...] = (
    "baseline",
    "crash-retry",
    "bursty-crashes",
    "node-failure-storm",
    "straggler-heavy",
    "timeout-tight",
    "oom-transient",
    "autoscale-under-faults",
    "overload-loss",
)


def build_scenario_matrix(
    workload_name: str = "chatbot",
    seed: int = 717,
    duration_seconds: float = 200.0,
    method: str = "base",
    nodes: int = 4,
    rate_rps: float = 0.15,
) -> List[ScenarioSpec]:
    """Build the named scenario matrix for one workload.

    Every scenario shares the traffic seed, duration, cluster size and
    configuration source, so differences in the report are attributable to
    the perturbation alone; ``baseline`` and ``crash-retry`` also share the
    *same* arrival process, making them directly comparable (the acceptance
    property: crashes push p99 and cost/request strictly above the fault-free
    baseline).  The ``timeout-tight`` budget is derived from the workload's
    own base-configuration trace — generous enough for clean runs, tight
    enough to kill stragglers.
    """
    workload = get_workload(workload_name)
    base = ServingSettings(
        method=method,
        arrival="constant",
        rate_rps=rate_rps,
        duration_seconds=duration_seconds,
        seed=seed,
        nodes=nodes,
    )

    # Per-function budget for the timeout scenario: clean invocations (cold
    # start included) fit, straggler-stretched ones do not.
    executor = workload.build_executor()
    probe = executor.execute(workload.workflow, workload.base_configuration())
    max_runtime = max(r.runtime_seconds for r in probe.records.values())
    max_cold = max(
        executor.cold_start_latency(spec.profile_name)
        for spec in workload.workflow.functions
    )
    tight_budget = 1.5 * max_runtime + max_cold

    def derive(**overrides) -> ServingSettings:
        return dataclasses.replace(base, **overrides)

    crashes = get_fault_profile("crashes", seed=seed)
    return [
        ScenarioSpec(
            "baseline",
            "fault-free reference under the shared traffic",
            base,
        ),
        ScenarioSpec(
            "crash-retry",
            "per-invocation crashes, exponential-backoff retries",
            derive(faults=crashes),
        ),
        ScenarioSpec(
            "bursty-crashes",
            "bursty arrivals stacked on the crash/retry profile",
            derive(arrival="bursty", faults=crashes),
        ),
        ScenarioSpec(
            "node-failure-storm",
            "whole-node failures; in-flight requests re-placed",
            derive(faults=get_fault_profile("node-storm", seed=seed)),
        ),
        ScenarioSpec(
            "straggler-heavy",
            "frequent slowdowns stretch the tail without killing work",
            derive(faults=get_fault_profile("stragglers", seed=seed)),
        ),
        ScenarioSpec(
            "timeout-tight",
            "per-function timeout budget that catches stragglers",
            derive(
                faults=FaultPlan(
                    straggler_probability=0.15,
                    straggler_slowdown=4.0,
                    timeout_seconds=tight_budget,
                    retry=FixedRetry(max_attempts=3, delay_seconds=0.5),
                    seed=seed,
                )
            ),
        ),
        ScenarioSpec(
            "oom-transient",
            "transient OOM kills cleared by flat retries",
            derive(faults=get_fault_profile("oom", seed=seed)),
        ),
        ScenarioSpec(
            "autoscale-under-faults",
            "reactive warm-pool autoscaling while crashes burn containers",
            derive(autoscale=True, faults=crashes),
        ),
        ScenarioSpec(
            "overload-loss",
            "bounded admission queue sheds load while crashes amplify work",
            derive(
                queue_capacity=4,
                faults=FaultPlan(
                    crash_probability=0.2,
                    retry=ExponentialBackoffRetry(max_attempts=4, base_delay_seconds=0.5),
                    seed=seed,
                ),
            ),
        ),
    ]


#: Names of the protection scenario suite, in run order.
PROTECTION_SCENARIO_NAMES: Tuple[str, ...] = (
    "overload-brownout",
    "breaker-storm",
    "hedge-vs-stragglers",
    "deadline-cascade",
)


def build_protection_scenario_matrix(
    workload_name: str = "chatbot",
    seed: int = 717,
    duration_seconds: float = 200.0,
    method: str = "base",
    nodes: int = 4,
    rate_rps: float = 0.15,
) -> List[ScenarioSpec]:
    """Build the graceful-degradation scenario suite for one workload.

    Each cell pairs a stressor from the resilience matrix with the
    protection mechanism built to absorb it, so the reports show the
    mechanism working against the failure mode it targets: brownout sheds
    low-priority classes under a crash-amplified overload, breakers isolate
    a crash-storm, hedges race stragglers, and deadline budgets cut the
    retry cascade a stretched stage would otherwise trigger.  The suite
    shares the resilience matrix's seed discipline — every cell's traffic,
    faults and protection all derive from ``seed``.
    """
    base = ServingSettings(
        method=method,
        arrival="constant",
        rate_rps=rate_rps,
        duration_seconds=duration_seconds,
        seed=seed,
        nodes=nodes,
    )

    def derive(**overrides) -> ServingSettings:
        return dataclasses.replace(base, **overrides)

    return [
        ScenarioSpec(
            "overload-brownout",
            "crash-amplified overload browned out by admission + shedding",
            derive(
                queue_capacity=4,
                faults=FaultPlan(
                    crash_probability=0.2,
                    retry=ExponentialBackoffRetry(max_attempts=4, base_delay_seconds=0.5),
                    seed=seed,
                ),
                protection="full",
            ),
        ),
        ScenarioSpec(
            "breaker-storm",
            "heavy crash storm tripping per-function circuit breakers",
            derive(
                faults=FaultPlan(
                    crash_probability=0.35,
                    retry=FixedRetry(max_attempts=3, delay_seconds=0.5),
                    seed=seed,
                ),
                protection="breakers",
            ),
        ),
        ScenarioSpec(
            "hedge-vs-stragglers",
            "straggler-stretched tail raced by deterministic hedges",
            derive(
                faults=get_fault_profile("stragglers", seed=seed),
                protection="hedging",
            ),
        ),
        ScenarioSpec(
            "deadline-cascade",
            "per-stage deadline budgets cut stragglers before they cascade",
            derive(
                faults=get_fault_profile("stragglers", seed=seed),
                protection="deadlines",
            ),
        ),
    ]


def _run_matrix_cell(cell: Tuple[str, ScenarioSpec]) -> Tuple[str, ServingReport]:
    """Run one scenario cell (module-level so worker processes can pickle it)."""
    workload_name, spec = cell
    target = spec.workload if spec.workload is not None else workload_name
    return spec.name, run_serving_experiment(target, spec.settings)


def run_scenario_matrix(
    workload_name: str = "chatbot",
    seed: int = 717,
    duration_seconds: float = 200.0,
    method: str = "base",
    nodes: int = 4,
    rate_rps: float = 0.15,
    scenarios: Optional[List[ScenarioSpec]] = None,
    workers: Optional[int] = None,
) -> ScenarioMatrixReport:
    """Run every scenario of the matrix and collect the reports.

    Deterministic end to end: the traffic, fault schedules and (if any)
    search phase all derive from ``seed``.  With ``workers > 1`` the cells
    run in a process pool — each scenario is already seed-isolated (every
    cell rebuilds its executor, pool and streams from its own settings), so
    parallel reports are byte-identical to serial ones; the worker count
    only changes wall-clock time.
    """
    specs = (
        scenarios
        if scenarios is not None
        else build_scenario_matrix(
            workload_name,
            seed=seed,
            duration_seconds=duration_seconds,
            method=method,
            nodes=nodes,
            rate_rps=rate_rps,
        )
    )
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = dict(
                pool.map(_run_matrix_cell, [(workload_name, spec) for spec in specs])
            )
    else:
        reports = {
            spec.name: run_serving_experiment(
                spec.workload if spec.workload is not None else workload_name,
                spec.settings,
            )
            for spec in specs
        }
    return ScenarioMatrixReport(
        workload=workload_name, seed=seed, scenarios=specs, reports=reports
    )

"""Command-line interface.

Exposes the most common operations of the library without writing Python:

* ``repro-aarc workloads`` — list the built-in benchmark workloads.
* ``repro-aarc describe <workload>`` — show a workload's DAG, SLO and profiles.
* ``repro-aarc search <workload> --method AARC`` — run one configuration
  search and print the discovered configuration.
* ``repro-aarc compare <workload>`` — run AARC, BO and MAFF and print the
  search-efficiency and outcome comparison.
* ``repro-aarc heatmap <workload>`` — regenerate the Fig. 2 decoupling sweep.
* ``repro-aarc serve --workload <workload>`` — drive a configured workflow
  through a traffic model on the event-driven serving layer and report
  throughput, tail latency, SLO attainment, cold starts and cost
  (``--faults <profile>`` perturbs the run with the fault-injection layer;
  ``--protection <profile>`` guards it with the graceful-degradation layer;
  ``--adaptive --controller <policy>`` closes the drift → re-tune → rollout
  loop mid-run).
* ``repro-aarc scenarios`` — run a named scenario matrix: ``--suite
  resilience`` (baseline, crashes, node-failure storm, stragglers, ...)
  renders a comparative goodput / availability / retry-amplification table;
  ``--suite drift`` runs the adaptive-vs-static drift scenarios (mix
  shifts, flash crowd, diurnal ramp, online tuning); ``--suite protection``
  runs the graceful-degradation suite (overload brownout, breaker storm,
  hedges vs stragglers, deadline cascade); ``--suite fuzz`` runs generated
  invariant-checked scenarios.
* ``repro-aarc fuzz --budget N --seed S`` — fuzz the serving layer with N
  generated scenarios (workload zoo x arrivals x drift x faults x
  protection x controller), check the cross-cutting accounting invariants
  on every run, and shrink any failure to a minimal reproducer.

The ``repro`` console script is an alias of ``repro-aarc``.

The CLI is intentionally a thin veneer over :mod:`repro.experiments`; every
command is equally accessible from Python.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.control.drift import DRIFT_DETECTOR_NAMES
from repro.control.rollout import ROLLOUT_POLICY_NAMES
from repro.execution.backend import BACKEND_NAMES
from repro.execution.faults import FAULT_PROFILE_NAMES
from repro.execution.fleet import PLACEMENT_POLICIES
from repro.execution.protection import PROTECTION_PROFILE_NAMES
from repro.execution.serving_vectorized import SERVING_ENGINE_NAMES
from repro.experiments.adaptive_experiment import run_drift_suite
from repro.experiments.fleet_experiment import (
    FLEET_SCENARIO_NAMES,
    run_fleet_scenario,
    run_fleet_suite,
)
from repro.experiments.harness import (
    DEFAULT_METHODS,
    ExperimentSettings,
    build_objective,
    make_searcher,
)
from repro.experiments.fuzzer import run_fuzz
from repro.experiments.motivation import decoupling_heatmap
from repro.experiments.reporting import (
    render_backend_stats,
    render_drift_suite,
    render_fleet_result,
    render_fleet_suite,
    render_fuzz_report,
    render_heatmap,
    render_scenario_matrix,
    render_serving_report,
)
from repro.experiments.serving_experiment import (
    ServingSettings,
    build_protection_scenario_matrix,
    run_scenario_matrix,
    run_serving_experiment,
)
from repro.workloads.arrivals import ARRIVAL_NAMES
from repro.utils.tables import Table
from repro.workflow.serialization import configuration_to_dict
from repro.workloads.registry import get_workload, list_workloads

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-aarc",
        description="AARC reproduction: automated affinity-aware resource configuration",
    )
    parser.add_argument("--seed", type=int, default=2025, help="experiment seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("workloads", help="list the built-in benchmark workloads")

    describe = subparsers.add_parser("describe", help="describe one workload")
    describe.add_argument("workload", help="workload name (see 'workloads')")

    def positive_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be at least 1")
        return value

    def add_backend_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend", default="simulator", choices=list(BACKEND_NAMES),
            help="evaluation substrate serving the search's samples "
                 "('vectorized' serves whole batches from NumPy kernels)",
        )
        sub.add_argument(
            "--cache", action=argparse.BooleanOptionalAction, default=False,
            help="memoize deterministic evaluations (--no-cache disables)",
        )

    search = subparsers.add_parser("search", help="search a configuration for one workload")
    search.add_argument("workload")
    search.add_argument(
        "--method", default="AARC", choices=["AARC", "BO", "MAFF", "Random", "Grid"],
        help="search method to run",
    )
    search.add_argument(
        "--bo-samples", type=int, default=100, help="sample budget for BO/Random"
    )
    search.add_argument(
        "--json", action="store_true", help="print the configuration as JSON"
    )
    add_backend_arguments(search)

    compare = subparsers.add_parser("compare", help="compare AARC, BO and MAFF on one workload")
    compare.add_argument("workload")
    compare.add_argument("--bo-samples", type=int, default=60)
    add_backend_arguments(compare)

    heatmap = subparsers.add_parser("heatmap", help="decoupled (vCPU, memory) sweep (Fig. 2)")
    heatmap.add_argument("workload")
    heatmap.add_argument(
        "--backend", default="vectorized", choices=list(BACKEND_NAMES),
        help="evaluation substrate serving the sweep (all are bit-identical)",
    )

    serve = subparsers.add_parser(
        "serve", help="serve a traffic stream through the event-driven serving layer"
    )
    serve.add_argument(
        "--workload", default="video-analysis",
        help="workload whose workflow is served (see 'workloads')",
    )
    serve.add_argument(
        "--method", default="AARC",
        choices=["AARC", "BO", "MAFF", "Random", "Grid", "base"],
        help="configuration source ('base' skips the search)",
    )
    serve.add_argument(
        "--input-aware", action="store_true",
        help="dispatch per input class via the Input-Aware Configuration Engine",
    )
    serve.add_argument(
        "--arrival", default=None, choices=list(ARRIVAL_NAMES),
        help="arrival process (default: the workload's traffic profile)",
    )
    serve.add_argument(
        "--rate", type=float, default=None,
        help="mean arrival rate in requests/second (default: workload profile)",
    )
    serve.add_argument(
        "--duration", type=float, default=300.0,
        help="traffic horizon in simulated seconds (the run drains past it)",
    )
    serve.add_argument(
        "--nodes", type=int, default=8,
        help="cluster size requests contend for (0 = unlimited capacity)",
    )
    serve.add_argument(
        "--autoscale", action=argparse.BooleanOptionalAction, default=False,
        help="let the warm pool track the observed arrival rate",
    )
    serve.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=True,
        help="memoize deterministic service traces (--no-cache disables)",
    )
    serve.add_argument(
        "--noise", type=float, default=0.0, metavar="CV",
        help="lognormal execution-noise coefficient of variation (0 = off)",
    )
    serve.add_argument(
        "--faults", default=None, choices=list(FAULT_PROFILE_NAMES),
        help="fault profile to inject ('default' = the workload's own; "
             "omit for a clean run)",
    )
    serve.add_argument(
        "--protection", default=None, choices=list(PROTECTION_PROFILE_NAMES),
        help="graceful-degradation profile guarding the run (admission "
             "control, circuit breakers, load shedding, hedging, deadline "
             "budgets; omit or 'none' for the unguarded path)",
    )
    serve.add_argument(
        "--backend", default="simulator", choices=list(BACKEND_NAMES),
        help="evaluation substrate serving the request path's service "
             "traces (all are bit-identical; the differential tests assert it)",
    )
    serve.add_argument(
        "--engine", default="event", choices=list(SERVING_ENGINE_NAMES),
        help="serving engine: the scalar event loop or the cohort-vectorized "
             "batched engine (bit-identical reports; the differential tests "
             "assert it)",
    )
    serve.add_argument(
        "--adaptive", action="store_true",
        help="close the drift -> re-tune -> rollout loop mid-run with the "
             "online reconfiguration controller",
    )
    serve.add_argument(
        "--controller", default="canary", choices=list(ROLLOUT_POLICY_NAMES),
        help="rollout policy adaptive re-tunes go out through",
    )
    serve.add_argument(
        "--detector", default="threshold", choices=list(DRIFT_DETECTOR_NAMES),
        help="drift detector deciding when the controller re-tunes",
    )
    # Top-level --seed sits before the subcommand; accept it after 'serve'
    # too (the natural place to type it) without clobbering the parent value.
    serve.add_argument(
        "--seed", dest="serve_seed", type=int, default=None,
        help="experiment seed (same as the global --seed)",
    )

    scenarios = subparsers.add_parser(
        "scenarios",
        help="run a named scenario matrix through the serving layer",
    )
    scenarios.add_argument(
        "--suite", default="resilience",
        choices=["resilience", "drift", "protection", "fleet", "fuzz"],
        help="scenario family: fault resilience, drift-aware adaptive "
             "serving (drift ignores --workload/--method/--nodes/--rate), "
             "the graceful-degradation protection suite, the multi-tenant "
             "fleet suite (fleet ignores the same knobs), or generated "
             "invariant-checked fuzz scenarios (fuzz honours --budget, "
             "--workers and the seed only)",
    )
    scenarios.add_argument(
        "--budget", type=positive_int, default=25,
        help="number of generated scenarios for --suite fuzz",
    )
    scenarios.add_argument(
        "--workload", default="chatbot",
        help="workload whose workflow is served (see 'workloads')",
    )
    scenarios.add_argument(
        "--method", default="base",
        choices=["AARC", "BO", "MAFF", "Random", "Grid", "base"],
        help="configuration source shared by every scenario",
    )
    scenarios.add_argument(
        "--duration", type=float, default=None,
        help="traffic horizon in simulated seconds per scenario "
             "(default: 200, or each fleet scenario's own horizon)",
    )
    scenarios.add_argument(
        "--nodes", type=positive_int, default=4,
        help="cluster size every scenario contends for",
    )
    scenarios.add_argument(
        "--rate", type=float, default=0.15,
        help="shared mean arrival rate in requests/second",
    )
    scenarios.add_argument(
        "--workers", type=positive_int, default=None,
        help="run the resilience matrix cells in N parallel processes "
             "(per-scenario seed isolation keeps reports byte-identical)",
    )
    scenarios.add_argument(
        "--seed", dest="scenarios_seed", type=int, default=None,
        help="experiment seed (same as the global --seed)",
    )

    fleet = subparsers.add_parser(
        "fleet",
        help="serve a multi-tenant fleet scenario on a heterogeneous cluster",
    )
    fleet.add_argument(
        "--scenario", default="noisy-neighbor", choices=list(FLEET_SCENARIO_NAMES),
        help="named fleet scenario (tenants, cluster and knobs are built in)",
    )
    fleet.add_argument(
        "--policy", default=None, choices=list(PLACEMENT_POLICIES),
        help="run a single placement policy instead of the scenario's "
             "comparison pair",
    )
    fleet.add_argument(
        "--duration", type=float, default=None,
        help="traffic horizon in simulated seconds (default: the scenario's)",
    )
    fleet.add_argument(
        "--seed", dest="fleet_seed", type=int, default=None,
        help="experiment seed (same as the global --seed)",
    )

    fuzz = subparsers.add_parser(
        "fuzz",
        help="fuzz the serving layer with generated, invariant-checked "
             "scenarios (workload zoo x arrivals x drift x faults x "
             "protection x controller)",
    )
    fuzz.add_argument(
        "--budget", type=positive_int, default=25,
        help="number of generated scenarios to run",
    )
    fuzz.add_argument(
        "--workers", type=positive_int, default=None,
        help="run scenarios in N parallel processes (reports stay "
             "byte-identical; only wall-clock time changes)",
    )
    fuzz.add_argument(
        "--verbose", action="store_true",
        help="tabulate every generated scenario, not just failures",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="skip shrinking the first failure to a minimal reproducer",
    )
    fuzz.add_argument(
        "--seed", dest="fuzz_seed", type=int, default=None,
        help="campaign seed (same as the global --seed); gene i of a seed "
             "is budget-independent, so --budget 25 is a prefix of "
             "--budget 100",
    )

    return parser


def _cmd_workloads(_: argparse.Namespace) -> int:
    for name in list_workloads():
        print(name)
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    print(workload.describe())
    print()
    table = Table(
        ["function", "affinity", "cpu_seconds", "io_seconds", "working_set_mb"],
        precision=1,
        title="performance profiles",
    )
    for spec in workload.workflow.functions:
        profile = workload.profile_by_name(spec.profile_name)
        affinity = profile.tags[0] if profile.tags else "balanced"
        table.add_row(spec.name, affinity, profile.cpu_seconds, profile.io_seconds,
                      profile.working_set_mb)
    print(table.render())
    return 0


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    return ExperimentSettings(
        seed=args.seed,
        bo_samples=args.bo_samples,
        backend=getattr(args, "backend", "simulator"),
        cache=getattr(args, "cache", False),
    )


def _cmd_search(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    settings = _settings_from_args(args)
    searcher = make_searcher(args.method, workload, settings)
    objective = build_objective(workload, settings)
    result = searcher.search(objective)
    if not result.found_feasible:
        print(result.summary(), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(configuration_to_dict(result.best_configuration), indent=2))
        return 0
    print(result.summary())
    for name, config in sorted(result.best_configuration.items()):
        print(f"  {name:>24s}: {config.describe()}")
    if settings.cache and result.backend_stats is not None:
        print(f"  backend: {result.backend_stats.describe()}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    settings = _settings_from_args(args)
    table = Table(
        ["method", "samples", "search_runtime_s", "search_cost", "best_runtime_s", "best_cost"],
        precision=1,
        title=f"search comparison on {workload.name} (SLO {workload.slo.latency_limit:.0f}s)",
    )
    exit_code = 0
    results = {}
    # One backend for all methods: with --cache, configurations that several
    # methods visit (baselines, generous initials) are simulated only once.
    shared_backend = workload.build_backend(
        backend=settings.backend, cache=settings.cache
    )
    previous = shared_backend.stats
    for method in DEFAULT_METHODS:
        searcher = make_searcher(method, workload, settings)
        objective = workload.build_objective(backend=shared_backend)
        result = searcher.search(objective)
        # The shared stack's counters are cumulative; report each method's
        # own contribution.
        snapshot = result.backend_stats
        result.backend_stats = snapshot.delta(previous)
        previous = snapshot
        results[method] = result
        if not result.found_feasible:
            exit_code = 1
        table.add_row(
            method,
            result.sample_count,
            result.total_search_runtime_seconds,
            result.total_search_cost,
            result.best_runtime_seconds if result.found_feasible else float("nan"),
            result.best_cost if result.found_feasible else float("nan"),
        )
    print(table.render())
    if settings.cache:
        print(render_backend_stats(results))
    return exit_code


def _cmd_heatmap(args: argparse.Namespace) -> int:
    print(render_heatmap(decoupling_heatmap(args.workload, backend=args.backend)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    seed = args.serve_seed if args.serve_seed is not None else args.seed
    settings = ServingSettings(
        method=args.method,
        input_aware=args.input_aware,
        arrival=args.arrival,
        rate_rps=args.rate,
        duration_seconds=args.duration,
        seed=seed,
        nodes=args.nodes,
        autoscale=args.autoscale,
        cache=args.cache,
        noise_cv=args.noise,
        faults=args.faults,
        protection=args.protection,
        backend=args.backend,
        engine=args.engine,
        adaptive=args.adaptive,
        detector=args.detector,
        rollout=args.controller,
    )
    report = run_serving_experiment(args.workload, settings)
    print(render_serving_report(report))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    seed = args.scenarios_seed if args.scenarios_seed is not None else args.seed
    if args.suite == "fuzz":
        report = run_fuzz(budget=args.budget, seed=seed, workers=args.workers)
        print(render_fuzz_report(report))
        return 1 if report.failures else 0
    if args.suite == "drift":
        print(render_drift_suite(run_drift_suite(seed=seed)))
        return 0
    if args.suite == "fleet":
        # None lets each fleet scenario keep its own horizon (the flash-crowd
        # ramp, e.g., only starts at t=240s); --duration still overrides.
        print(render_fleet_suite(run_fleet_suite(seed=seed, duration_seconds=args.duration)))
        return 0
    duration = args.duration if args.duration is not None else 200.0
    if args.suite == "protection":
        matrix = run_scenario_matrix(
            args.workload,
            seed=seed,
            workers=args.workers,
            scenarios=build_protection_scenario_matrix(
                args.workload,
                seed=seed,
                duration_seconds=duration,
                method=args.method,
                nodes=args.nodes,
                rate_rps=args.rate,
            ),
        )
        print(render_scenario_matrix(matrix))
        return 0
    matrix = run_scenario_matrix(
        args.workload,
        seed=seed,
        duration_seconds=duration,
        method=args.method,
        nodes=args.nodes,
        rate_rps=args.rate,
        workers=args.workers,
    )
    print(render_scenario_matrix(matrix))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    seed = args.fleet_seed if args.fleet_seed is not None else args.seed
    policies = [args.policy] if args.policy is not None else None
    result = run_fleet_scenario(
        args.scenario,
        seed=seed,
        duration_seconds=args.duration,
        policies=policies,
    )
    print(f"fleet scenario {result.name!r} — {result.description} (seed {seed})")
    for policy, run in result.runs.items():
        print(render_fleet_result(run, title=f"policy: {policy}"))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    seed = args.fuzz_seed if args.fuzz_seed is not None else args.seed
    report = run_fuzz(
        budget=args.budget,
        seed=seed,
        workers=args.workers,
        shrink=not args.no_shrink,
    )
    print(render_fuzz_report(report, verbose=args.verbose))
    return 1 if report.failures else 0


_COMMANDS = {
    "workloads": _cmd_workloads,
    "describe": _cmd_describe,
    "search": _cmd_search,
    "compare": _cmd_compare,
    "heatmap": _cmd_heatmap,
    "serve": _cmd_serve,
    "scenarios": _cmd_scenarios,
    "fleet": _cmd_fleet,
    "fuzz": _cmd_fuzz,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handler = _COMMANDS[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - manual invocation
    raise SystemExit(main())

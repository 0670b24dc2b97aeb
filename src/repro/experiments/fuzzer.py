"""Scenario fuzzer: generated, invariant-checked serving scenarios.

The hand-written scenario matrices (`build_scenario_matrix`,
`build_protection_scenario_matrix`, the drift suite) each pin a handful of
compositions with hand-written expectations.  The fuzzer instead *composes*
the whole space — ``{generated workload × arrival process × drift phases ×
fault profile × protection policy × controller policy}`` — into runnable
:class:`~repro.experiments.serving_experiment.ScenarioSpec` cells, and
replaces per-scenario expectations with **cross-cutting invariants** that
must hold for *every* composition:

* request conservation — every offered request is either completed or
  rejected, and the metrics agree with the raw outcome lists;
* billing closure — ``total_cost`` is exactly the sum of per-request costs,
  and every cost is finite and non-negative;
* SLO-accounting consistency — ``slo_attainment`` equals the fraction of
  completed requests within the (possibly scaled) limit, recomputed from the
  raw latencies;
* per-cause rejection sums — ``rejected_by_cause`` partitions the rejected
  count;
* tail sanity — latency percentiles are ordered and finite, rates and
  fractions stay within their ranges.

Everything derives from one root seed through
:class:`~repro.utils.rng.RngStream`, so gene *i* of seed *S* is the same
scenario regardless of budget or worker count, and a whole fuzz campaign is
bit-reproducible (the report carries a digest over every run's summary; the
CLI acceptance check re-runs a campaign and compares digests).

When a composition violates an invariant, :func:`shrink_failure` reduces it
to a **minimal reproducer** by greedy component-wise reduction: one varying
component at a time is reset to its baseline value (chatbot / constant
arrival / no drift / no faults / no protection / no controller), the
candidate re-runs under the *same seed*, and the reduction is kept only if
the violation persists.  The loop restarts after every successful reduction
and stops when no single reduction still fails, so the surviving components
are exactly the ones the failure needs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.execution.outcomes import outcome_columns
from repro.experiments.serving_experiment import (
    ScenarioSpec,
    ServingReport,
    ServingSettings,
    run_scenario_matrix,
    run_serving_experiment,
)
from repro.utils.ranges import AT_LEAST_1
from repro.utils.rng import RngStream
from repro.workloads.arrivals import TrafficPhase, TrafficProfile
from repro.workloads.zoo import ZOO_FAMILIES, ZooConfig

__all__ = [
    "ScenarioGene",
    "FuzzRunRecord",
    "FuzzReport",
    "ShrinkResult",
    "GENE_COMPONENTS",
    "GENE_BASELINE",
    "sample_gene",
    "gene_settings",
    "run_gene",
    "check_invariants",
    "run_fuzz",
    "shrink_failure",
    "varying_components",
]

#: Gene components the shrinker reduces, in reduction order.
GENE_COMPONENTS: Tuple[str, ...] = (
    "workload",
    "arrival",
    "drift",
    "faults",
    "protection",
    "controller",
)

#: The known-good composition every component shrinks toward.
GENE_BASELINE: Dict[str, Optional[str]] = {
    "workload": "chatbot",
    "arrival": "constant",
    "drift": None,
    "faults": None,
    "protection": None,
    "controller": None,
}

_ARRIVAL_CHOICES: Tuple[str, ...] = (
    "constant",
    "poisson",
    "bursty",
    "diurnal",
    "replay",
)
_DRIFT_CHOICES: Tuple[Optional[str], ...] = (None, "rate-step")
_FAULT_CHOICES: Tuple[Optional[str], ...] = (
    None,
    "crashes",
    "stragglers",
    "oom",
    "node-storm",
)
_PROTECTION_CHOICES: Tuple[Optional[str], ...] = (
    None,
    "breakers",
    "hedging",
    "deadlines",
    "full",
)
_CONTROLLER_CHOICES: Tuple[Optional[str], ...] = (
    None,
    "immediate",
    "canary",
    "drain",
)
_DENSITY_CHOICES: Tuple[float, ...] = (0.15, 0.35, 0.6)


@dataclass(frozen=True)
class ScenarioGene:
    """One point of the fuzzed composition space.

    A gene is pure data — component names plus the run seed — so it can be
    printed as a reproducer, replayed bit-identically, and reduced one
    component at a time by the shrinker.
    """

    index: int
    workload: str
    arrival: str
    rate_rps: float
    drift: Optional[str]
    faults: Optional[str]
    protection: Optional[str]
    controller: Optional[str]
    duration_seconds: float
    seed: int

    def describe(self) -> str:
        """One-line composition summary (used as the scenario description)."""
        parts = [
            self.workload,
            f"arrival={self.arrival}",
            f"rate={self.rate_rps:.3f}rps",
            f"drift={self.drift or 'none'}",
            f"faults={self.faults or 'none'}",
            f"protection={self.protection or 'none'}",
            f"controller={self.controller or 'none'}",
            f"seed={self.seed}",
        ]
        return " ".join(parts)


def sample_gene(index: int, seed: int) -> ScenarioGene:
    """Draw gene ``index`` of the campaign rooted at ``seed``.

    Each gene draws from ``RngStream(seed, "fuzz").child(index)``, so gene
    *i* is independent of the budget: a ``--budget 25`` smoke run fuzzes a
    strict prefix of the ``--budget 100`` campaign.
    """
    rng = RngStream(seed, "fuzz").child(index)
    family = ZOO_FAMILIES[rng.integers(0, len(ZOO_FAMILIES))]
    config = ZooConfig(
        family=family,
        seed=rng.integers(0, 100_000),
        width=2 + rng.integers(0, 3),
        depth=2 + rng.integers(0, 3),
        edge_density=_DENSITY_CHOICES[rng.integers(0, len(_DENSITY_CHOICES))],
    )
    return ScenarioGene(
        index=index,
        workload=config.name,
        arrival=_ARRIVAL_CHOICES[rng.integers(0, len(_ARRIVAL_CHOICES))],
        rate_rps=rng.uniform(0.08, 0.35),
        drift=_DRIFT_CHOICES[rng.integers(0, len(_DRIFT_CHOICES))],
        faults=_FAULT_CHOICES[rng.integers(0, len(_FAULT_CHOICES))],
        protection=_PROTECTION_CHOICES[rng.integers(0, len(_PROTECTION_CHOICES))],
        controller=_CONTROLLER_CHOICES[rng.integers(0, len(_CONTROLLER_CHOICES))],
        duration_seconds=float(40 + 10 * rng.integers(0, 5)),
        seed=rng.integers(0, 1_000_000_000),
    )


def _replay_counts(gene: ScenarioGene, bins: int = 6) -> Tuple[List[int], float]:
    """Deterministic per-bin invocation counts for a ``replay`` gene."""
    rng = RngStream(gene.seed, "fuzz/replay")
    bin_seconds = gene.duration_seconds / bins
    ceiling = 1 + int(gene.rate_rps * bin_seconds * 2)
    counts = [rng.integers(0, ceiling + 1) for _ in range(bins)]
    if not any(counts):
        counts[0] = 1
    return counts, bin_seconds


def _gene_phases(gene: ScenarioGene) -> Optional[Tuple[TrafficPhase, ...]]:
    """Traffic phases for genes that need them (replay and/or drift).

    Replay arrivals route through the phase machinery even without drift —
    that is exactly the "trace replay composes with ``TrafficModel`` /
    ``DriftingTrafficModel``" contract — and a drifting replay gene steps
    the per-bin counts instead of the rate.
    """
    if gene.arrival == "replay":
        counts, bin_seconds = _replay_counts(gene)
        calm = TrafficProfile(
            arrival="replay", trace_counts=counts, trace_bin_seconds=bin_seconds
        )
        if gene.drift is None:
            return (TrafficPhase("replay", 0.0, calm),)
        surge = TrafficProfile(
            arrival="replay",
            trace_counts=[c * 3 for c in counts],
            trace_bin_seconds=bin_seconds,
        )
        return (
            TrafficPhase("replay-calm", 0.0, calm),
            TrafficPhase("replay-surge", gene.duration_seconds / 2.0, surge),
        )
    if gene.drift == "rate-step":
        return (
            TrafficPhase(
                "calm",
                0.0,
                TrafficProfile(arrival=gene.arrival, rate_rps=gene.rate_rps),
            ),
            TrafficPhase(
                "surge",
                gene.duration_seconds / 2.0,
                TrafficProfile(arrival=gene.arrival, rate_rps=3.0 * gene.rate_rps),
            ),
        )
    return None


def gene_settings(gene: ScenarioGene) -> ServingSettings:
    """Materialize a gene into runnable serving settings.

    Uses the base configuration (no search phase) on a small cluster so a
    hundred-gene campaign stays cheap; all stochastic choices inside the run
    re-derive from ``gene.seed``.
    """
    phases = _gene_phases(gene)
    return ServingSettings(
        method="base",
        arrival=None if phases is not None else gene.arrival,
        rate_rps=None if phases is not None else gene.rate_rps,
        duration_seconds=gene.duration_seconds,
        seed=gene.seed,
        nodes=3,
        faults=gene.faults,
        protection=gene.protection,
        phases=phases,
        adaptive=gene.controller is not None,
        rollout=gene.controller if gene.controller is not None else "canary",
    )


def gene_spec(gene: ScenarioGene) -> ScenarioSpec:
    """Wrap a gene as a scenario-matrix cell (picklable, workload-pinned)."""
    return ScenarioSpec(
        name=f"fuzz-{gene.index:04d}",
        description=gene.describe(),
        settings=gene_settings(gene),
        workload=gene.workload,
    )


def run_gene(gene: ScenarioGene) -> ServingReport:
    """Run one gene end to end (the shrinker's default runner)."""
    return run_serving_experiment(gene.workload, gene_settings(gene))


# -- invariants -------------------------------------------------------------------

_REL_TOL = 1e-9
_ABS_TOL = 1e-6


def check_invariants(report: ServingReport) -> List[str]:
    """Check the cross-cutting invariants on one serving report.

    Returns human-readable violation strings (empty list = all invariants
    hold).  These are properties of the *accounting*, not of any particular
    composition, so every fuzzed scenario — faulty, protected, drifting,
    adaptive — must satisfy all of them.
    """
    violations: List[str] = []
    metrics = report.metrics
    result = report.result
    # One column read of the outcomes serves every per-request check below.
    columns = outcome_columns(result.outcomes) if result is not None else None

    # Request conservation.
    if metrics.offered != metrics.completed + metrics.rejected:
        violations.append(
            "request conservation: offered "
            f"{metrics.offered} != completed {metrics.completed} "
            f"+ rejected {metrics.rejected}"
        )
    if metrics.failed > metrics.completed:
        violations.append(
            f"failed {metrics.failed} exceeds completed {metrics.completed}"
        )
    if result is not None:
        if len(result.outcomes) != metrics.completed:
            violations.append(
                f"outcome list has {len(result.outcomes)} entries "
                f"but metrics.completed is {metrics.completed}"
            )
        if len(result.rejected) != metrics.rejected:
            violations.append(
                f"rejected list has {len(result.rejected)} entries "
                f"but metrics.rejected is {metrics.rejected}"
            )

    # Per-cause rejection sums partition the rejected count.
    cause_total = sum(metrics.rejected_by_cause.values())
    if cause_total != metrics.rejected:
        violations.append(
            f"rejection causes sum to {cause_total} "
            f"but metrics.rejected is {metrics.rejected} "
            f"(causes: {dict(metrics.rejected_by_cause)})"
        )
    if any(count < 0 for count in metrics.rejected_by_cause.values()):
        violations.append(
            f"negative rejection cause count: {dict(metrics.rejected_by_cause)}"
        )

    # Billing closure.
    if columns is not None:
        recomputed_cost = sum(columns.cost.tolist())
        if not math.isclose(
            recomputed_cost, metrics.total_cost, rel_tol=_REL_TOL, abs_tol=_ABS_TOL
        ):
            violations.append(
                f"billing closure: total_cost {metrics.total_cost!r} != "
                f"sum of outcome costs {recomputed_cost!r}"
            )
        costs = columns.cost
        bad_costs = costs[~np.isfinite(costs) | (costs < 0)].tolist()
        if bad_costs:
            violations.append(
                f"non-finite or negative request costs: {bad_costs[:5]}"
            )
    if metrics.completed:
        mean_total = metrics.mean_cost_per_request * metrics.completed
        if not math.isclose(
            mean_total, metrics.total_cost, rel_tol=1e-6, abs_tol=_ABS_TOL
        ):
            violations.append(
                f"mean_cost_per_request * completed = {mean_total!r} "
                f"disagrees with total_cost {metrics.total_cost!r}"
            )

    # SLO-accounting consistency.
    if metrics.slo_limit_seconds is not None and metrics.completed and columns is not None:
        within = int(np.count_nonzero(columns.latency <= metrics.slo_limit_seconds))
        recomputed = within / metrics.completed
        if metrics.slo_attainment is None or not math.isclose(
            recomputed, metrics.slo_attainment, rel_tol=_REL_TOL, abs_tol=1e-12
        ):
            violations.append(
                f"slo accounting: reported attainment {metrics.slo_attainment!r} "
                f"!= recomputed {recomputed!r} "
                f"({within}/{metrics.completed} within {metrics.slo_limit_seconds}s)"
            )
    if metrics.slo_attainment is not None and not 0.0 <= metrics.slo_attainment <= 1.0:
        violations.append(f"slo_attainment {metrics.slo_attainment!r} outside [0, 1]")
    if not 0.0 <= metrics.availability <= 1.0 + _REL_TOL:
        violations.append(f"availability {metrics.availability!r} outside [0, 1]")

    # Tail sanity.
    if metrics.completed:
        percentiles = (
            metrics.latency_p50_seconds,
            metrics.latency_p95_seconds,
            metrics.latency_p99_seconds,
            metrics.latency_max_seconds,
        )
        if any(not math.isfinite(p) for p in percentiles):
            violations.append(f"non-finite latency percentiles: {percentiles}")
        elif not (
            percentiles[0] <= percentiles[1] + _ABS_TOL
            and percentiles[1] <= percentiles[2] + _ABS_TOL
            and percentiles[2] <= percentiles[3] + _ABS_TOL
        ):
            violations.append(f"latency percentiles not ordered: {percentiles}")
        if columns is not None and not (
            np.isfinite(columns.latency) & (columns.latency >= 0)
        ).all():
            violations.append("non-finite or negative per-request latency")
    return violations


# -- campaign ---------------------------------------------------------------------


@dataclass(frozen=True)
class FuzzRunRecord:
    """Summary of one fuzzed scenario run (what the digest hashes)."""

    gene: ScenarioGene
    offered: int
    completed: int
    rejected: int
    failed: int
    total_cost: float
    slo_attainment: Optional[float]
    violations: Tuple[str, ...]


@dataclass
class ShrinkResult:
    """Outcome of shrinking one failing gene to a minimal reproducer."""

    original: ScenarioGene
    minimal: ScenarioGene
    violations: Tuple[str, ...]
    runs: int
    varying: Tuple[str, ...]

    def describe(self) -> str:
        """Render the reproducer for a report / terminal."""
        lines = [
            f"minimal reproducer ({len(self.varying)} varying "
            f"component{'s' if len(self.varying) != 1 else ''}: "
            f"{', '.join(self.varying) or 'none'}; {self.runs} shrink runs)",
            f"  {self.minimal.describe()}",
        ]
        lines.extend(f"  violation: {v}" for v in self.violations)
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Everything one fuzz campaign produced."""

    budget: int
    seed: int
    records: List[FuzzRunRecord]
    digest: str
    shrink: Optional[ShrinkResult] = None
    workers: int = 1

    @property
    def failures(self) -> List[FuzzRunRecord]:
        """Records whose run violated at least one invariant."""
        return [record for record in self.records if record.violations]

    @property
    def violation_count(self) -> int:
        """Total invariant violations across the campaign."""
        return sum(len(record.violations) for record in self.records)


def _campaign_digest(records: Sequence[FuzzRunRecord]) -> str:
    """Order-independent-of-nothing digest: byte-stable across invocations."""
    payload = [
        {
            "gene": dataclasses.asdict(record.gene),
            "offered": record.offered,
            "completed": record.completed,
            "rejected": record.rejected,
            "failed": record.failed,
            "total_cost": repr(record.total_cost),
            "slo_attainment": repr(record.slo_attainment),
            "violations": list(record.violations),
        }
        for record in records
    ]
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _record(gene: ScenarioGene, report: ServingReport) -> FuzzRunRecord:
    return FuzzRunRecord(
        gene=gene,
        offered=report.metrics.offered,
        completed=report.metrics.completed,
        rejected=report.metrics.rejected,
        failed=report.metrics.failed,
        total_cost=report.metrics.total_cost,
        slo_attainment=report.metrics.slo_attainment,
        violations=tuple(check_invariants(report)),
    )


def run_fuzz(
    budget: int = 25,
    seed: int = 717,
    workers: Optional[int] = None,
    shrink: bool = True,
) -> FuzzReport:
    """Run a fuzz campaign of ``budget`` generated scenarios.

    The genes are sampled up front (budget-prefix-stable under a fixed
    seed), run through :func:`~repro.experiments.serving_experiment.
    run_scenario_matrix` — the same process-pool workers the hand-written
    matrices use — and every report is invariant-checked.  When the
    campaign surfaces a failure and ``shrink`` is true, the first failing
    gene is reduced to a minimal reproducer before returning.
    """
    AT_LEAST_1.check(budget, "budget")
    genes = [sample_gene(index, seed) for index in range(budget)]
    specs = [gene_spec(gene) for gene in genes]
    matrix = run_scenario_matrix(
        GENE_BASELINE["workload"], seed=seed, scenarios=specs, workers=workers
    )
    records = [
        _record(gene, matrix.reports[spec.name])
        for gene, spec in zip(genes, specs)
    ]
    shrink_result: Optional[ShrinkResult] = None
    if shrink:
        first_failure = next(
            (record for record in records if record.violations), None
        )
        if first_failure is not None:
            shrink_result = shrink_failure(first_failure.gene)
    return FuzzReport(
        budget=budget,
        seed=seed,
        records=records,
        digest=_campaign_digest(records),
        shrink=shrink_result,
        workers=workers if workers is not None else 1,
    )


# -- shrinking --------------------------------------------------------------------


def varying_components(gene: ScenarioGene) -> Tuple[str, ...]:
    """Gene components that differ from the baseline composition."""
    return tuple(
        name
        for name in GENE_COMPONENTS
        if getattr(gene, name) != GENE_BASELINE[name]
    )


def shrink_failure(
    gene: ScenarioGene,
    check: Callable[[ServingReport], List[str]] = check_invariants,
    runner: Callable[[ScenarioGene], ServingReport] = run_gene,
    max_runs: int = 32,
) -> ShrinkResult:
    """Greedily reduce a failing gene to a minimal reproducer.

    One varying component at a time is reset to its baseline value and the
    candidate re-runs *under the same seed*; a reduction is kept only if
    ``check`` still reports violations.  After every kept reduction the
    sweep restarts, and shrinking stops when no single reduction still
    fails (a local minimum: every surviving component is necessary) or the
    ``max_runs`` re-run budget is exhausted.

    ``check`` and ``runner`` are injectable so tests can seed a deliberate
    invariant breaker without touching the production accounting.
    """
    violations = check(runner(gene))
    runs = 1
    if not violations:
        raise ValueError(
            f"gene {gene.index} does not violate any invariant; nothing to shrink"
        )
    current = gene
    reduced = True
    while reduced and runs < max_runs:
        reduced = False
        for name in GENE_COMPONENTS:
            if getattr(current, name) == GENE_BASELINE[name]:
                continue
            candidate = dataclasses.replace(current, **{name: GENE_BASELINE[name]})
            candidate_violations = check(runner(candidate))
            runs += 1
            if candidate_violations:
                current = candidate
                violations = candidate_violations
                reduced = True
                break
            if runs >= max_runs:
                break
    return ShrinkResult(
        original=gene,
        minimal=current,
        violations=tuple(violations),
        runs=runs,
        varying=varying_components(current),
    )

"""Serving outcomes: per-request records, their columns and the run summary.

Every serving engine reports one :class:`ServedRequest` per completed
request and one :class:`ServingMetrics` per run.  The event loop and the
fleet build the records as they complete.  The batched engine keeps its
outcomes as columns instead: an :class:`OutcomeTable` holds one array per
field and builds each record only when it is read, so a run's memory grows
by a few words per request rather than by two objects.

:func:`summarize_outcomes` is the one summary routine.  It reads columns
(:func:`outcome_columns` builds them from a list of records), and every
float total is the builtin ``sum`` of a column's values in index order, as
a loop over the records would add them, so the two kinds of outcomes give
the same totals on every Python version.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.execution.cluster import ClusterLedger
from repro.execution.events import ArrivalBatch, RequestArrival
from repro.execution.templates import TraceTemplate
from repro.execution.trace import ExecutionTrace
from repro.utils.stats import nearest_rank
from repro.workflow.resources import WorkflowConfiguration
from repro.workflow.slo import SLO

__all__ = [
    "OutcomeColumns",
    "OutcomeTable",
    "ServedRequest",
    "ServingMetrics",
    "outcome_columns",
    "summarize_outcomes",
]


class ServedRequest:
    """Outcome of one request that made it through the serving layer.

    The resilience fields (``attempts`` onwards) are only populated by
    fault-injecting runs; fault-free runs leave them at their zero defaults.
    ``base_invocations`` counts the invocations a fault-free execution of
    the same trace performs, so ``attempts / base_invocations`` is the
    request's retry amplification.

    The event loop and the fleet build one per completed request, so the
    class is a hand-written ``__slots__`` record rather than a dataclass
    (which cannot combine slots with field defaults before Python 3.10).
    The batched engine builds them only when its :class:`OutcomeTable` is
    read.  ``config_version`` stays writable — the serving loop stamps it
    at completion time under an adaptive controller.
    """

    __slots__ = (
        "index",
        "request",
        "configuration",
        "dispatch_time",
        "completion_time",
        "cost",
        "cold_start_count",
        "cold_start_seconds",
        "succeeded",
        "service_trace",
        "config_version",
        "attempts",
        "retries",
        "restarts",
        "base_invocations",
        "wasted_seconds",
        "wasted_gb_seconds",
        "fault_counts",
        "hedges",
        "hedge_wins",
    )

    def __init__(
        self,
        index: int,
        request: RequestArrival,
        configuration: WorkflowConfiguration,
        dispatch_time: float,
        completion_time: float,
        cost: float,
        cold_start_count: int = 0,
        cold_start_seconds: float = 0.0,
        succeeded: bool = True,
        service_trace: Optional[ExecutionTrace] = None,
        config_version: int = 0,
        attempts: int = 0,
        retries: int = 0,
        restarts: int = 0,
        base_invocations: int = 0,
        wasted_seconds: float = 0.0,
        wasted_gb_seconds: float = 0.0,
        fault_counts: Optional[Dict[str, int]] = None,
        hedges: int = 0,
        hedge_wins: int = 0,
    ) -> None:
        self.index = index
        self.request = request
        self.configuration = configuration
        self.dispatch_time = dispatch_time
        self.completion_time = completion_time
        self.cost = cost
        self.cold_start_count = cold_start_count
        self.cold_start_seconds = cold_start_seconds
        self.succeeded = succeeded
        self.service_trace = service_trace
        #: Configuration version that served this request (0 = the initial
        #: configuration; bumped by adaptive re-tunes).  Static runs stay at 0.
        self.config_version = config_version
        self.attempts = attempts
        self.retries = retries
        self.restarts = restarts
        self.base_invocations = base_invocations
        self.wasted_seconds = wasted_seconds
        self.wasted_gb_seconds = wasted_gb_seconds
        self.fault_counts = fault_counts if fault_counts is not None else {}
        self.hedges = hedges
        self.hedge_wins = hedge_wins

    def __repr__(self) -> str:
        return (
            f"ServedRequest(index={self.index}, "
            f"arrival={self.request.arrival_time!r}, "
            f"dispatch={self.dispatch_time!r}, "
            f"completion={self.completion_time!r}, cost={self.cost!r}, "
            f"succeeded={self.succeeded})"
        )

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state) -> None:
        for name, value in zip(self.__slots__, state):
            setattr(self, name, value)

    @property
    def arrival_time(self) -> float:
        """When the request entered the system."""
        return self.request.arrival_time

    @property
    def queueing_delay(self) -> float:
        """Time spent waiting for cluster capacity."""
        return self.dispatch_time - self.request.arrival_time

    @property
    def service_seconds(self) -> float:
        """Time from dispatch to completion (cold starts included)."""
        return self.completion_time - self.dispatch_time

    @property
    def latency_seconds(self) -> float:
        """End-to-end latency the client observes (queueing included)."""
        return self.completion_time - self.request.arrival_time


@dataclass
class ServingMetrics:
    """Tail-latency / SLO / cost summary of one serving run."""

    duration_seconds: float
    offered: int
    completed: int
    rejected: int
    failed: int
    makespan_seconds: float
    offered_rate_rps: float
    throughput_rps: float
    latency_mean_seconds: float
    latency_p50_seconds: float
    latency_p95_seconds: float
    latency_p99_seconds: float
    latency_max_seconds: float
    queueing_mean_seconds: float
    queueing_p95_seconds: float
    queueing_max_seconds: float
    slo_limit_seconds: Optional[float]
    slo_attainment: Optional[float]
    cold_start_request_rate: float
    cold_start_invocations: int
    mean_cost_per_request: float
    total_cost: float
    cpu_utilization: Optional[float]
    memory_utilization: Optional[float]
    peak_concurrency: int
    mean_concurrency: float
    # -- resilience metrics (fault-injection runs; zero/identity otherwise) ----
    goodput_rps: float = 0.0
    availability: float = 1.0
    retry_amplification: float = 1.0
    wasted_seconds: float = 0.0
    wasted_gb_seconds: float = 0.0
    faults_injected: int = 0
    node_failures: int = 0
    # -- graceful-degradation metrics (protected runs; empty/zero otherwise) ----
    rejected_by_cause: Dict[str, int] = field(default_factory=dict)
    hedges_launched: int = 0
    hedge_wins: int = 0
    breaker_opens: int = 0
    deadline_kills: int = 0


@dataclass(eq=False)
class OutcomeColumns:
    """The per-request columns the summary and the invariant checks read.

    Arrays in index order.  A resilience column that is ``None`` holds only
    the field's zero default, as in every fault-free run.
    """

    arrival: np.ndarray
    dispatch: np.ndarray
    completion: np.ndarray
    cost: np.ndarray
    cold_count: np.ndarray
    succeeded: np.ndarray
    attempts: Optional[np.ndarray] = None
    base_invocations: Optional[np.ndarray] = None
    wasted_seconds: Optional[np.ndarray] = None
    wasted_gb_seconds: Optional[np.ndarray] = None
    faults: Optional[np.ndarray] = None
    hedges: Optional[np.ndarray] = None
    hedge_wins: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.arrival.size)

    @property
    def latency(self) -> np.ndarray:
        """End-to-end latencies (the records' ``latency_seconds``)."""
        return self.completion - self.arrival


#: Rows an :class:`OutcomeTable` converts to Python values at a time while
#: it is iterated, so a pass over a long run holds a bounded slice.
_ROWS_PER_CHUNK = 4096


class OutcomeTable(SequenceABC):
    """A run's completed requests as columns, read as :class:`ServedRequest` records.

    The batched engine's outcomes: the served requests as an
    :class:`~repro.execution.events.ArrivalBatch`, one array per outcome
    field, in index order, and the trace templates, each of which carries
    its configuration, success and trace.  Reading an item (an index, a
    slice or an iteration) builds fresh records from the columns, so
    nothing is cached and an outcome's ``request`` is equal to, but not the
    same object as, the arrival it was served for.  The arrays are read,
    never written.
    """

    __slots__ = (
        "index",
        "requests",
        "dispatch",
        "completion",
        "cost",
        "cold_count",
        "cold_seconds",
        "template",
        "templates",
    )

    def __init__(
        self,
        index: np.ndarray,
        requests: ArrivalBatch,
        dispatch: np.ndarray,
        completion: np.ndarray,
        cost: np.ndarray,
        cold_count: np.ndarray,
        cold_seconds: np.ndarray,
        template: np.ndarray,
        templates: Sequence[TraceTemplate],
    ) -> None:
        self.index = index
        self.requests = requests
        self.dispatch = dispatch
        self.completion = completion
        self.cost = cost
        self.cold_count = cold_count
        self.cold_seconds = cold_seconds
        self.template = template
        self.templates = list(templates)

    def __reduce__(self):
        return (OutcomeTable, tuple(getattr(self, name) for name in self.__slots__))

    def __len__(self) -> int:
        return int(self.index.size)

    def __repr__(self) -> str:
        return f"OutcomeTable({len(self)} outcomes)"

    def __getitem__(
        self, key: Union[int, slice]
    ) -> Union[ServedRequest, List[ServedRequest]]:
        if isinstance(key, slice):
            return list(self._records(key))
        i = operator.index(key)
        size = len(self)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("outcome index out of range")
        return next(self._records(slice(i, i + 1)))

    def __iter__(self) -> Iterator[ServedRequest]:
        for start in range(0, len(self), _ROWS_PER_CHUNK):
            yield from self._records(slice(start, start + _ROWS_PER_CHUNK))

    def _records(self, rows: slice) -> Iterator[ServedRequest]:
        """Fresh records of the rows a slice selects, in its order."""
        templates = self.templates
        columns = zip(
            self.index[rows].tolist(),
            self.requests.to_requests(rows),
            self.dispatch[rows].tolist(),
            self.completion[rows].tolist(),
            self.cost[rows].tolist(),
            self.cold_count[rows].tolist(),
            self.cold_seconds[rows].tolist(),
            self.template[rows].tolist(),
        )
        for i, request, dispatch, completion, cost, colds, cold_seconds, k in columns:
            template = templates[k]
            yield ServedRequest(
                i,
                request,
                template.configuration,
                dispatch,
                completion,
                cost,
                colds,
                cold_seconds,
                template.succeeded,
                template.trace,
            )

    def columns(self) -> OutcomeColumns:
        """The summary's columns, read from the table without a record."""
        succeeded = np.asarray([t.succeeded for t in self.templates], dtype=bool)
        return OutcomeColumns(
            self.requests.times,
            self.dispatch,
            self.completion,
            self.cost,
            self.cold_count,
            succeeded[self.template],
        )


def outcome_columns(outcomes: Sequence[ServedRequest]) -> OutcomeColumns:
    """The columns of ``outcomes``: a table's own, or read off the records."""
    if isinstance(outcomes, OutcomeTable):
        return outcomes.columns()
    n = len(outcomes)

    def column(values, dtype) -> np.ndarray:
        return np.fromiter(values, dtype=dtype, count=n)

    return OutcomeColumns(
        column((o.request.arrival_time for o in outcomes), np.float64),
        column((o.dispatch_time for o in outcomes), np.float64),
        column((o.completion_time for o in outcomes), np.float64),
        column((o.cost for o in outcomes), np.float64),
        column((o.cold_start_count for o in outcomes), np.int64),
        column((bool(o.succeeded) for o in outcomes), bool),
        attempts=column((o.attempts for o in outcomes), np.int64),
        base_invocations=column((o.base_invocations for o in outcomes), np.int64),
        wasted_seconds=column((o.wasted_seconds for o in outcomes), np.float64),
        wasted_gb_seconds=column((o.wasted_gb_seconds for o in outcomes), np.float64),
        faults=column((sum(o.fault_counts.values()) for o in outcomes), np.int64),
        hedges=column((o.hedges for o in outcomes), np.int64),
        hedge_wins=column((o.hedge_wins for o in outcomes), np.int64),
    )


def _float_total(values: Optional[np.ndarray], count: int) -> Union[int, float]:
    """The builtin ``sum`` of ``count`` floats (``None``: all ``0.0``).

    Adds the values in index order, as a loop over the records does, so an
    empty column totals the int ``0``.
    """
    if values is None:
        return 0.0 if count else 0
    return sum(values.tolist())


def _int_total(values: Optional[np.ndarray]) -> int:
    return 0 if values is None else int(values.sum())


def summarize_outcomes(
    outcomes: Sequence[ServedRequest],
    rejected: Sequence[RequestArrival],
    duration_seconds: float,
    offered: int,
    slo: Optional[SLO],
    ledger: Optional[ClusterLedger] = None,
    node_failures: int = 0,
    rejection_causes: Optional[Dict[str, int]] = None,
) -> ServingMetrics:
    """Tail-latency / SLO / cost / resilience summary of one run's outcomes.

    ``outcomes`` is an :class:`OutcomeTable` or a list of records in index
    order; both are read as :func:`outcome_columns`.  ``ledger`` supplies
    the cluster gauges (utilization, peak and mean concurrency); without
    one they read ``None``, ``None``, 0 and 0.0, as for one tenant's slice
    of a fleet.
    """
    columns = outcome_columns(outcomes)
    completed = len(columns)
    latencies = columns.latency
    queueing = columns.dispatch - columns.arrival
    # Sort once per metric column: the nearest-rank lookup only reads
    # elements, and three percentile calls would re-sort each time.
    latencies_sorted = np.sort(latencies)
    queueing_sorted = np.sort(queueing)
    makespan = float(columns.completion.max()) if completed else 0.0
    slo_limit = slo.latency_limit if slo is not None else None
    attainment: Optional[float] = None
    if slo_limit is not None and completed:
        attainment = int(np.count_nonzero(latencies <= slo_limit)) / completed
    if ledger is not None:
        cpu_util, mem_util, mean_concurrency = ledger.utilization()
        peak_concurrency = ledger.peak_active
    else:
        cpu_util, mem_util, mean_concurrency = None, None, 0.0
        peak_concurrency = 0
    successes = int(np.count_nonzero(columns.succeeded))
    total_attempts = _int_total(columns.attempts)
    total_base = _int_total(columns.base_invocations)
    total_cost = _float_total(columns.cost, completed)
    if rejection_causes is None:
        # Callers predating the protection layer (e.g. the batched
        # engine) reject only on queue pressure.
        rejection_causes = {"queue-full": len(rejected)} if rejected else {}
    return ServingMetrics(
        duration_seconds=duration_seconds,
        offered=offered,
        completed=completed,
        rejected=len(rejected),
        failed=completed - successes,
        makespan_seconds=makespan,
        offered_rate_rps=offered / duration_seconds if duration_seconds > 0 else 0.0,
        throughput_rps=completed / makespan if makespan > 0 else 0.0,
        latency_mean_seconds=(
            _float_total(latencies, completed) / completed if completed else float("nan")
        ),
        latency_p50_seconds=nearest_rank(latencies_sorted, 50),
        latency_p95_seconds=nearest_rank(latencies_sorted, 95),
        latency_p99_seconds=nearest_rank(latencies_sorted, 99),
        latency_max_seconds=float(latencies_sorted[-1]) if completed else float("nan"),
        queueing_mean_seconds=(
            _float_total(queueing, completed) / completed if completed else float("nan")
        ),
        queueing_p95_seconds=nearest_rank(queueing_sorted, 95),
        queueing_max_seconds=float(queueing_sorted[-1]) if completed else float("nan"),
        slo_limit_seconds=slo_limit,
        slo_attainment=attainment,
        cold_start_request_rate=(
            int(np.count_nonzero(columns.cold_count > 0)) / completed if completed else 0.0
        ),
        cold_start_invocations=_int_total(columns.cold_count),
        mean_cost_per_request=total_cost / completed if completed else float("nan"),
        total_cost=total_cost,
        cpu_utilization=cpu_util,
        memory_utilization=mem_util,
        peak_concurrency=peak_concurrency,
        mean_concurrency=mean_concurrency,
        goodput_rps=successes / makespan if makespan > 0 else 0.0,
        availability=successes / offered if offered else 1.0,
        retry_amplification=(
            total_attempts / total_base if total_base else 1.0
        ),
        wasted_seconds=_float_total(columns.wasted_seconds, completed),
        wasted_gb_seconds=_float_total(columns.wasted_gb_seconds, completed),
        faults_injected=_int_total(columns.faults),
        node_failures=node_failures,
        rejected_by_cause=dict(rejection_causes),
        hedges_launched=_int_total(columns.hedges),
        hedge_wins=_int_total(columns.hedge_wins),
    )

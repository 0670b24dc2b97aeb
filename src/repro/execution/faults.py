"""Seed-deterministic fault injection for the serving layer.

Real serverless platforms are defined as much by their failure behaviour as
by their happy path: containers crash mid-invocation, transient OOM and
timeout kills destroy work, whole nodes fail and take every resident
container with them, and stragglers stretch the tail.  This module models
those perturbations as data — a :class:`FaultPlan` — plus a
:class:`FaultInjector` that turns the plan into a *schedule*:

* Per-invocation faults (crash-at-fraction-of-runtime, transient OOM,
  straggler slowdown, per-function timeout kills) are drawn from
  :class:`~repro.utils.rng.RngStream` children keyed by
  ``(request index, incarnation, function, attempt)``, so the schedule is a
  pure function of the plan's seed — independent of event interleaving,
  dispatch order, or how many other requests are in flight.  The draws
  most attempts need (first attempts, first retries and their backoffs,
  first hedges) are computed for a block of requests at a time in array
  passes (:func:`~repro.utils.rng.first_randoms`) that reproduce each keyed
  stream's draws bit for bit; every other key builds its stream.
* Whole-node failures are a Poisson process over the run horizon,
  precomputed up front the same way.
* Retries are governed by pluggable :class:`RetryPolicy` objects
  (:class:`NoRetry`, :class:`FixedRetry`, :class:`ExponentialBackoffRetry`
  with deterministic jitter), all bounded by ``max_attempts``.

An *empty* plan (:meth:`FaultPlan.is_empty`) injects nothing: every attempt
completes in its runtime plus any cold start, and the injector makes no
draw.  The serving layer runs every request through its injector, with the
empty plan when a run has no faults, so a run with an empty plan is
byte-identical to a run given no plan at all.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.ranges import (
    AT_LEAST_1,
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    UNIT,
    Range,
    check_fields,
)
from repro.utils.rng import RngStream, first_randoms

__all__ = [
    "FaultKind",
    "HEDGE_ATTEMPT_OFFSET",
    "InvocationOutcome",
    "RetryPolicy",
    "NoRetry",
    "FixedRetry",
    "ExponentialBackoffRetry",
    "FaultPlan",
    "FaultInjector",
    "poisson_node_event_schedule",
    "FAULT_PROFILE_NAMES",
    "get_fault_profile",
]


class FaultKind(enum.Enum):
    """The kinds of perturbation the injector can apply to an invocation."""

    CRASH = "crash"
    OOM = "oom"
    TIMEOUT = "timeout"
    STRAGGLER = "straggler"
    NODE_FAILURE = "node-failure"


#: Attempt-number offset identifying hedged backup attempts.  A hedge racing
#: primary attempt ``k`` asks the injector for attempt ``k + offset``, so its
#: fate comes from a fresh keyed stream — deterministic, and never colliding
#: with a real retry of the same function (retry chains stay far below 1000).
HEDGE_ATTEMPT_OFFSET = 1000


# -- retry policies ---------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Decides whether (and when) a killed invocation is retried.

    Attempts are numbered from 1; ``max_attempts`` bounds the *total* number
    of attempts, so a policy with ``max_attempts=3`` retries at most twice.
    """

    max_attempts: int = AT_LEAST_1.field(1)

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def draws(self) -> bool:
        """Whether :meth:`backoff_seconds` draws from the stream it is given."""
        return False

    def backoff_seconds(
        self, attempt: int, rng: Optional[RngStream] = None
    ) -> Optional[float]:
        """Delay before the retry that follows failed attempt ``attempt``.

        Returns ``None`` when the budget is exhausted (no further attempt).
        """
        if attempt >= self.max_attempts:
            return None
        return self._delay(attempt, rng)

    def _delay(self, attempt: int, rng: Optional[RngStream]) -> float:
        raise NotImplementedError

    def describe(self) -> str:
        """Human-readable one-liner."""
        return f"{type(self).__name__}(max_attempts={self.max_attempts})"


@dataclass(frozen=True)
class NoRetry(RetryPolicy):
    """Fail terminally on the first kill (``max_attempts`` must be 1)."""

    max_attempts: int = Range(1, 1, integer=True).field(1)

    def _delay(self, attempt: int, rng: Optional[RngStream]) -> float:
        raise AssertionError("NoRetry never grants a retry")  # pragma: no cover

    def describe(self) -> str:
        return "none"


@dataclass(frozen=True)
class FixedRetry(RetryPolicy):
    """Retry after a constant delay, up to ``max_attempts`` total attempts."""

    max_attempts: int = AT_LEAST_1.field(3)
    delay_seconds: float = NON_NEGATIVE.field(1.0)

    def _delay(self, attempt: int, rng: Optional[RngStream]) -> float:
        return self.delay_seconds

    def describe(self) -> str:
        return f"fixed({self.delay_seconds:g}s, max {self.max_attempts})"


@dataclass(frozen=True)
class ExponentialBackoffRetry(RetryPolicy):
    """Exponential backoff with deterministic jitter.

    The delay before the retry following attempt ``k`` is
    ``min(base · multiplier^(k-1), max_delay) · (1 + jitter · u)`` with
    ``u`` drawn uniformly from ``[-1, 1)`` on the supplied
    :class:`~repro.utils.rng.RngStream` (``u = 0`` when none is given), so
    jittered schedules stay bit-reproducible under a fixed seed.
    """

    max_attempts: int = AT_LEAST_1.field(4)
    base_delay_seconds: float = NON_NEGATIVE.field(0.5)
    multiplier: float = AT_LEAST_1.field(2.0)
    max_delay_seconds: float = NON_NEGATIVE.field(30.0)
    jitter: float = Range(0.0, 1.0, hi_open=True).field(0.2)

    @property
    def draws(self) -> bool:
        return self.jitter > 0

    def _delay(self, attempt: int, rng: Optional[RngStream]) -> float:
        delay = min(
            self.base_delay_seconds * self.multiplier ** (attempt - 1),
            self.max_delay_seconds,
        )
        if self.jitter > 0 and rng is not None:
            delay *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return delay

    def describe(self) -> str:
        return (
            f"exponential({self.base_delay_seconds:g}s×{self.multiplier:g}, "
            f"max {self.max_attempts})"
        )


# -- the plan ---------------------------------------------------------------------


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults one serving run suffers.

    All probabilities are per *invocation attempt*; at most one invocation
    fault is drawn per attempt (crash, then OOM, then straggler, by
    cumulative probability).  Timeouts apply on top: an attempt — slowed or
    not — that would hold its container longer than the function's timeout
    budget is killed at the budget instead.

    Attributes
    ----------
    crash_probability:
        Chance an attempt crashes partway through; the crash point is drawn
        uniformly from ``crash_fraction_range`` of the (possibly slowed)
        runtime, and all work up to it is lost.
    oom_probability:
        Chance of a transient OOM kill (same partial-work semantics; the
        container is destroyed either way, but reports count it separately).
    straggler_probability / straggler_slowdown:
        Chance an attempt runs ``slowdown`` times longer than modelled.
    timeout_seconds / timeout_overrides:
        Per-function wall-clock budget (cold start included); ``None``
        disables timeouts, and overrides take precedence per function name.
    node_failures_per_hour / node_recovery_seconds:
        Rate of whole-node failures across the cluster (a Poisson process
        over the run horizon; each event picks a node uniformly) and how
        long a failed node stays down.
    retry:
        Policy governing retries of killed attempts.
    seed:
        Root seed of the fault schedule; two runs of the same plan produce
        the same schedule.
    """

    crash_probability: float = UNIT.field(0.0)
    crash_fraction_range: Tuple[float, float] = (0.1, 0.9)
    oom_probability: float = UNIT.field(0.0)
    straggler_probability: float = UNIT.field(0.0)
    straggler_slowdown: float = AT_LEAST_1.field(4.0)
    timeout_seconds: Optional[float] = POSITIVE.field(None)
    timeout_overrides: Optional[Mapping[str, float]] = None
    node_failures_per_hour: float = NON_NEGATIVE.field(0.0)
    node_recovery_seconds: float = POSITIVE.field(120.0)
    retry: RetryPolicy = field(default_factory=NoRetry)
    seed: int = FINITE.field(2025)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.crash_probability + self.oom_probability + self.straggler_probability > 1.0:
            raise ValueError("fault probabilities cannot sum above 1")
        low, high = self.crash_fraction_range
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError("crash_fraction_range must satisfy 0 <= low <= high <= 1")
        for name, value in (self.timeout_overrides or {}).items():
            POSITIVE.check(value, f"timeout override for {name!r}")

    @classmethod
    def none(cls, seed: int = 2025) -> "FaultPlan":
        """The empty plan: injects nothing, perturbs nothing."""
        return cls(seed=seed)

    @property
    def is_empty(self) -> bool:
        """Whether this plan can never perturb a run."""
        return (
            self.crash_probability == 0.0
            and self.oom_probability == 0.0
            and self.straggler_probability == 0.0
            and self.timeout_seconds is None
            and not self.timeout_overrides
            and self.node_failures_per_hour == 0.0
        )

    def timeout_for(self, function_name: str) -> Optional[float]:
        """Effective timeout budget of one function (``None`` = unbounded)."""
        if self.timeout_overrides and function_name in self.timeout_overrides:
            return float(self.timeout_overrides[function_name])
        return self.timeout_seconds

    def with_seed(self, seed: int) -> "FaultPlan":
        """Copy of this plan rooted at a different schedule seed."""
        return dataclasses.replace(self, seed=int(seed))

    def describe(self) -> str:
        """Human-readable one-liner of the active fault sources."""
        if self.is_empty:
            return "no faults"
        parts: List[str] = []
        if self.crash_probability:
            parts.append(f"crash {self.crash_probability * 100:g}%")
        if self.oom_probability:
            parts.append(f"oom {self.oom_probability * 100:g}%")
        if self.straggler_probability:
            parts.append(
                f"straggler {self.straggler_probability * 100:g}% "
                f"×{self.straggler_slowdown:g}"
            )
        if self.timeout_seconds is not None or self.timeout_overrides:
            budget = (
                f"{self.timeout_seconds:g}s" if self.timeout_seconds is not None else "per-fn"
            )
            parts.append(f"timeout {budget}")
        if self.node_failures_per_hour:
            parts.append(
                f"node failures {self.node_failures_per_hour:g}/h "
                f"(recover {self.node_recovery_seconds:g}s)"
            )
        parts.append(f"retry {self.retry.describe()}")
        return ", ".join(parts)


# -- invocation outcomes ----------------------------------------------------------


class InvocationOutcome(NamedTuple):
    """What the injector decided for one invocation attempt.

    ``elapsed_seconds`` is how long the attempt holds its container from
    acquisition (cold start included) to completion or kill; a killed
    attempt's elapsed time is pure wasted work.  A named tuple, since every
    attempt of every serving run builds one.
    """

    fault: Optional[FaultKind]
    elapsed_seconds: float
    completed: bool

    @property
    def killed(self) -> bool:
        """Whether the attempt was killed before completing."""
        return not self.completed

    @property
    def breaker_signal(self) -> bool:
        """What a circuit breaker should count this attempt as.

        Kills of every kind (crash, OOM, timeout — including stage-budget
        deadline kills) are failures; completions, slowed or not, are
        successes.  Kept here so the protection layer and any future
        consumer agree on the classification.
        """
        return not self.completed


# -- the injector -----------------------------------------------------------------


class _RowDraws:
    """The leading draws of one keyed stream, read from a precomputed row.

    Stands in for the :class:`~repro.utils.rng.RngStream` child the row was
    computed from.  :meth:`uniform` evaluates ``low + (high - low) * u``, the
    expression NumPy's ``Generator.uniform`` evaluates, so each value equals
    the stream's own draw bit for bit; ``item`` keeps it a Python float.
    """

    __slots__ = ("_row", "_column")

    def __init__(self, row: np.ndarray, column: int) -> None:
        self._row = row
        self._column = column

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        u = self._row.item(self._column)
        self._column += 1
        return low + (high - low) * u


class _Timeouts(dict):
    """``plan.timeout_for`` per function name, computed once per name."""

    def __init__(self, plan: FaultPlan) -> None:
        super().__init__()
        self._plan = plan

    def __missing__(self, function_name: str) -> Optional[float]:
        timeout = self[function_name] = self._plan.timeout_for(function_name)
        return timeout


class FaultInjector:
    """Turns a :class:`FaultPlan` into a deterministic fault schedule.

    Every decision is drawn from an :class:`~repro.utils.rng.RngStream`
    child keyed by the invocation's identity, never from a shared sequential
    stream — so the schedule depends only on the plan's seed, not on the
    order in which the serving layer asks.

    Building a generator per attempt dominates faulted serving, so given the
    workflow's ``function_names`` the injector also precomputes, a block of
    requests at a time, the first incarnation's draws for the keys most
    attempts use: attempt 1, attempt 2 when the policy retries, attempt 1's
    hedge when the run hedges (``hedging``), and attempt 1's backoff when the
    policy jitters.  :meth:`draw_row` hands out one request's row; the
    planning methods read a key from it when it holds the key and build the
    key's stream otherwise, with the same result either way.
    """

    #: Requests per block of precomputed draws.  The array kernel's cost per
    #: seed falls from tens of microseconds at a handful of seeds to a
    #: fraction of one at thousands; a block holds thousands of keys while
    #: staying a few hundred KB.
    BLOCK_REQUESTS = 512

    def __init__(
        self,
        plan: FaultPlan,
        rng: Optional[RngStream] = None,
        function_names: Sequence[str] = (),
        hedging: bool = False,
    ) -> None:
        self.plan = plan
        self._rng = rng if rng is not None else RngStream(plan.seed, "faults")
        # With every per-attempt probability zero the draw cannot change an
        # outcome, so none is made.
        self._draws = bool(
            plan.crash_probability or plan.oom_probability or plan.straggler_probability
        )
        retry = plan.retry
        # The attempts precomputed per kind of draw.
        waves: Dict[str, List[int]] = {}
        if self._draws:
            waves["invocation"] = [1]
            if retry.max_attempts >= 2:
                waves["invocation"].append(2)
            if hedging:
                waves["invocation"].append(HEDGE_ATTEMPT_OFFSET + 1)
            if retry.max_attempts >= 2 and retry.draws:
                waves["backoff"] = [1]
        # A request's keys of one kind share the prefix (kind, index,
        # incarnation) and differ in their (function, attempt) suffix.
        self._suffixes = {
            kind: [(name, attempt) for name in function_names for attempt in attempts]
            for kind, attempts in waves.items()
        }
        # Each (kind, function, attempt) key owns two adjacent columns of a
        # request's row: its stream's first two draws.
        keys = [
            (kind,) + suffix for kind, suffixes in self._suffixes.items() for suffix in suffixes
        ]
        self._columns = {key: 2 * i for i, key in enumerate(keys)}
        self._block: Optional[np.ndarray] = None
        self._block_start = self._block_end = 0
        # Effective timeout per function name, resolved on first use.
        self._timeouts = _Timeouts(plan)

    def draw_row(self, request_index: int) -> Optional[np.ndarray]:
        """Precomputed draws of request ``request_index``'s first incarnation.

        :meth:`plan_invocation` and :meth:`backoff_seconds` read it for
        incarnation 0 only.  An index past the current block starts the
        next block; ``None`` means every key of the request builds its
        stream, as for a plan with nothing to precompute or an index below
        the current block (first dispatches come in index order, so that is
        rare).  A row is a view of its block, which therefore lives exactly
        as long as a row of it is held.
        """
        if not self._columns or request_index < self._block_start:
            return None
        if request_index >= self._block_end:
            indices = range(request_index, request_index + self.BLOCK_REQUESTS)
            self._block = np.hstack(
                [
                    first_randoms(
                        self._rng.child_seeds([(kind, index, 0) for index in indices], suffixes),
                        2,
                    ).reshape(len(indices), -1)
                    for kind, suffixes in self._suffixes.items()
                ]
            )
            self._block_start, self._block_end = indices.start, indices.stop
        return self._block[request_index - self._block_start]

    def _stream(
        self,
        row: Optional[np.ndarray],
        kind: str,
        request_index: int,
        incarnation: int,
        function_name: str,
        attempt: int,
    ) -> Union[RngStream, _RowDraws]:
        column = (
            self._columns.get((kind, function_name, attempt))
            if row is not None and incarnation == 0
            else None
        )
        if column is None:
            return self._rng.child(kind, request_index, incarnation, function_name, attempt)
        return _RowDraws(row, column)

    # -- per-invocation schedule ---------------------------------------------------
    def plan_invocation(
        self,
        request_index: int,
        function_name: str,
        attempt: int,
        runtime_seconds: float,
        cold_start_seconds: float = 0.0,
        incarnation: int = 0,
        row: Optional[np.ndarray] = None,
    ) -> InvocationOutcome:
        """Decide the fate of one invocation attempt.

        Parameters
        ----------
        request_index / function_name / attempt / incarnation:
            Identity of the attempt (``incarnation`` counts node-failure
            restarts of the whole request, so a re-placed request draws a
            fresh schedule instead of replaying its old one).
        runtime_seconds:
            The attempt's fault-free service runtime.
        cold_start_seconds:
            Cold-start latency the attempt pays before useful work starts.
        row:
            The request's :meth:`draw_row`, or ``None``.
        """
        fault: Optional[FaultKind] = None
        effective = float(runtime_seconds)
        kill_at: Optional[float] = None
        if self._draws:
            stream = self._stream(
                row, "invocation", request_index, incarnation, function_name, attempt
            )
            draw = stream.uniform()
            crash_p = self.plan.crash_probability
            oom_p = self.plan.oom_probability
            straggler_p = self.plan.straggler_probability
            low, high = self.plan.crash_fraction_range
            if draw < crash_p:
                fault = FaultKind.CRASH
                kill_at = cold_start_seconds + stream.uniform(low, high) * effective
            elif draw < crash_p + oom_p:
                fault = FaultKind.OOM
                kill_at = cold_start_seconds + stream.uniform(low, high) * effective
            elif draw < crash_p + oom_p + straggler_p:
                fault = FaultKind.STRAGGLER
                effective *= self.plan.straggler_slowdown
        completion = cold_start_seconds + effective
        end = completion if kill_at is None else kill_at
        timeout = self._timeouts[function_name]
        if timeout is not None and timeout < end:
            # The timeout budget kills first, whatever else was scheduled.
            return InvocationOutcome(FaultKind.TIMEOUT, timeout, False)
        if kill_at is not None:
            return InvocationOutcome(fault, kill_at, False)
        return InvocationOutcome(fault, completion, True)

    def backoff_seconds(
        self,
        request_index: int,
        function_name: str,
        attempt: int,
        incarnation: int = 0,
        row: Optional[np.ndarray] = None,
    ) -> Optional[float]:
        """Retry delay after failed attempt ``attempt`` (None = give up).

        ``row`` is as for :meth:`plan_invocation`.
        """
        stream = self._stream(row, "backoff", request_index, incarnation, function_name, attempt)
        return self.plan.retry.backoff_seconds(attempt, stream)

    # -- node-failure schedule -----------------------------------------------------
    def node_failure_schedule(
        self, duration_seconds: float, node_names: Sequence[str]
    ) -> List[Tuple[float, str]]:
        """Precompute ``(time, node)`` failure events over the run horizon.

        Failures arrive as a Poisson process at ``node_failures_per_hour``
        across the whole cluster; each event strikes a uniformly chosen
        node.  The schedule is sorted by time and fully determined by the
        plan's seed.
        """
        if (
            self.plan.node_failures_per_hour <= 0
            or duration_seconds <= 0
            or not node_names
        ):
            return []
        stream = self._rng.child("node-failures")
        return poisson_node_event_schedule(
            stream, duration_seconds, self.plan.node_failures_per_hour, node_names
        )


def poisson_node_event_schedule(
    stream: RngStream,
    duration_seconds: float,
    events_per_hour: float,
    node_names: Sequence[str],
) -> List[Tuple[float, str]]:
    """Draw a time-sorted ``(time, node)`` Poisson event schedule.

    Events arrive at ``events_per_hour`` across the whole node set; each one
    strikes a uniformly chosen node.  Fully determined by ``stream``.  Shared
    by node-failure plans and spot-eviction schedules so both compose on the
    same downtime machinery.
    """
    if events_per_hour <= 0 or duration_seconds <= 0 or not node_names:
        return []
    mean_gap = 3600.0 / events_per_hour
    events: List[Tuple[float, str]] = []
    t = stream.exponential(mean_gap)
    while t < duration_seconds:
        events.append((t, str(stream.choice(list(node_names)))))
        t += stream.exponential(mean_gap)
    return events


# -- named profiles ---------------------------------------------------------------


def _profiles(seed: int) -> Dict[str, FaultPlan]:
    return {
        "none": FaultPlan.none(seed=seed),
        "crashes": FaultPlan(
            crash_probability=0.15,
            retry=ExponentialBackoffRetry(max_attempts=4, base_delay_seconds=0.5),
            seed=seed,
        ),
        "oom": FaultPlan(
            oom_probability=0.12,
            retry=FixedRetry(max_attempts=3, delay_seconds=1.0),
            seed=seed,
        ),
        "stragglers": FaultPlan(
            straggler_probability=0.2,
            straggler_slowdown=5.0,
            retry=NoRetry(),
            seed=seed,
        ),
        "node-storm": FaultPlan(
            node_failures_per_hour=90.0,
            node_recovery_seconds=45.0,
            retry=ExponentialBackoffRetry(max_attempts=3, base_delay_seconds=0.5),
            seed=seed,
        ),
        "chaos": FaultPlan(
            crash_probability=0.1,
            oom_probability=0.05,
            straggler_probability=0.1,
            straggler_slowdown=3.0,
            node_failures_per_hour=30.0,
            node_recovery_seconds=60.0,
            retry=ExponentialBackoffRetry(max_attempts=4, base_delay_seconds=0.5),
            seed=seed,
        ),
    }


#: Profile names accepted by :func:`get_fault_profile` (and ``serve --faults``).
FAULT_PROFILE_NAMES: Tuple[str, ...] = tuple(sorted(_profiles(0))) + ("default",)


def get_fault_profile(name: str, seed: int = 2025) -> FaultPlan:
    """Look up a named fault profile, rooted at ``seed``.

    ``"default"`` is resolved by the caller (it means "the workload's own
    profile") and is rejected here.
    """
    key = name.strip().lower()
    profiles = _profiles(int(seed))
    if key not in profiles:
        known = ", ".join(sorted(profiles) + ["default"])
        raise KeyError(f"unknown fault profile {name!r}; expected one of {known}")
    return profiles[key]

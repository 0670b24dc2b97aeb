"""Unit tests for the graceful-degradation layer (repro.execution.protection)."""

import itertools
import random

import pytest

from repro.execution.faults import FaultKind, InvocationOutcome
from repro.execution.protection import (
    PROTECTION_PROFILE_NAMES,
    REJECTION_CAUSES,
    AdmissionControlConfig,
    CircuitBreakerConfig,
    DeadlineConfig,
    HedgingConfig,
    LoadSheddingConfig,
    ProtectionGuard,
    ProtectionPolicy,
    get_protection_profile,
    split_deadline,
)
from repro.execution.protection import _Breaker
from repro.utils.stats import percentile
from repro.workflow.dag import FunctionSpec, Workflow


def plan_of(names, edges=()):
    """The plan of a workflow over ``names`` with the given edges."""
    return Workflow("guarded", [FunctionSpec(name) for name in names], edges).plan


class TestConfigValidation:
    def test_admission_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            AdmissionControlConfig(max_inflight_requests=0)
        with pytest.raises(ValueError):
            AdmissionControlConfig(max_estimated_wait_seconds=-1.0)
        with pytest.raises(ValueError):
            AdmissionControlConfig(deadline_headroom=0.0)

    def test_breaker_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            CircuitBreakerConfig(window_seconds=0.0)
        with pytest.raises(ValueError):
            CircuitBreakerConfig(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreakerConfig(failure_threshold=1.5)
        with pytest.raises(ValueError):
            CircuitBreakerConfig(min_attempts=0)
        with pytest.raises(ValueError):
            CircuitBreakerConfig(half_open_probes=0)

    def test_shedding_rejects_bad_watermarks(self):
        with pytest.raises(ValueError):
            LoadSheddingConfig(queue_high=0)
        with pytest.raises(ValueError):
            LoadSheddingConfig(queue_high=4, queue_low=4)
        with pytest.raises(ValueError):
            LoadSheddingConfig(sustain_seconds=-1.0)

    def test_hedging_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            HedgingConfig(straggler_percentile=0.0)
        with pytest.raises(ValueError):
            HedgingConfig(straggler_percentile=100.0)
        with pytest.raises(ValueError):
            HedgingConfig(min_observations=0)
        with pytest.raises(ValueError):
            HedgingConfig(min_observations=10, history=5)

    def test_deadline_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            DeadlineConfig(total_budget_seconds=0.0)
        with pytest.raises(ValueError):
            DeadlineConfig(slo_fraction=0.0)
        with pytest.raises(ValueError):
            DeadlineConfig(stage_slack=0.0)


class TestPolicy:
    def test_empty_policy(self):
        policy = ProtectionPolicy.none(seed=7)
        assert policy.is_empty
        assert policy.seed == 7
        assert policy.describe() == "no protection"

    def test_any_mechanism_makes_it_non_empty(self):
        assert not ProtectionPolicy(admission=AdmissionControlConfig()).is_empty
        assert not ProtectionPolicy(breaker=CircuitBreakerConfig()).is_empty
        assert not ProtectionPolicy(shedding=LoadSheddingConfig()).is_empty
        assert not ProtectionPolicy(hedging=HedgingConfig()).is_empty
        assert not ProtectionPolicy(deadline=DeadlineConfig()).is_empty

    def test_with_seed(self):
        policy = ProtectionPolicy(hedging=HedgingConfig()).with_seed(99)
        assert policy.seed == 99
        assert policy.hedging is not None

    def test_with_priorities_adopts_only_when_unset(self):
        policy = ProtectionPolicy(shedding=LoadSheddingConfig())
        adopted = policy.with_priorities({"gold": 2, "bronze": 0})
        assert adopted.shedding.priorities == {"gold": 2, "bronze": 0}
        pinned = ProtectionPolicy(
            shedding=LoadSheddingConfig(priorities={"gold": 1})
        ).with_priorities({"gold": 9})
        assert pinned.shedding.priorities == {"gold": 1}
        # No shedding configured: nothing to adopt into.
        assert ProtectionPolicy().with_priorities({"gold": 1}).is_empty

    def test_describe_names_active_mechanisms(self):
        text = get_protection_profile("full").describe()
        for fragment in ("admission", "breakers", "shedding", "hedging"):
            assert fragment in text


class TestProfiles:
    def test_profile_names_are_sorted_and_complete(self):
        assert PROTECTION_PROFILE_NAMES == tuple(sorted(PROTECTION_PROFILE_NAMES))
        for expected in ("none", "admission", "breakers", "shedding", "hedging",
                         "deadlines", "full"):
            assert expected in PROTECTION_PROFILE_NAMES

    def test_none_profile_is_empty(self):
        assert get_protection_profile("none").is_empty

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError, match="unknown protection profile"):
            get_protection_profile("fortress")

    def test_profiles_root_at_seed(self):
        assert get_protection_profile("full", seed=31).seed == 31

    def test_rejection_causes_taxonomy(self):
        assert REJECTION_CAUSES == (
            "queue-full", "admission", "shed", "breaker", "deadline"
        )


class TestSplitDeadline:
    DIAMOND = plan_of("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])

    def test_critical_path_budgets_sum_to_total(self):
        runtimes = {"a": 10.0, "b": 30.0, "c": 20.0, "d": 40.0}
        budgets = split_deadline(160.0, runtimes, self.DIAMOND)
        # Critical path a -> b -> d = 80s, scale = 2: its budgets sum to 160.
        assert budgets["a"] + budgets["b"] + budgets["d"] == pytest.approx(160.0)
        # The off-critical branch gets proportionally less.
        assert budgets["c"] == pytest.approx(40.0)

    def test_cold_latency_and_slack_are_added(self):
        runtimes = {"a": 10.0}
        budgets = split_deadline(
            20.0, runtimes, plan_of("a"), cold_latency=(3.0,), stage_slack=1.5
        )
        assert budgets["a"] == pytest.approx((3.0 + 20.0) * 1.5)

    def test_skipped_stages_get_no_budget(self):
        budgets = split_deadline(100.0, {"a": 10.0, "d": 10.0}, self.DIAMOND)
        assert set(budgets) == {"a", "d"}

    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            split_deadline(0.0, {"a": 1.0}, plan_of("a"))


class TestBreaker:
    CONFIG = CircuitBreakerConfig(
        window_seconds=30.0,
        failure_threshold=0.5,
        min_attempts=4,
        open_seconds=10.0,
        half_open_probes=2,
    )

    def test_opens_at_threshold_and_fails_fast(self):
        breaker = _Breaker(self.CONFIG)
        for t, killed in [(1.0, True), (2.0, True), (3.0, False), (4.0, True)]:
            breaker.record(t, killed)
        assert not breaker.allow(5.0)
        assert breaker.state == _Breaker.OPEN
        assert breaker.opens == 1

    def test_stays_closed_below_min_attempts(self):
        breaker = _Breaker(self.CONFIG)
        for t in (1.0, 2.0, 3.0):
            breaker.record(t, True)
        assert breaker.allow(4.0)
        assert breaker.state == _Breaker.CLOSED

    def test_window_eviction_forgives_old_failures(self):
        breaker = _Breaker(self.CONFIG)
        for t in (1.0, 2.0):
            breaker.record(t, True)
        # Far beyond the 30s window: the old kills no longer count.
        for t in (50.0, 51.0, 52.0, 53.0):
            breaker.record(t, False)
        assert breaker.allow(54.0)
        assert breaker.state == _Breaker.CLOSED

    def test_half_open_probe_budget_then_close(self):
        breaker = _Breaker(self.CONFIG)
        for t in (1.0, 2.0, 3.0, 4.0):
            breaker.record(t, True)
        breaker.allow(5.0)
        assert breaker.state == _Breaker.OPEN
        # After open_seconds the breaker admits exactly two probes.
        assert breaker.allow(16.0)
        assert breaker.state == _Breaker.HALF_OPEN
        assert breaker.allow(17.0)
        assert not breaker.allow(18.0)  # probe budget exhausted
        breaker.record(19.0, False)
        breaker.record(20.0, False)
        assert breaker.allow(21.0)
        assert breaker.state == _Breaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = _Breaker(self.CONFIG)
        for t in (1.0, 2.0, 3.0, 4.0):
            breaker.record(t, True)
        breaker.allow(5.0)
        assert breaker.allow(16.0)
        breaker.record(17.0, True)
        assert not breaker.allow(18.0)
        assert breaker.state == _Breaker.OPEN
        assert breaker.opens == 2

    def test_records_while_open_are_ignored(self):
        breaker = _Breaker(self.CONFIG)
        for t in (1.0, 2.0, 3.0, 4.0):
            breaker.record(t, True)
        breaker.allow(5.0)
        # In-flight attempts finishing after the open carry no information.
        breaker.record(6.0, True)
        breaker.record(7.0, False)
        assert breaker.allow(16.0)
        assert breaker.state == _Breaker.HALF_OPEN

    def test_same_time_batch_is_order_invariant(self):
        outcomes = [True, True, False, False, True]
        states = set()
        for perm in itertools.permutations(outcomes):
            breaker = _Breaker(self.CONFIG)
            for killed in perm:
                breaker.record(10.0, killed)
            breaker.allow(11.0)
            states.add((breaker.state, breaker.opens))
        assert len(states) == 1

    def test_running_failure_count_matches_the_window(self):
        # The count is kept incrementally through appends, evictions and
        # the clears at every open and close; it must equal a recount.
        rng = random.Random(7)
        breaker = _Breaker(self.CONFIG)
        now = 0.0
        states = set()
        for _ in range(2000):
            now += rng.choice([0.0, 0.5, 2.0, 9.0])
            breaker.allow(now)
            breaker.record(now, rng.random() < 0.45)
            breaker.allow(now + 1e-9)
            assert breaker.failures == sum(1 for _, killed in breaker.window if killed)
            states.add(breaker.state)
        assert states == {_Breaker.CLOSED, _Breaker.OPEN, _Breaker.HALF_OPEN}
        assert breaker.opens > 10

    def test_transitions_are_logged(self):
        breaker = _Breaker(self.CONFIG)
        for t in (1.0, 2.0, 3.0, 4.0):
            breaker.record(t, True)
        breaker.allow(5.0)
        breaker.allow(16.0)
        assert [state for _, state in breaker.transitions] == [
            _Breaker.OPEN,
            _Breaker.HALF_OPEN,
        ]


def make_guard(policy, names=("f", "g"), slo=100.0):
    """A guard over the chain ``names[0] -> names[1] -> ...``."""
    return ProtectionGuard(
        policy, plan_of(names, zip(names, names[1:])), slo_limit_seconds=slo
    )


class TestGuardAdmission:
    def test_empty_mechanisms_admit_everything(self):
        guard = make_guard(ProtectionPolicy(hedging=HedgingConfig()))
        assert guard.admit(0.0, "any", queue_len=99, active=99) is None

    def test_inflight_token_budget(self):
        policy = ProtectionPolicy(
            admission=AdmissionControlConfig(max_inflight_requests=3)
        )
        guard = make_guard(policy)
        assert guard.admit(0.0, "c", queue_len=1, active=1) is None
        assert guard.admit(0.0, "c", queue_len=2, active=1) == "admission"

    def test_estimated_wait_rejection_uses_completion_mean(self):
        policy = ProtectionPolicy(
            admission=AdmissionControlConfig(max_estimated_wait_seconds=10.0)
        )
        guard = make_guard(policy)
        guard.observe_completion(20.0)
        # est wait = 2 * 20 / 1 = 40s > 10s.
        assert guard.admit(1.0, "c", queue_len=2, active=1) == "admission"
        assert guard.admit(1.0, "c", queue_len=0, active=1) is None

    def test_estimated_wait_floor_from_oldest_inflight(self):
        # No completion has landed, but a request has been running 50s:
        # the estimator must not stay at zero.
        policy = ProtectionPolicy(
            admission=AdmissionControlConfig(max_estimated_wait_seconds=10.0)
        )
        guard = make_guard(policy)
        guard.observe_dispatch(0.0)
        assert guard.admit(50.0, "c", queue_len=1, active=1) == "admission"
        guard2 = make_guard(policy)
        assert guard2.admit(50.0, "c", queue_len=1, active=1) is None

    def test_deadline_headroom_rejection(self):
        policy = ProtectionPolicy(
            admission=AdmissionControlConfig(deadline_headroom=1.0)
        )
        guard = make_guard(policy, slo=100.0)
        guard.observe_completion(60.0)
        # est wait 60 + mean 60 = 120 > 1.0 * 100 SLO.
        assert guard.admit(1.0, "c", queue_len=1, active=1) == "deadline"
        # Under the headroom the arrival passes.
        assert guard.admit(1.0, "c", queue_len=0, active=1) is None

    def test_open_breaker_rejects_arrivals(self):
        policy = ProtectionPolicy(
            breaker=CircuitBreakerConfig(min_attempts=2, failure_threshold=0.5)
        )
        guard = make_guard(policy)
        guard.observe_attempt("f", 1.0, killed=True, elapsed=None)
        guard.observe_attempt("f", 2.0, killed=True, elapsed=None)
        assert guard.admit(3.0, "c", queue_len=0, active=0) == "breaker"
        assert guard.breaker_opens == 1


class TestGuardShedding:
    POLICY = ProtectionPolicy(
        shedding=LoadSheddingConfig(
            queue_high=4,
            queue_low=1,
            sustain_seconds=5.0,
            restore_seconds=10.0,
            priorities={"gold": 1, "free": 0},
        )
    )

    def test_shed_raises_after_sustained_pressure_and_spares_high_priority(self):
        guard = make_guard(self.POLICY)
        assert guard.admit(0.0, "free", queue_len=5, active=1) is None
        # Pressure sustained past the dwell: level rises to 1.
        assert guard.admit(6.0, "free", queue_len=5, active=1) == "shed"
        assert guard.shed_level == 1
        assert guard.admit(6.5, "gold", queue_len=5, active=1) is None

    def test_momentary_spike_sheds_nothing(self):
        guard = make_guard(self.POLICY)
        guard.admit(0.0, "free", queue_len=5, active=1)
        guard.admit(2.0, "free", queue_len=2, active=1)  # back in the dead band
        assert guard.admit(7.0, "free", queue_len=5, active=1) is None
        assert guard.shed_level == 0

    def test_hysteretic_restore(self):
        guard = make_guard(self.POLICY)
        guard.admit(0.0, "free", queue_len=5, active=1)
        guard.admit(6.0, "free", queue_len=5, active=1)
        assert guard.shed_level == 1
        guard.admit(7.0, "free", queue_len=0, active=0)
        # Lull shorter than restore_seconds keeps shedding.
        assert guard.admit(12.0, "free", queue_len=0, active=0) == "shed"
        # Sustained lull restores.
        assert guard.admit(18.0, "free", queue_len=0, active=0) is None
        assert guard.shed_level == 0
        kinds = [kind for _, kind, _ in guard.drain_events()]
        assert kinds == ["shed-raise", "shed-restore"]

    def test_level_tops_out_at_max_priority_plus_one(self):
        guard = make_guard(self.POLICY)
        for step in range(6):
            guard.admit(6.0 * step, "gold", queue_len=5, active=1)
        assert guard.shed_level == 2  # max priority 1 -> full brownout at 2
        assert guard.admit(40.0, "gold", queue_len=5, active=1) == "shed"


class TestGuardDeadlines:
    def test_stage_budgets_from_slo_fraction(self):
        policy = ProtectionPolicy(deadline=DeadlineConfig(slo_fraction=0.5))
        guard = make_guard(policy, names=("f", "g"), slo=100.0)
        budgets = guard.stage_budgets({"f": 10.0, "g": 40.0})
        # Critical path 50s scaled to the 50s budget: shares are 10/40.
        assert budgets["f"] == pytest.approx(10.0)
        assert budgets["g"] == pytest.approx(40.0)

    def test_no_budgets_without_slo_or_total(self):
        policy = ProtectionPolicy(deadline=DeadlineConfig())
        guard = make_guard(policy, slo=None)
        assert guard.stage_budgets({"f": 10.0}) is None

    def test_cap_stage_kills_like_a_timeout(self):
        policy = ProtectionPolicy(deadline=DeadlineConfig(total_budget_seconds=50.0))
        guard = make_guard(policy, names=("f",))
        budgets = guard.stage_budgets({"f": 10.0})
        slow = InvocationOutcome(
            fault=None, elapsed_seconds=budgets["f"] + 1.0, completed=True
        )
        capped = guard.cap_stage("f", slow, budgets)
        assert capped.fault is FaultKind.TIMEOUT
        assert not capped.completed
        assert capped.elapsed_seconds == pytest.approx(budgets["f"])
        assert guard.deadline_kills == 1
        fast = InvocationOutcome(fault=None, elapsed_seconds=1.0, completed=True)
        assert guard.cap_stage("f", fast, budgets) is fast


class TestGuardHedging:
    POLICY = ProtectionPolicy(
        hedging=HedgingConfig(straggler_percentile=75.0, min_observations=4)
    )

    def test_no_hedge_below_min_observations(self):
        guard = make_guard(self.POLICY)
        for elapsed in (1.0, 2.0, 3.0):
            guard.observe_attempt("f", elapsed, killed=False, elapsed=elapsed)
        assert guard.hedge_delay("f", 100.0) is None

    def test_hedge_fires_past_percentile_with_threshold_delay(self):
        guard = make_guard(self.POLICY)
        for elapsed in (1.0, 2.0, 3.0, 4.0):
            guard.observe_attempt("f", float(elapsed), killed=False, elapsed=elapsed)
        # p75 nearest-rank over [1, 2, 3, 4] = 3.
        assert guard.hedge_delay("f", 10.0) == pytest.approx(3.0)
        assert guard.hedge_delay("f", 2.5) is None

    def test_threshold_is_the_percentile_of_the_last_history_values(self):
        # The sorted twin of the rolling history drops the evicted oldest
        # value, duplicates included, before inserting the new one.
        history = 8
        policy = ProtectionPolicy(
            hedging=HedgingConfig(
                straggler_percentile=75.0, min_observations=4, history=history
            )
        )
        guard = make_guard(policy)
        rng = random.Random(11)
        seen = []
        for step in range(300):
            elapsed = float(rng.randint(1, 6))
            seen.append(elapsed)
            guard.observe_attempt("f", float(step), killed=False, elapsed=elapsed)
            expected = percentile(seen[-history:], 75.0) if len(seen) >= 4 else None
            assert guard.hedge_delay("f", 100.0) == expected

    def test_killed_attempts_do_not_enter_history(self):
        guard = make_guard(self.POLICY)
        for elapsed in (1.0, 2.0, 3.0, 4.0):
            guard.observe_attempt("f", float(elapsed), killed=True, elapsed=elapsed)
        assert guard.hedge_delay("f", 10.0) is None

    def test_max_hedges_property(self):
        assert make_guard(self.POLICY).max_hedges_per_request == 1
        assert make_guard(ProtectionPolicy()).max_hedges_per_request == 0


class TestForTenants:
    def test_builds_a_shedding_only_policy(self):
        policy = ProtectionPolicy.for_tenants({"gold": 2, "bronze": 0})
        assert policy.admission is None
        assert policy.breaker is None
        assert policy.hedging is None
        assert policy.shedding is not None
        assert policy.shedding.priorities == {"gold": 2, "bronze": 0}
        assert not policy.is_empty

    def test_sheds_low_priority_tenant_first(self):
        policy = ProtectionPolicy.for_tenants(
            {"gold": 2, "bronze": 0}, queue_high=4, queue_low=1
        )
        guard = make_guard(policy)
        # Sustained deep queue: the shed level climbs past bronze's priority.
        for step in range(12):
            guard.admit(float(step), "gold", queue_len=10, active=0)
        assert guard.shed_level > 0
        assert guard.admit(12.0, "bronze", queue_len=10, active=0) == "shed"
        assert guard.admit(12.0, "gold", queue_len=10, active=0) is None

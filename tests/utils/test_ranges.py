"""Declared field ranges: one check, NaN-safe, on every public option class."""

import argparse
import dataclasses
import math
import re
from typing import Optional

import pytest

from repro.control.controller import ControllerOptions
from repro.core.config_space import ConfigurationSpace
from repro.core.configurator import PriorityConfiguratorOptions
from repro.core.input_aware import InputClassRule
from repro.core.scheduler import SchedulerOptions
from repro.execution.cluster import Node
from repro.execution.faults import ExponentialBackoffRetry, FaultPlan, FixedRetry, NoRetry
from repro.execution.fleet import FleetOptions
from repro.execution.protection import (
    AdmissionControlConfig,
    CircuitBreakerConfig,
    DeadlineConfig,
    HedgingConfig,
    LoadSheddingConfig,
    ProtectionPolicy,
)
from repro.execution.serving import AutoscalerOptions, ServingOptions
from repro.experiments.harness import ExperimentSettings
from repro.experiments.serving_experiment import ServingSettings
from repro.optimizers.bayesian import BayesianOptimizerOptions
from repro.optimizers.maff import MAFFOptions
from repro.optimizers.random_search import RandomSearchOptions
from repro.perfmodel.analytic import FunctionProfile
from repro.perfmodel.calibration import CalibrationSample
from repro.pricing.model import PricingModel
from repro.utils.ranges import (
    AT_LEAST_0,
    AT_LEAST_1,
    FINITE,
    NON_NEGATIVE,
    POSITIVE,
    UNIT,
    Range,
    check_fields,
)
from repro.workflow.resources import ResourceConfig
from repro.workflow.slo import SLO
from repro.workloads.arrivals import TrafficPhase, TrafficProfile
from repro.workloads.inputs import InputClass
from repro.workloads.zoo import ZooConfig

NAN, INF = float("nan"), float("inf")

#: Every public option class, with the arguments it needs besides its defaults.
OPTION_CLASSES = [
    (AutoscalerOptions, {}),
    (ServingOptions, {}),
    (AdmissionControlConfig, {}),
    (CircuitBreakerConfig, {}),
    (LoadSheddingConfig, {}),
    (HedgingConfig, {}),
    (DeadlineConfig, {}),
    (ProtectionPolicy, {}),
    (NoRetry, {}),
    (FixedRetry, {}),
    (ExponentialBackoffRetry, {}),
    (FaultPlan, {}),
    (FleetOptions, {}),
    (Node, {"name": "n", "vcpu_capacity": 4.0, "memory_capacity_mb": 4096.0}),
    (TrafficProfile, {}),
    (TrafficPhase, {"name": "p", "start_seconds": 0.0, "profile": TrafficProfile()}),
    (ZooConfig, {}),
    (InputClass, {"name": "c", "scale": 1.0, "max_scale": 2.0}),
    (InputClassRule, {"name": "c", "max_scale": 2.0, "representative_scale": 1.0}),
    (ControllerOptions, {}),
    (ServingSettings, {}),
    (ExperimentSettings, {}),
    (PriorityConfiguratorOptions, {}),
    (SchedulerOptions, {}),
    (ConfigurationSpace, {}),
    (BayesianOptimizerOptions, {}),
    (MAFFOptions, {}),
    (RandomSearchOptions, {}),
    (FunctionProfile, {"name": "f", "cpu_seconds": 1.0}),
    (CalibrationSample, {"config": ResourceConfig(1.0, 1024.0), "runtime_seconds": 1.0}),
    (PricingModel, {}),
    (SLO, {"latency_limit": 10.0}),
]

#: Numeric fields that hold running state or an alias, not configuration.
NOT_CONFIGURATION = {
    (Node, "vcpu_used"),
    (Node, "memory_used_mb"),
    # Deprecated alias of max_trials, which is checked after it is applied.
    (PriorityConfiguratorOptions, "max_trail"),
}

#: The only fields whose range closes at infinity: infinity is their
#: documented or established "unbounded" value.
CLOSED_INFINITY = {
    (FleetOptions, "keep_alive_seconds"),
    (FleetOptions, "max_warm_per_function"),
    (InputClass, "max_scale"),
    (InputClassRule, "max_scale"),
    # The AARC ablation benchmark passes inf to configure the critical path only.
    (SchedulerOptions, "minimum_subpath_budget_seconds"),
}

_NUMERIC = re.compile(r"(Optional\[)?(int|float)\]?")


def _numeric_fields():
    for cls, base in OPTION_CLASSES:
        for f in dataclasses.fields(cls):
            if _NUMERIC.fullmatch(str(f.type)) and (cls, f.name) not in NOT_CONFIGURATION:
                yield pytest.param(cls, base, f, id=f"{cls.__name__}.{f.name}")


def _declared(f) -> Optional[Range]:
    return f.metadata.get("range")


def _outside(declared: Range):
    """NaN, the infinities the range excludes, and the values just past each finite bound."""
    values = [NAN]
    for bound, is_open, outward in (
        (declared.lo, declared.lo_open, -INF),
        (declared.hi, declared.hi_open, INF),
    ):
        if math.isinf(bound):
            if is_open:
                values.append(bound)
        else:
            values.append(bound if is_open else math.nextafter(bound, outward))
            values.append(outward)
    return values


@pytest.mark.parametrize("cls, base", OPTION_CLASSES, ids=lambda v: getattr(v, "__name__", ""))
def test_defaults_are_in_range(cls, base):
    cls(**base)


@pytest.mark.parametrize("cls, base, field", _numeric_fields())
def test_every_numeric_field_rejects_values_outside_its_declared_range(cls, base, field):
    declared = _declared(field)
    assert isinstance(declared, Range), f"{cls.__name__}.{field.name} declares no range"
    for value in _outside(declared):
        with pytest.raises(ValueError, match=rf"^{field.name} must be "):
            cls(**{**base, field.name: value})


def test_only_the_documented_fields_close_at_infinity():
    closed = {
        (cls, f.name)
        for cls, _ in OPTION_CLASSES
        for f in dataclasses.fields(cls)
        if _declared(f) is not None and INF in _declared(f)
    }
    assert closed == CLOSED_INFINITY
    for cls, name in CLOSED_INFINITY:
        base = dict(OPTION_CLASSES)[cls]
        assert getattr(cls(**{**base, name: INF}), name) == INF


def test_max_trials_is_checked_after_the_deprecated_alias():
    with pytest.warns(DeprecationWarning):
        with pytest.raises(ValueError, match="^max_trials must be at least 1"):
            PriorityConfiguratorOptions(max_trail=NAN)


def test_negative_seeds_still_work_except_for_the_zoo():
    assert ServingSettings(seed=-1).seed == -1
    assert FaultPlan(seed=-7).seed == -7
    with pytest.raises(ValueError, match="^seed must be at least 0"):
        ZooConfig(seed=-1)


class TestRange:
    @pytest.mark.parametrize(
        "declared, text",
        [
            (POSITIVE, "positive and finite"),
            (NON_NEGATIVE, "non-negative and finite"),
            (AT_LEAST_0, "at least 0 and finite"),
            (AT_LEAST_1, "at least 1 and finite"),
            (UNIT, "in [0, 1]"),
            (FINITE, "finite"),
            (Range(0.0, 1.0, lo_open=True), "in (0, 1]"),
            (Range(0.0, 100.0, True, True), "in (0, 100)"),
            (Range(1.0, INF, lo_open=True, hi_open=True), "greater than 1 and finite"),
            (Range(0.0, INF), "non-negative"),
            (Range(1, INF, integer=True), "at least 1"),
        ],
        ids=str,
    )
    def test_wording(self, declared, text):
        assert str(declared) == text

    def test_nan_and_infinity_fail_the_membership_test(self):
        for declared in (POSITIVE, NON_NEGATIVE, FINITE, UNIT, AT_LEAST_1):
            assert NAN not in declared
            assert INF not in declared
            assert -INF not in declared
        assert INF in Range(0.0, INF)
        assert NAN not in Range(-INF, INF)

    def test_open_bounds_are_exact(self):
        assert 0.0 not in POSITIVE
        assert 5e-324 in POSITIVE
        assert 1.0 in Range(0.0, 1.0, lo_open=True)
        assert 1.0 not in Range(0.0, 1.0, hi_open=True)
        assert 0 in AT_LEAST_0 and -1 not in AT_LEAST_0

    def test_check_returns_the_value_or_names_the_field(self):
        assert POSITIVE.check(2, "rate_rps") == 2
        with pytest.raises(ValueError, match=r"^rate_rps must be positive and finite, got nan$"):
            POSITIVE.check(NAN, "rate_rps")

    def test_an_empty_range_is_refused(self):
        with pytest.raises(ValueError, match="empty range"):
            Range(1.0, 1.0, lo_open=True)

    def test_parse_is_an_argparse_type(self):
        assert POSITIVE.parse("2.5") == 2.5
        assert AT_LEAST_0.parse("0") == 0
        with pytest.raises(argparse.ArgumentTypeError, match="^must be at least 1 and finite$"):
            AT_LEAST_1.parse("0")
        with pytest.raises(argparse.ArgumentTypeError, match="^invalid int value: '2.5'$"):
            AT_LEAST_1.parse("2.5")
        with pytest.raises(argparse.ArgumentTypeError, match="^must be positive and finite$"):
            POSITIVE.parse("nan")

    def test_check_fields_lets_none_through_only_where_it_is_the_default(self):
        @dataclasses.dataclass
        class Example:
            required: float = POSITIVE.field(1.0)
            optional: Optional[float] = POSITIVE.field(None)

            def __post_init__(self):
                check_fields(self)

        Example(optional=None)
        with pytest.raises(ValueError, match="^optional must be"):
            Example(optional=-1.0)
        with pytest.raises(TypeError):
            Example(required=None)

"""Profile calibration from measured samples.

When pointing the library at a real platform, per-function profiles can be
fitted from a handful of (configuration, input scale, runtime) measurements.
The fit uses non-linear least squares over the analytic model's parameters
with sensible bounds, mirroring how the paper's authors would have profiled
their containers before running the search algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.perfmodel.analytic import AnalyticFunctionModel, FunctionProfile
from repro.utils.ranges import POSITIVE, check_fields
from repro.workflow.resources import ResourceConfig

__all__ = ["CalibrationSample", "fit_profile"]


@dataclass(frozen=True)
class CalibrationSample:
    """One runtime measurement used for calibration.

    Attributes
    ----------
    config:
        Resource allocation used for the measurement.
    runtime_seconds:
        Observed wall-clock runtime.
    input_scale:
        Relative input size of the measurement (1.0 = reference input).
    """

    config: ResourceConfig
    runtime_seconds: float = POSITIVE.field()
    input_scale: float = POSITIVE.field(1.0)

    def __post_init__(self) -> None:
        check_fields(self)


def _predict(params: np.ndarray, template: FunctionProfile, samples: Sequence[CalibrationSample]) -> np.ndarray:
    cpu_seconds, io_seconds, parallel_fraction = params
    profile = template.with_updates(
        cpu_seconds=float(max(cpu_seconds, 1e-6)),
        io_seconds=float(max(io_seconds, 0.0)),
        parallel_fraction=float(min(max(parallel_fraction, 0.0), 1.0)),
    )
    model = AnalyticFunctionModel(profile)
    predictions = []
    for sample in samples:
        predictions.append(model.runtime(sample.config, input_scale=sample.input_scale))
    return np.asarray(predictions)


def fit_profile(
    name: str,
    samples: Sequence[CalibrationSample],
    template: Optional[FunctionProfile] = None,
) -> FunctionProfile:
    """Fit ``cpu_seconds``, ``io_seconds`` and ``parallel_fraction`` to samples.

    Structural parameters that least-squares cannot identify from runtimes
    alone (working set, input exponents, cold start) are taken from
    ``template`` — or conservative defaults when no template is given.

    Parameters
    ----------
    name:
        Name of the fitted profile.
    samples:
        At least three measurements at distinct CPU allocations.
    template:
        Profile supplying the non-fitted parameters.

    Returns
    -------
    FunctionProfile
        A profile whose analytic predictions best match the samples in the
        least-squares sense.
    """
    if len(samples) < 3:
        raise ValueError("calibration needs at least three samples")
    distinct_cpus = {round(s.config.vcpu, 6) for s in samples}
    if len(distinct_cpus) < 2:
        raise ValueError("calibration samples must cover at least two CPU allocations")
    from scipy import optimize

    if template is None:
        min_memory = min(s.config.memory_mb for s in samples)
        template = FunctionProfile(
            name=name,
            cpu_seconds=1.0,
            io_seconds=0.0,
            working_set_mb=max(min_memory * 0.5, 1.0),
            comfortable_memory_mb=max(min_memory * 0.75, 2.0),
        )
    template = template.with_updates(name=name)

    observed = np.asarray([s.runtime_seconds for s in samples])

    def residuals(params: np.ndarray) -> np.ndarray:
        return _predict(params, template, samples) - observed

    max_runtime = float(np.max(observed))
    initial = np.array([max_runtime * 0.7, max_runtime * 0.1, 0.7])
    lower = np.array([1e-6, 0.0, 0.0])
    upper = np.array([max_runtime * 20.0, max_runtime, 1.0])
    result = optimize.least_squares(residuals, initial, bounds=(lower, upper))

    cpu_seconds, io_seconds, parallel_fraction = result.x
    return template.with_updates(
        cpu_seconds=float(max(cpu_seconds, 1e-6)),
        io_seconds=float(max(io_seconds, 0.0)),
        parallel_fraction=float(min(max(parallel_fraction, 0.0), 1.0)),
    )


def calibration_error(profile: FunctionProfile, samples: Sequence[CalibrationSample]) -> float:
    """Root-mean-square relative error of a profile against samples."""
    if not samples:
        raise ValueError("samples must be non-empty")
    model = AnalyticFunctionModel(profile)
    errors: List[float] = []
    for sample in samples:
        predicted = model.runtime(sample.config, input_scale=sample.input_scale)
        errors.append((predicted - sample.runtime_seconds) / sample.runtime_seconds)
    return float(np.sqrt(np.mean(np.square(errors))))

"""Input-size classes and request-sequence generation.

The Video Analysis workflow is input-sensitive: light, middle and heavy
videos have different optimal configurations (paper §IV-D).  This module
defines those classes and generates the request sequences replayed by the
input-aware experiment (Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.input_aware import InputClassRule
from repro.execution.events import RequestArrival
from repro.utils.ranges import AT_LEAST_1, POSITIVE, Range, check_fields
from repro.utils.rng import RngStream

__all__ = ["InputClass", "VIDEO_INPUT_CLASSES", "request_sequence", "input_class_rules"]


@dataclass(frozen=True)
class InputClass:
    """One named input-size class.

    Attributes
    ----------
    name:
        Class label (``"light"``, ``"middle"``, ``"heavy"``).
    scale:
        Representative relative input size of the class (1.0 = the paper's
        standard input).
    max_scale:
        Upper bound of the class used by the input-aware engine's classifier.
    description:
        Free-text description for reports.
    """

    name: str
    scale: float = POSITIVE.field()
    max_scale: float = Range(0.0, math.inf, lo_open=True).field()
    description: str = ""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.scale > self.max_scale:
            raise ValueError("scale cannot exceed max_scale")


#: The light / middle / heavy classes of the Video Analysis study.
VIDEO_INPUT_CLASSES: List[InputClass] = [
    InputClass(name="light", scale=0.5, max_scale=0.6, description="short, low-bitrate video"),
    InputClass(name="middle", scale=1.0, max_scale=1.1, description="the standard input video"),
    InputClass(name="heavy", scale=1.5, max_scale=float("inf"), description="long, high-bitrate video"),
]


def input_class_rules(classes: Sequence[InputClass] = VIDEO_INPUT_CLASSES) -> List[InputClassRule]:
    """Convert workload input classes into engine classification rules."""
    return [
        InputClassRule(name=c.name, max_scale=c.max_scale, representative_scale=c.scale)
        for c in classes
    ]


def request_sequence(
    n_requests: int,
    classes: Sequence[InputClass] = VIDEO_INPUT_CLASSES,
    inter_arrival_seconds: float = 1.0,
    pattern: str = "blocked",
    rng: Optional[RngStream] = None,
) -> List[RequestArrival]:
    """Generate a request stream mixing the input classes.

    Parameters
    ----------
    n_requests:
        Total number of requests.
    classes:
        The input classes to draw from.
    inter_arrival_seconds:
        Fixed spacing between consecutive requests.
    pattern:
        ``"blocked"`` sends all light requests first, then middle, then heavy
        (the presentation used in the paper's Fig. 8a); ``"interleaved"``
        cycles class by class; ``"random"`` draws classes uniformly using
        ``rng``.
    rng:
        Required when ``pattern == "random"``.
    """
    AT_LEAST_1.check(n_requests, "n_requests")
    if not classes:
        raise ValueError("classes must be non-empty")
    if pattern not in {"blocked", "interleaved", "random"}:
        raise ValueError(f"unknown pattern {pattern!r}")
    if pattern == "random" and rng is None:
        raise ValueError("pattern='random' requires an rng")

    chosen: List[InputClass] = []
    if pattern == "blocked":
        per_class = n_requests // len(classes)
        remainder = n_requests - per_class * len(classes)
        for index, input_class in enumerate(classes):
            count = per_class + (1 if index < remainder else 0)
            chosen.extend([input_class] * count)
    elif pattern == "interleaved":
        for index in range(n_requests):
            chosen.append(classes[index % len(classes)])
    else:
        for index in range(n_requests):
            chosen.append(rng.choice(list(classes)))

    requests: List[RequestArrival] = []
    for index, input_class in enumerate(chosen):
        requests.append(
            RequestArrival(
                arrival_time=index * inter_arrival_seconds,
                input_scale=input_class.scale,
                input_class=input_class.name,
            )
        )
    return requests

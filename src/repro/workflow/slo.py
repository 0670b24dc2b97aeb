"""Service Level Objective (SLO) objects.

The paper's SLOs are end-to-end latency limits on a workflow execution
(120 s for Chatbot and ML Pipeline, 600 s for Video Analysis).  AARC also
derives *sub-SLOs* for detour sub-paths; those are plain derived SLO
instances with a reference to their parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.utils.ranges import POSITIVE, check_fields
from repro.utils.units import format_duration

__all__ = ["SLO", "SLOViolation"]


class SLOViolation(RuntimeError):
    """Raised when an execution exceeds its SLO and the caller asked to fail."""

    def __init__(self, observed_latency: float, slo: "SLO") -> None:
        super().__init__(
            f"observed latency {format_duration(observed_latency)} exceeds "
            f"SLO {format_duration(slo.latency_limit)} ({slo.name})"
        )
        self.observed_latency = observed_latency
        self.slo = slo


@dataclass(frozen=True)
class SLO:
    """An end-to-end latency objective in seconds.

    Attributes
    ----------
    latency_limit:
        Maximum tolerated end-to-end latency, in seconds.
    name:
        Identifier used in reports (e.g. ``"chatbot-e2e"``).
    parent:
        Name of the parent SLO when this is a derived sub-SLO, else ``None``.
    """

    latency_limit: float = POSITIVE.field()
    name: str = "slo"
    parent: Optional[str] = None

    def __post_init__(self) -> None:
        check_fields(self)

    def is_met(self, observed_latency: float, tolerance: float = 0.0) -> bool:
        """Whether an observed latency satisfies the objective.

        Parameters
        ----------
        observed_latency:
            Measured end-to-end latency in seconds.
        tolerance:
            Fractional slack (e.g. 0.05 allows 5 % overshoot); used only by
            reporting, never by the configuration algorithms themselves.
        """
        if observed_latency < 0:
            raise ValueError("observed_latency cannot be negative")
        return observed_latency <= self.latency_limit * (1.0 + tolerance)

    def check(self, observed_latency: float) -> None:
        """Raise :class:`SLOViolation` if the latency exceeds the limit."""
        if not self.is_met(observed_latency):
            raise SLOViolation(observed_latency, self)

    def headroom(self, observed_latency: float) -> float:
        """Remaining latency budget (negative when violated)."""
        return self.latency_limit - observed_latency

    def utilization(self, observed_latency: float) -> float:
        """Fraction of the latency budget consumed."""
        return observed_latency / self.latency_limit

    def derive(self, latency_limit: float, name: str) -> "SLO":
        """Create a sub-SLO tied to this one (used for detour sub-paths)."""
        return SLO(latency_limit=latency_limit, name=name, parent=self.name)

    def scaled(self, factor: float) -> "SLO":
        """Return a copy with the limit multiplied by ``factor``."""
        POSITIVE.check(factor, "factor")
        return SLO(latency_limit=self.latency_limit * factor, name=self.name, parent=self.parent)

    def describe(self) -> str:
        """Human-readable summary."""
        suffix = f" (sub-SLO of {self.parent})" if self.parent else ""
        return f"SLO {self.name}: {format_duration(self.latency_limit)}{suffix}"

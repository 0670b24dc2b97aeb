"""Nearest-rank percentiles shared by serving, protection and control.

Lives in ``repro.utils`` so every layer can import it without a cycle (the
serving layer imports the protection layer, which needs the same rank).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["nearest_rank", "percentile"]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank lookup into an already-sorted sequence (or NumPy array).

    ``q`` is in percent (p99 → ``q=99``).  Returns ``nan`` on empty input.
    """
    if not 0 <= q <= 100:
        raise ValueError("q must be between 0 and 100")
    if len(ordered) == 0:
        return float("nan")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    return nearest_rank(sorted(values), q)

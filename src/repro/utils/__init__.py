"""Shared utilities: seeded RNG streams, units, ASCII tables, logging, percentiles.

These helpers are deliberately small and dependency-free so that every other
subsystem (workflow model, simulator, optimizers, experiment harness) can use
them without import cycles.
"""

from repro.utils.rng import RngStream, derive_seed, spawn_streams
from repro.utils.units import (
    MB_PER_GB,
    format_duration,
    format_memory,
    gb_from_mb,
    mb_from_gb,
    parse_memory_mb,
    parse_vcpu,
)
from repro.utils.tables import Table, format_series
from repro.utils.logging import get_logger
from repro.utils.stats import nearest_rank, percentile

__all__ = [
    "RngStream",
    "derive_seed",
    "spawn_streams",
    "MB_PER_GB",
    "format_duration",
    "format_memory",
    "gb_from_mb",
    "mb_from_gb",
    "parse_memory_mb",
    "parse_vcpu",
    "Table",
    "format_series",
    "get_logger",
    "nearest_rank",
    "percentile",
]

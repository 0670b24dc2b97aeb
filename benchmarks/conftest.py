"""Shared fixtures for the benchmark harness.

The heavyweight artefact — the full configuration-search comparison of AARC,
BO and MAFF over the three workloads — is produced once per session and shared
by the Fig. 5 / Fig. 6 / Fig. 7 / Table II benchmarks.  Every benchmark prints
the numeric rendering of its figure; ``pytest benchmarks --update-results``
also writes it to ``benchmarks/results/``, so a plain run leaves the committed
files untouched.
"""

from __future__ import annotations

import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.experiments.harness import ExperimentSettings  # noqa: E402
from repro.experiments.search_experiment import run_search_comparison  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help="rewrite benchmarks/results/ from this run instead of only "
        "printing what each benchmark measured",
    )


def pytest_collection_modifyitems(items) -> None:
    """Every benchmark is part of the slow lane (`-m "not slow"` skips them).

    The hook fires for the whole session, so restrict the marker to items
    collected from this directory; the CI benchmark-smoke job names its
    files explicitly and is unaffected by the marker.
    """
    here = os.path.dirname(os.path.abspath(__file__))
    for item in items:
        if str(item.fspath).startswith(here):
            item.add_marker(pytest.mark.slow)

#: Settings used by every benchmark: the paper's 100-round BO budget and a
#: fixed seed so benchmark output is reproducible run-to-run.
BENCH_SETTINGS = ExperimentSettings(seed=2025, bo_samples=100, maff_samples=100)


@pytest.fixture(scope="session")
def record_result(request):
    """``record_result(filename, text)`` echoes a rendering; with
    ``--update-results`` it also writes it under benchmarks/results/."""
    update = bool(request.config.getoption("--update-results"))

    def record(filename: str, text: str) -> None:
        print("\n" + text)
        if update:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            with open(os.path.join(RESULTS_DIR, filename), "w", encoding="utf-8") as handle:
                handle.write(text + "\n")

    return record


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Benchmark-wide experiment settings."""
    return BENCH_SETTINGS


@pytest.fixture(scope="session")
def comparison(settings):
    """The full AARC / BO / MAFF search comparison over all three workloads."""
    return run_search_comparison(settings=settings)

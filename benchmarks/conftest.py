"""Shared fixtures for the benchmark harness.

The heavyweight artefact — the full configuration-search comparison of AARC,
BO and MAFF over the three workloads — is produced once per session and shared
by the Fig. 5 / Fig. 6 / Fig. 7 / Table II benchmarks.  Every benchmark prints
the numeric rendering of its figure.  A plain run compares each rendering of
simulated quantities against its committed file under ``benchmarks/results/``
and fails with a diff when they differ; renderings of timings, which change
run to run, are only printed.  ``pytest benchmarks --update-results`` writes
every rendering to its file instead.
"""

from __future__ import annotations

import difflib
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
    """``record_result(filename, text, timings=False)`` echoes a rendering.

    With ``--update-results`` it writes the rendering under
    benchmarks/results/.  Otherwise a rendering of simulated quantities must
    equal the committed file, and the test fails with a diff when it does
    not; ``timings=True`` marks a rendering that holds measured times, which
    is only printed.
    """
    update = bool(request.config.getoption("--update-results"))

    def record(filename: str, text: str, timings: bool = False) -> None:
        print("\n" + text)
        path = os.path.join(RESULTS_DIR, filename)
        rendered = text + "\n"
        if update:
            os.makedirs(RESULTS_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rendered)
            return
        if timings:
            return
        if not os.path.exists(path):
            pytest.fail(f"{filename} is not committed; run with --update-results")
        with open(path, encoding="utf-8") as handle:
            committed = handle.read()
        if rendered != committed:
            diff = difflib.unified_diff(
                committed.splitlines(keepends=True),
                rendered.splitlines(keepends=True),
                fromfile=f"benchmarks/results/{filename}",
                tofile="this run",
            )
            pytest.fail(
                f"{filename} differs from the committed rendering "
                "(--update-results rewrites it):\n" + "".join(diff),
                pytrace=False,
            )

    return record


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Benchmark-wide experiment settings."""
    return BENCH_SETTINGS


@pytest.fixture(scope="session")
def comparison(settings):
    """The full AARC / BO / MAFF search comparison over all three workloads."""
    return run_search_comparison(settings=settings)

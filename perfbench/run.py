"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload serve-chaos --seed 7 --seconds 15 --trace 0

With ``--trace 0`` it prints the end-to-end metrics listed in
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  Every figure comes
from fresh worker processes (``worker.py``) started one after another, so
at most one of them runs at a time.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it carry the run's metadata, the simulated
results with their digest, and the spread of the timings.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seeds used when ``--seed`` is not given.
DEFAULT_SEEDS = {"search": 2025, "serve-batched": 2025, "serve-chaos": 2025, "fleet": 717}

#: Measuring processes of an untraced run; they split ``--seconds`` and
#: their iterations are pooled, so no single process's memory layout and
#: hash seed decides the result.  Each also gives one set-up sample.
MEASURE_PROCESSES = 3

#: Wall-clock budget of one whole run, in seconds.
RUN_BUDGET_SECONDS = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(
    workload: str, seed: int, seconds: float, trace: bool, checks_once: bool,
    deadline: float,
) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
    ]
    if trace:
        command.append("--trace")
    if checks_once:
        command.append("--checks-once")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before starting a worker")
    # One thread per process: NumPy's BLAS would otherwise spread the GP's
    # linear algebra over every core and contend with itself.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        completed = subprocess.run(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=remaining,
            check=False,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the worker and waited for it.
        raise BenchmarkError("a worker ran out of time") from None
    lines = completed.stdout.decode("utf-8", "replace").strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise BenchmarkError(f"a worker exited with code {completed.returncode}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def metadata(args, worker: dict) -> dict:
    def git(*argv):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, *argv], stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, timeout=10, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.decode().strip()

    sha = git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = None
    if sha is not None:
        status = git("status", "--porcelain", "--untracked-files=no")
        dirty = bool(status) if status is not None else None
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        **worker["versions"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": worker["params"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        return fail("the program's source (src/repro) is not in this checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        return fail(f"cannot read BENCHMARK.json: {error}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_BUDGET_SECONDS
    count = 1 if args.trace else MEASURE_PROCESSES
    runs = []
    try:
        for index in range(count):
            runs.append(run_worker(
                args.workload, args.seed, args.seconds / count, bool(args.trace),
                index == count - 1, deadline,
            ))
    except BenchmarkError as error:
        return fail(str(error))
    main_run = runs[-1]

    problems = [problem for run in runs for problem in run["problems"]]
    if len({run["digest"] for run in runs}) != 1:
        problems.append("simulated results differ between processes")
    if not all(run["timed"] for run in runs):
        problems.append("a process had no successful iteration")
    timed = [entry for run in runs for entry in run["timed"]]
    timed = timed or [{"wall_s": 1.0, "cpu_s": 1.0, "ops": 0}]
    rates = [entry["ops"] / entry["cpu_s"] for entry in timed]
    wall_rates = [entry["ops"] / entry["wall_s"] for entry in timed]
    cpu_s = statistics.median(entry["cpu_s"] for entry in timed)
    setup_samples = [run["import_s"] + run["build_s"] for run in runs]
    # Work the first call does beyond a steady one counts as set-up.
    warmup_excess = statistics.median(
        max(0.0, run["warmup"]["wall_s"] - statistics.median(e["wall_s"] for e in run["timed"]))
        if run["warmup"] and run["timed"] else 0.0
        for run in runs
    )
    q1, q3 = quartiles(rates)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)

    values = {
        "ops_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup_samples) + warmup_excess,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    if args.trace:
        traced = main_run["traced"]
        if not traced:
            problems.append("no traced iteration succeeded")
            traced = [{"cpu_s": 0.0, "layers": {}}]
        for name in traced[0]["layers"]:
            series = [entry["layers"][name] for entry in traced]
            if isinstance(series[0], int) and name != "runtime.gc.collections":
                # Counts of a deterministic run repeat exactly.
                if len(set(series)) > 1:
                    problems.append(f"count {name} differs between iterations: {series}")
                values[name] = series[0]
            else:
                values[name] = statistics.median(series)
        values["setup.import_s"] = main_run["import_s"]
        values["setup.build_s"] = main_run["build_s"]
        values["trace.overhead_ratio"] = (
            statistics.median(entry["cpu_s"] for entry in traced) / cpu_s
        )

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not problems:
        return fail(f"no value for metrics {missing}")
    for name in missing:  # a failed run reports what it could measure
        values[name] = 0.0
    correct = not problems and failed == 0 and main_run["digest"] is not None

    print(json.dumps({"meta": metadata(args, main_run)}))
    print(json.dumps({"results": main_run["summary"], "digest": main_run["digest"]},
                     default=repr))
    print(json.dumps({
        "ops_per_s": {"median": values["ops_per_s"], "q1": q1, "q3": q3, "n": len(timed)},
        "ops_per_wall_s": statistics.median(wall_rates),
        "setup_s_samples": setup_samples,
        "warmup_excess_s": warmup_excess,
        "error_rate": failed / attempted if attempted else 1.0,
    }))
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

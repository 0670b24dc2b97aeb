"""One benchmark process: set up a workload in a fresh interpreter, then
run and check iterations of it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace] [--checks-once]

After set-up it runs one discarded warm-up iteration, then timed iterations
for ``S`` seconds.  With ``--trace`` the second half of that budget runs
with every layer boundary wrapped by the tracer, and the spans of the last
traced iteration are written to ``.perfbench/`` in the checkout.
``--checks-once`` adds the workload's once-per-run checks.  The process
prints one JSON object as its last line.  Nothing else runs in the process,
which is single-threaded.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def digest(summary) -> str:
    """Stable hash of a summary (floats are written with all their digits)."""
    text = json.dumps(summary, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Runner:
    """Runs, times and checks iterations of one workload."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()
        self.summary = None

    def iterate(self, tracer=None):
        """One iteration: returns ({wall_s, cpu_s, ops}, summary), or None if
        it failed.

        Only ``workload.run`` is timed, and traced when a tracer is given;
        the checks run after the clocks stop.
        """
        self.attempted += 1
        gc.collect()
        try:
            if tracer is not None:
                tracer.reset()
                tracer.activate()
            try:
                wall, cpu = time.perf_counter(), time.process_time()
                output = self.workload.run()
                cpu = time.process_time() - cpu
                wall = time.perf_counter() - wall
            finally:
                if tracer is not None:
                    tracer.deactivate()
            problems = self.workload.check(output)
            ops = self.workload.ops(output)
            summary = self.workload.summary(output)
        except Exception:  # an iteration that raises counts as failed
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=8))
            return None
        del output
        self.digests.add(digest(summary))
        if len(self.digests) > 1:
            problems.append("simulated results differ between iterations")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        self.summary = summary
        return {"wall_s": wall, "cpu_s": cpu, "ops": ops}, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--checks-once", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports the program

    import_s = time.perf_counter() - STARTED
    build_start = time.perf_counter()
    workload = workloads.WORKLOADS[args.workload]()
    workload.build(args.seed)
    build_s = time.perf_counter() - build_start
    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "build_s": build_s,
        "params": workload.params,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }

    runner = Runner(workload)
    warmup = runner.iterate()
    result["warmup"] = warmup[0] if warmup is not None else None

    # The timed loop; checks run inside its wall-clock budget but outside
    # each iteration's timing.
    timed, traced = [], []
    loop_start = time.perf_counter()
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    while not timed or time.perf_counter() - loop_start < untraced_budget:
        outcome = runner.iterate()
        if outcome is not None:
            timed.append(outcome[0])
        elif runner.attempted > 3 and not timed:
            break
    if args.trace and timed:
        from tracing import Tracer
        import layers

        tracer = Tracer()
        layers.register(tracer)
        while not traced or time.perf_counter() - loop_start < args.seconds:
            outcome = runner.iterate(tracer)
            if outcome is None:
                break
            figures, summary = outcome
            figures["layers"] = layers.iteration_metrics(tracer, summary["counters"])
            traced.append(figures)
        out_dir = os.path.join(ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(
            os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        )

    if args.checks_once:
        # Run-level checks count as one more attempted operation.
        runner.attempted += 1
        try:
            problems = workload.check_once()
        except Exception:
            problems = [traceback.format_exc(limit=8)]
        if problems:
            runner.failed += 1
            runner.problems.extend(problems)

    result.update(
        {
            "timed": timed,
            "traced": traced,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "problems": runner.problems[:20],
            "summary": runner.summary,
            "digest": next(iter(runner.digests)) if len(runner.digests) == 1 else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    print(json.dumps(result, default=repr))
    return 0


if __name__ == "__main__":
    sys.exit(main())

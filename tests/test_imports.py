"""Import guard: ``import repro`` and the CLI verbs load no heavy dependency.

AARC searches without a surrogate, so only the BO baseline needs scipy: its
GP imports ``scipy.linalg`` on the first fit and its acquisition scores
import ``scipy.special``.  A module-level scipy import anywhere on the
``import repro`` path would cost every process about a second of start-up.
networkx is a test-only dependency (the reference for the workflow DAG), so
no step may load it, BO included.  This test imports the package in a fresh
interpreter and checks ``sys.modules`` after each step.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.optimize", "scipy.stats", "scipy.linalg", "scipy.special", "networkx")

#: (label, CLI arguments), run in order in one interpreter; BO comes last
#: because it is the one step that is meant to load scipy.
STEPS = [
    ("workloads", ["workloads"]),
    ("serve", ["serve", "--workload", "chatbot", "--duration", "30",
               "--faults", "chaos", "--protection", "full"]),
    ("fleet", ["fleet", "--duration", "60"]),
    ("search AARC", ["search", "chatbot", "--method", "AARC"]),
    ("search BO", ["search", "chatbot", "--method", "BO"]),
]

SCRIPT = """
import contextlib, io, json, sys
heavy, steps = json.loads(sys.argv[1])

def loaded():
    return [name for name in heavy if name in sys.modules]

import repro, repro.cli
report = [["import repro, repro.cli", 0, loaded()]]
for label, argv in steps:
    with contextlib.redirect_stdout(io.StringIO()):
        code = repro.cli.main(argv)
    report.append([label, code, loaded()])
print(json.dumps(report))
"""


def test_only_bo_loads_scipy_subpackages():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps([HEAVY, STEPS])],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    report = {label: (code, set(mods)) for label, code, mods in json.loads(completed.stdout)}

    for label in ["import repro, repro.cli"] + [label for label, _ in STEPS[:-1]]:
        assert report[label] == (0, set()), label
    assert report["search BO"] == (0, {"scipy.linalg", "scipy.special"})

"""Cold-start guard: importing ``ibrl`` and running every experiment family
loads no scipy module. scipy is imported only inside the one function that
uses it (``prune(convex=True)``), so a new eager ``import scipy`` fails here
instead of adding its import time and memory to every run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = r"""
import sys

import ibrl
import ibrl.harness.cli
from ibrl.harness import run_experiment
from ibrl.harness.config import config_from_mapping, parse_config_text

CONFIGS = [
    "experiment = ku-bandit\nsteps = 5\nruns = 1\n",
    "experiment = trap-bandit\nenv.horizon = 5\nenv.runs = 1\n",
    "experiment = newcomb\nepisodes = 2\n",
    "experiment = validate-classical\nsteps = 5\nruns = 1\n",
]
for text in CONFIGS:
    assert run_experiment(config_from_mapping(parse_config_text(text))), text

loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"scipy loaded without use: {loaded[:5]}"

model = ibrl.ExplicitFiniteModel(3)
points = tuple(
    ibrl.AMeasure(1.0, ibrl.FiniteOutcomeMeasure(m), 0.0, model)
    for m in [(1.0, 0.0, 0.0), (0.5, 0.5, 0.0), (0.0, 1.0, 0.0)]
)
pruned = ibrl.prune(ibrl.Infradistribution(points), convex=True)
assert len(pruned.points) == 2, pruned
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_experiments_load_no_scipy_until_it_is_used():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"

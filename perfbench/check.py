"""Correctness check of one workload's CSV output.

At benchmark size, the CSV's sha256 must equal the digest recorded in
``digests.json`` when one is recorded for the seed. For every seed the rows
must also satisfy invariants that hold for any correct run:

- the header, row count, experiment, seed and agent labels are as configured;
- each (agent, episode) has steps 0, 1, ... in order;
- every float column is finite and ``exp_regret >= 0``;
- ``cum_exp_regret`` is the running sum of ``exp_regret`` within CSV rounding;
- on ``newcomb-sweep``, the robust agent never one-boxes at accuracy 0.545 or
  below and always one-boxes at 0.555 or above.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

from workloads import Workload

COLUMNS = [
    "experiment", "agent", "seed", "episode", "step", "action",
    "reward", "exp_regret", "cum_regret", "cum_exp_regret",
]
EXPERIMENTS = {"trap-roster": "trap-bandit", "newcomb-sweep": "newcomb", "ku-long": "ku-bandit"}
# Floats are written with 6 decimals, so each value is off by at most 5e-7.
CSV_ROUNDING = 5e-7

DIGESTS = Path(__file__).with_name("digests.json")


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def check_csv(
    data: bytes, workload: Workload, size: int, seed: int, digests: dict[str, dict[str, str]]
) -> list[str]:
    """Problems found in one CSV; an empty list means it is correct."""
    problems = []
    if size == workload.size:
        recorded = digests.get(workload.name, {}).get(str(seed))
        if recorded is not None and hashlib.sha256(data).hexdigest() != recorded:
            problems.append(f"sha256 differs from the digest recorded for seed {seed}")
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != COLUMNS:
        return problems + ["header differs from the CSV columns"]
    body = rows[1:]
    expected_rows = size * workload.rows_per_size
    if len(body) != expected_rows:
        problems.append(f"{len(body)} rows, expected {expected_rows}")
    agents = set()
    one_box: dict[str, list[int]] = {}
    key, next_step, running = None, 0, 0.0
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(COLUMNS):
            problems.append(f"line {lineno}: {len(row)} columns")
            break
        experiment, agent, row_seed, episode, step, action = row[:6]
        reward, exp_regret, cum_regret, cum_exp = (float(v) for v in row[6:])
        where = f"line {lineno} ({agent}, episode {episode}, step {step})"
        if experiment != EXPERIMENTS[workload.name] or int(row_seed) != seed:
            problems.append(f"{where}: experiment {experiment!r}, seed {row_seed}")
        if not all(math.isfinite(v) for v in (reward, exp_regret, cum_regret, cum_exp)):
            problems.append(f"{where}: non-finite float column")
        if exp_regret < 0.0:
            problems.append(f"{where}: exp_regret {exp_regret} < 0")
        if (agent, episode) != key:
            key, next_step, running = (agent, episode), 0, 0.0
        if int(step) != next_step:
            problems.append(f"{where}: expected step {next_step}")
        next_step = int(step) + 1
        running += exp_regret
        if abs(cum_exp - running) > CSV_ROUNDING * (next_step + 1) + 1e-9 * abs(running):
            problems.append(f"{where}: cum_exp_regret {cum_exp} is not the running sum {running}")
        agents.add(agent)
        one_box.setdefault(agent, []).append(int(action) == 0)
        if len(problems) > 20:
            break
    if agents != set(workload.agents):
        problems.append(f"agents {sorted(agents)}, expected {sorted(workload.agents)}")
    if workload.name == "newcomb-sweep":
        for agent, picks in one_box.items():
            accuracy = float(agent.removeprefix("ib_alpha"))
            rate = sum(picks) / len(picks)
            if (accuracy <= 0.545 and rate != 0.0) or (accuracy >= 0.555 and rate != 1.0):
                problems.append(f"{agent}: one-box rate {rate} on the wrong side of the flip")
    return problems

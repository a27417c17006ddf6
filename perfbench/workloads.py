"""The benchmark's workloads: which experiment config each one runs, at what size.

Each workload is a config file in the library's own text format, with the
run's seed and one size key filled in. ``size`` is the value used for
measurement; ``tiny`` is the value the smoke check uses. A workload's CSV has
``size * rows_per_size`` rows, one per agent-step.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    size: int
    tiny: int
    rows_per_size: int
    agents: tuple[str, ...]

    def config_text(self, seed: int, size: int) -> str:
        return self.template.format(seed=seed, size=size)


# The shipped trap-bandit roster at horizon 100; ``size`` is env.runs.
TRAP_ROSTER = Workload(
    name="trap-roster",
    template="""\
experiment = trap-bandit
seed = {seed}
env.alpha_dgp = 0.99
env.p_cat = 0.01
env.catastrophe_reward = -1000
env.horizon = 100
env.runs = {size}
env.pair.1 = 0.3, 0.7
env.pair.2 = 0.7, 0.3
agents = ib, greedy_prior0.99, greedy_prior0.01, thompson_prior0.99, thompson_prior0.01
""",
    size=8,
    tiny=1,
    rows_per_size=5 * 100,
    agents=("ib", "greedy_prior0.99", "greedy_prior0.01", "thompson_prior0.99", "thompson_prior0.01"),
)

# The shipped 51-cell accuracy sweep with the 11-policy grid; ``size`` is
# the number of episodes per cell.
NEWCOMB_SWEEP = Workload(
    name="newcomb-sweep",
    template="""\
experiment = newcomb
seed = {seed}
episodes = {size}
alpha.min = 0.50
alpha.max = 1.00
alpha.step = 0.01
policy.step = 0.1
matrix.onebox = 10, 0
matrix.twobox = 11, 1
""",
    size=40,
    tiny=2,
    rows_per_size=51,
    agents=tuple(f"ib_alpha{cell / 100:.2f}" for cell in range(50, 101)),
)

# One robust agent against a box whose corner is redrawn every step; ``size``
# is the horizon. At 2,000 steps the run crosses the offset overflow of the
# two high-arm-2 corners, so its numeric faults are nonzero.
KU_LONG = Workload(
    name="ku-long",
    template="""\
experiment = ku-bandit
seed = {seed}
steps = {size}
runs = 1
env.arm1 = 0.3, 0.7
env.arm2 = 0.4, 0.8
env.mode = per_step_random
agents = ib
""",
    size=2000,
    tiny=50,
    rows_per_size=1,
    agents=("ib",),
)

WORKLOADS = {w.name: w for w in (TRAP_ROSTER, NEWCOMB_SWEEP, KU_LONG)}


def config_seed(seed: int) -> int:
    """The experiment seed for benchmark seed ``seed``.

    The library takes seeds from 1 up; 0 and negative seeds map to distinct
    seeds above 2**31, which no drawn seed reaches."""
    return seed if seed >= 1 else 2**31 + abs(seed)


def rep_seeds(seed: int, segment: int = 0):
    """Experiment seeds for one segment of a run: segment 0 starts with the
    run's own seed; after that every seed is drawn from ``(seed, segment)``."""
    if segment == 0:
        yield config_seed(seed)
    rng = random.Random(f"{seed}:{segment}")
    while True:
        yield rng.randrange(1, 2**31)

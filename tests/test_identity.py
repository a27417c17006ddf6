"""Byte-identity guard: small runs of every experiment must keep producing
exactly the CSV bytes and Newcomb cell summaries recorded below.

A change to a digest means a change in trajectories, RNG use or CSV
formatting, not a harmless cleanup. Reproducibility within one version is
tested elsewhere; this pins identity across versions.
"""

import hashlib

import pytest

from ibrl.harness import ExperimentConfig, emit_csv, run_experiment, run_newcomb_sweep

NEWCOMB_SETTINGS = {"episodes": 5, "alpha.min": 0.5, "alpha.max": 0.6, "alpha.step": 0.05}
# A non-affine matrix: at accuracies above 0.5 the mixed policy that one-boxes
# with probability 0.5 beats both deterministic ones, so ``act`` draws from
# the agent stream; at 0.5 every candidate ties.
MIXED_NEWCOMB_SETTINGS = {
    "episodes": 6,
    "alpha.min": 0.5,
    "alpha.max": 1.0,
    "alpha.step": 0.25,
    "policy.step": 0.05,
    "matrix.onebox": (0.0, 2.0),
    "matrix.twobox": (2.0, 0.0),
}

CASES = {
    "validate-classical": (
        ExperimentConfig("validate-classical", seed=42, settings={"steps": 50, "runs": 2}),
        "2fb2fd2504a9c5abe2baa860cbf61f57af4611d4d39fb4cfbc75bf1e38b7126f",
    ),
    "ku-bandit": (
        ExperimentConfig("ku-bandit", seed=42),
        "fa4fc067bfc19b8b84fd766afce34972badf481e843119e8619ee1aca5c17ea1",
    ),
    "ku-bandit-per-step-random": (
        ExperimentConfig(
            "ku-bandit", seed=7, settings={"env.mode": "per_step_random", "agents": "ib"}
        ),
        "8bca15a5fb2f65fd6cad2e7518bc8c005256b1651a0553ead89fb00b25d6c6c1",
    ),
    # 2,000 steps. Range pruning drops the two p2 = 0.8 corners at step 3,
    # long before their offsets could overflow, so the run raises no
    # RuntimeWarning; the bytes are those of the unpruned belief.
    "ku-bandit-long": (
        ExperimentConfig(
            "ku-bandit",
            seed=7,
            settings={"steps": 2000, "env.mode": "per_step_random", "agents": "ib"},
        ),
        "2ff73698ad3a55617636d9a5416cf45474cb51ff9aee4b0d9b2af73dd5b6324b",
    ),
    # A box with endpoints at 0 and 1: its certain corners can be refuted, so
    # the belief is never a fixed point and every step takes the full path.
    "ku-bandit-certain-corners": (
        ExperimentConfig(
            "ku-bandit",
            seed=42,
            settings={
                "env.arm1": (0.0, 1.0),
                "env.mode": "per_step_random",
                "steps": 200,
                "agents": "ib",
            },
        ),
        "278f2e31067be32bbdef55cc21bf063f4d12b2f88e7edd75e198fce06e9fafbd",
    ),
    # Duplicate labels: each roster entry keeps its own environment stream
    # (with its own block source), and the CSV holds both entries' rows under
    # one label. A degenerate arm-1 interval gives two corners per label.
    "ku-bandit-duplicate-corners": (
        ExperimentConfig("ku-bandit", seed=42, settings={"env.arm1": (0.5, 0.5)}),
        "31708f75dbe639f5ea7a7af1e1c671c7b72122398c455d8e184fa54317bedf13",
    ),
    "ku-bandit-duplicate-ib": (
        ExperimentConfig(
            "ku-bandit",
            seed=42,
            settings={"env.mode": "per_step_random", "agents": ("ib", "ib")},
        ),
        "955727be08282c90b4a46f2a0b8c4bc28cdaa60ea952bea1790f7a5dbc7fca67",
    ),
    "trap-bandit-duplicate-ib": (
        ExperimentConfig("trap-bandit", seed=42, settings={"env.runs": 3, "agents": ("ib", "ib")}),
        "9b914a0854fb7f7d558577eef9a93eb7b2686c098f921dc345f0ed61ad976b52",
    ),
    "newcomb": (
        ExperimentConfig("newcomb", seed=42, settings=dict(NEWCOMB_SETTINGS)),
        "79c3091642df8b93e5226d6b83a9fd461688edf125b7ffb772ae52f4a915c8e0",
    ),
    "newcomb-mixed": (
        ExperimentConfig("newcomb", seed=42, settings=dict(MIXED_NEWCOMB_SETTINGS)),
        "1694402c574c6bbefea715172a96aaf9f663616f6d6e3cdec8a1fc7c1459f0e6",
    ),
    # The full default sweep (51 cells) at 40 episodes per cell, including
    # the all-tied cell at accuracy 0.55, where every episode draws a tie-break.
    "newcomb-sweep": (
        ExperimentConfig("newcomb", seed=7, settings={"episodes": 40}),
        "435ff7ed8cdc651e165eafcb05ec0b1922a6b001f76c4331b180712bd7d93aa2",
    ),
    "trap-bandit": (
        ExperimentConfig("trap-bandit", seed=42, settings={"env.runs": 3}),
        "d513ee33176a806ecc7988c1aecde96164b09bd1531f64931ee13c01f838d33b",
    ),
}

# (alpha, selected_one_box_rate, mean_reward, mean_policy_value, reward_se)
NEWCOMB_CELLS = [
    (0.5, 0.0, 5.0, 6.0, 2.23606797749979),
    (0.55, 0.4, 5.0, 5.5, 2.2416957866757925),
    (0.6, 1.0, 8.0, 6.0, 2.1908902300206643),
]

# The same fields of the mixed-policy sweep, as float hex.
MIXED_NEWCOMB_CELLS = [
    ("0x1.0000000000000p-1", "0x1.4888888888888p-1", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0", "0x1.a20bd700c2c3dp-2"),
    ("0x1.8000000000000p-1", "0x1.0000000000000p-1", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0", "0x1.a20bd700c2c3dp-2"),
    ("0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0",
     "0x1.0000000000000p+0", "0x1.a20bd700c2c3dp-2"),
]


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_are_unchanged(name, tmp_path):
    cfg, digest = CASES[name]
    path = tmp_path / "run.csv"
    emit_csv(run_experiment(cfg), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def _cell_fields(settings):
    _, cells = run_newcomb_sweep(ExperimentConfig("newcomb", seed=42, settings=dict(settings)))
    return [
        (c.alpha, c.selected_one_box_rate, c.mean_reward, c.mean_policy_value, c.reward_se)
        for c in cells
    ]


def test_newcomb_cell_summaries_are_unchanged():
    assert _cell_fields(NEWCOMB_SETTINGS) == NEWCOMB_CELLS


def test_mixed_policy_newcomb_cell_summaries_are_unchanged():
    got = [tuple(x.hex() for x in cell) for cell in _cell_fields(MIXED_NEWCOMB_SETTINGS)]
    assert got == MIXED_NEWCOMB_CELLS

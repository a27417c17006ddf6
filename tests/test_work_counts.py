"""Work budgets of the three benchmark workloads, pinned as call counts.

Each workload's experiment config runs at its smoke size (trap at two runs) with counting
wrappers around the operations whose counts the speed-ups lowered. Counts
are deterministic for a (config, seed), so a change that re-adds per-step
work fails here even while every output digest holds. A change that lowers
a count updates the table and says so in CHANGES.md.
"""

from collections import Counter

import ibrl.agents
import ibrl.harness.runner
import ibrl.worldmodels
from ibrl import AgentState, JointHypothesisMeasure, ObservationEvent
from ibrl.harness import ExperimentConfig, run_experiment

# The benchmark workloads' configs at their smoke sizes, seed 42, except
# that trap runs 2 runs, so that work done once per config, not per run, shows.
WORKLOADS = {
    "trap-roster": ExperimentConfig(
        "trap-bandit",
        seed=42,
        settings={
            "env.alpha_dgp": 0.99,
            "env.p_cat": 0.01,
            "env.catastrophe_reward": -1000.0,
            "env.horizon": 100,
            "env.runs": 2,
            "env.pair.1": (0.3, 0.7),
            "env.pair.2": (0.7, 0.3),
            "agents": (
                "ib", "greedy_prior0.99", "greedy_prior0.01",
                "thompson_prior0.99", "thompson_prior0.01",
            ),
        },
    ),
    "newcomb-sweep": ExperimentConfig(
        "newcomb",
        seed=42,
        settings={
            "episodes": 2,
            "alpha.min": 0.5,
            "alpha.max": 1.0,
            "alpha.step": 0.01,
            "policy.step": 0.1,
            "matrix.onebox": (10.0, 0.0),
            "matrix.twobox": (11.0, 1.0),
        },
    ),
    "ku-long": ExperimentConfig(
        "ku-bandit",
        seed=42,
        settings={
            "steps": 50,
            "runs": 1,
            "env.arm1": (0.3, 0.7),
            "env.arm2": (0.4, 0.8),
            "env.mode": "per_step_random",
            "agents": "ib",
        },
    ),
}

# Per workload: rows written, then calls per operation. Selections are keyed
# by the selecting agent's flavor: greedy steps reach ``select_policy`` and
# only Thompson steps reach ``bayes_select``. ``policy_expectations`` counts
# value passes per point, ``expected_action_values`` the bandit per-arm value
# computations they run, ``next_history`` history builds, ``warm`` joint
# batches, ``_successor`` successor states (``AgentState`` counts the rest).
# ``random[role, size]`` counts ``Generator.random`` calls per stream role
# and size (``None`` is one scalar uniform): every environment step reads
# its unit's block source, which draws at most ``ENV_BLOCK`` at a time and
# stops at the unit's exact count, so no step makes a scalar draw.
#
# Each episode observes after every step but its last, whose successor no
# step reads: ``steps - 1`` conditionings or history builds per episode.
#
# * trap-roster: 5 agents x 2 runs x 100 steps. The ``ib`` agent values both
#   points until one is pruned (218 point values over both runs) and
#   restricts both when it conditions (216, as its last step observes
#   nothing), and builds its 2 x 3 events once. Each roster
#   entry's belief is built once per config (6 joint measures) and shared by
#   its runs, whose states copy the entry's state with their own stream.
#   Every block steps in lockstep, so each step warms the whole roster in one
#   pass: every live measure with the histories of the live states that
#   hold it, 100 batches in all; no read misses, since a miss would warm a
#   batch of its own.
#   The ``ib`` agent's joint measure reads the history, so its one-point
#   belief is never stored as a fixed point. Each of the 10 units' env
#   streams draws its world with one scalar uniform (after an ``integers``
#   draw), then its 100 steps' uniforms in one block; the 400 agent-stream
#   scalars are Thompson's hypothesis draws.
# * newcomb-sweep: 51 cells x 2 episodes. One ``newcomb_reward_moments``
#   call per sweep gives every cell's candidate moments. Every episode is
#   one step from its cell's one state, so a cell runs one value pass and
#   never observes. A cell's episodes share one env stream: one block of 2. The 2
#   agent-stream scalars sample the mixed policies the all-tied cell at 0.55
#   picks.
# * ku-long: 50 steps of one agent over 4 corners, 2 after the third step;
#   its 2 x 2 events are built once. The pair left after the third step is
#   a fixed point: the first conditioning on it per event (steps 3 and 4;
#   the agent only pulls arm 2) stores it, later ones only check and advance
#   the history, and successors share the tie memo. So 4 value passes
#   (4 + 4 + 4 + 2 points, each valuing its corner's arms once) and 16
#   restrictions (4 + 4 + 4 + 2 + 2) serve all 50 steps. Each step reads 3 uniforms (two arms redrawn, one pull):
#   one block of 150.
BUDGETS = {
    "trap-roster": (1000, {
        "select_policy[ib_maximin]": 200,
        "select_policy[bayes_greedy]": 400,
        "bayes_select[bayes_thompson]": 400,
        "lower_expectations": 600,
        "policy_expectations": 618,
        "expected_action_values": 618,
        "condition": 198,
        "warm": 100,
        "restrict": 216,
        "next_history": 990,
        "ObservationEvent": 6,
        "JointHypothesisMeasure": 6,
        "AgentState": 15,
        "_successor": 990,
        "random[env, None]": 10,
        "random[env, 100]": 10,
        "random[agent, None]": 400,
    }),
    "newcomb-sweep": (102, {
        "select_policy[ib_maximin]": 102,
        "newcomb_reward_moments": 1,
        "lower_expectations": 51,
        "policy_expectations": 51,
        "AgentState": 51,
        "random[env, 2]": 51,
        "random[agent, None]": 2,
    }),
    "ku-long": (50, {
        "select_policy[ib_maximin]": 50,
        "lower_expectations": 4,
        "policy_expectations": 14,
        "expected_action_values": 14,
        "condition": 49,
        "restrict": 16,
        "next_history": 49,
        "ObservationEvent": 4,
        "AgentState": 1,
        "_successor": 49,
        "random[env, 150]": 1,
    }),
}


def _count(monkeypatch, counts, owner, name, label=None):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counts[label(*args) if label else name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


def _by_flavor(name):
    return lambda state, *_: f"{name}[{state.flavor}]"


class _CountingStream:
    """Forwards to a generator and counts its ``random`` calls by stream
    role and size (``None`` for a scalar draw)."""

    def __init__(self, rng, role, counts):
        self._rng, self._role, self._counts = rng, role, counts

    def random(self, size=None):
        self._counts[f"random[{self._role}, {size}]"] += 1
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_benchmark_workloads_keep_their_work_budgets(monkeypatch):
    counts = Counter()
    runner = ibrl.harness.runner
    derive = runner.derive_stream
    roles = {runner.ENV_STREAM: "env", runner.AGENT_STREAM: "agent"}

    def counted_stream(*keys):
        # Every workload keys its streams (seed, unit, role, ...).
        return _CountingStream(derive(*keys), roles[keys[2]], counts)

    monkeypatch.setattr(runner, "derive_stream", counted_stream)
    _count(monkeypatch, counts, runner, "select_policy", _by_flavor("select_policy"))
    _count(monkeypatch, counts, runner, "bayes_select", _by_flavor("bayes_select"))
    _count(monkeypatch, counts, runner, "newcomb_reward_moments")
    _count(monkeypatch, counts, ibrl.agents, "lower_expectations")
    _count(monkeypatch, counts, ibrl.agents, "condition")
    _count(monkeypatch, counts, ibrl.agents, "_successor")
    for name in ("restrict", "policy_expectations", "expected_action_values", "next_history", "warm"):
        for model in vars(ibrl.worldmodels).values():
            if isinstance(model, type) and name in vars(model):
                _count(monkeypatch, counts, model, name)
    for built in (ObservationEvent, AgentState, JointHypothesisMeasure):
        _count(monkeypatch, counts, built, "__init__", lambda obj, *_: type(obj).__name__)
    table = {}
    for name, cfg in WORKLOADS.items():
        counts.clear()
        rows = len(run_experiment(cfg))
        table[name] = (rows, dict(counts))
    assert table == BUDGETS

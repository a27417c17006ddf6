"""Belief invariants at long horizons.

After every ``condition`` an agent runs inside an experiment, the checker
asserts the four invariants of the conditioning pipeline:

- every scale and offset is a Python ``float``, finite and nonnegative;
- the constants 0 and 1 evaluate to 0 and 1;
- the belief never grows;
- every lower expectation the agent uses (each arm's return, and the
  constants 0 and 1) equals, bit for bit, that of an unpruned reference
  belief conditioned on the same events.

The reference runs its own trajectory through raw update, renormalization
and duplicate-only pruning, so it keeps the range-dominated points that
``condition`` drops. A failure names the experiment, agent, episode and
step.
"""

import math

import numpy as np
import pytest

import ibrl.agents
import ibrl.harness.runner
import ibrl.updates
from ibrl import (
    AMeasure,
    DegenerateUpdateError,
    Infradistribution,
    lower_expectation,
    prune,
    renormalize,
    update_infra,
)
from ibrl.harness import ExperimentConfig, run_experiment
from ibrl.updates import DEGENERATE_TOL


def reference_condition(psi, event):
    """``condition`` without range pruning, fallback included: trap's
    refuted safe point makes renormalization degenerate once the risky
    point's offset reaches 1. Dominated offsets may overflow here, which is
    harmless to a minimum."""
    updated = update_infra(psi, event)
    with np.errstate(over="ignore"):
        try:
            return prune(renormalize(updated))
        except DegenerateUpdateError:
            live = tuple(
                a
                for a in updated.points
                if a.scale > 0.0
                and a.scale * a.model.conditioned_mass(a.measure, updated.history)
                > DEGENERATE_TOL
            )
            return prune(renormalize(Infradistribution(live, updated.history)))


def probe_returns(event):
    """Each arm's return under the agent's value table, then the constants 0
    and 1."""
    model = event.model
    table = event.offbranch_return.values
    uniform = np.full(model.arm_count, 1.0 / model.arm_count)
    return [model.arm_return(arm, table) for arm in range(model.arm_count)] + [
        model.policy_return(uniform, np.full(table.shape, c)) for c in (0.0, 1.0)
    ]


def invariant_violations(before, after, reference, event):
    problems = []
    for i, a in enumerate(after.points):
        if type(a.scale) is not float or type(a.offset) is not float:
            problems.append(
                f"point {i} stores {type(a.scale).__name__} scale, {type(a.offset).__name__} offset"
            )
        if not (math.isfinite(a.scale) and math.isfinite(a.offset)):
            problems.append(f"point {i} has scale {a.scale!r}, offset {a.offset!r}")
        if a.scale < 0.0 or a.offset < 0.0:
            problems.append(f"point {i} is negative: scale {a.scale!r}, offset {a.offset!r}")
    *arms, zero, one = probe_returns(event)
    if lower_expectation(after, zero) != 0.0:
        problems.append(f"constant 0 evaluates to {lower_expectation(after, zero)!r}")
    if abs(lower_expectation(after, one) - 1.0) > 1e-9:
        problems.append(f"constant 1 evaluates to {lower_expectation(after, one)!r}")
    if len(after.points) > len(before.points):
        problems.append(f"belief grew from {len(before.points)} to {len(after.points)} points")
    for name, f in [*((f"arm {k}", f) for k, f in enumerate(arms)), ("0", zero), ("1", one)]:
        got, want = lower_expectation(after, f), lower_expectation(reference, f)
        if got != want:
            problems.append(f"lower expectation of {name} is {got!r}, reference {want!r}")
    return problems


@pytest.fixture
def checked(monkeypatch):
    """Wrap every run of blocks, every observation and every agent
    ``condition`` call with the invariant checks. The driver steps every
    episode of every block in lockstep, so each unit (experiment, agent,
    episode) keeps its own reference trajectory and step count, found
    through the state it observes from; returns the conditioning counts per
    unit, in block order. The driver observes only when a later step of
    the episode reads the successor, so a unit of ``steps`` steps that
    completes conditions ``steps - 1`` times."""
    units = {}  # id(state) -> (state, unit); the state is kept so ids stay unique
    current = {}
    steps = []
    run_blocks = ibrl.harness.runner._run_blocks
    observe = ibrl.harness.runner.ib_observe

    def tracked_run_blocks(cfg, blocks, *args, **kwargs):
        block_units = []
        for label, block in blocks:
            for episode, state, *_ in block:
                unit = dict(experiment=cfg.experiment, agent=label, episode=episode, step=0)
                unit["reference"] = state.belief
                units[id(state)] = state, unit
                block_units.append(unit)
        out = run_blocks(cfg, blocks, *args, **kwargs)
        steps.extend(unit["step"] for unit in block_units)
        return out

    def tracked_observe(state, *args):
        unit = current["unit"] = units[id(state)][1]
        successor = observe(state, *args)
        units[id(successor)] = successor, unit
        return successor

    def checked_condition(psi, event):
        # Looked up per call, so a test may wrap ``ibrl.updates.condition``.
        where = current["unit"]
        after = ibrl.updates.condition(psi, event)
        where["reference"] = reference = reference_condition(where["reference"], event)
        problems = invariant_violations(psi, after, reference, event)
        if problems:
            pytest.fail(
                f"{where['experiment']}: agent {where['agent']!r}, episode {where['episode']}, "
                f"step {where['step']}: " + "; ".join(problems)
            )
        where["step"] += 1
        return after

    monkeypatch.setattr(ibrl.harness.runner, "_run_blocks", tracked_run_blocks)
    monkeypatch.setattr(ibrl.harness.runner, "ib_observe", tracked_observe)
    monkeypatch.setattr(ibrl.agents, "condition", checked_condition)
    return steps


@pytest.mark.parametrize("steps", [2000, pytest.param(10000, marks=pytest.mark.slow)])
def test_ku_per_step_random_keeps_its_invariants(checked, steps):
    """The seed-7 repro whose p2 = 0.8 corners used to overflow to ``inf``."""
    cfg = ExperimentConfig(
        "ku-bandit",
        seed=7,
        settings={"steps": steps, "env.mode": "per_step_random", "agents": "ib"},
    )
    run_experiment(cfg)
    assert checked == [steps - 1]


@pytest.mark.slow
def test_trap_ib_keeps_its_invariants(checked):
    """Seed 178 meets a catastrophe at step 0 of run 0, which leaves the
    refuted safe point at zero scale and offset exactly 1; at step 19 the
    degenerate-span fallback drops it."""
    cfg = ExperimentConfig(
        "trap-bandit",
        seed=178,
        settings={"env.horizon": 5000, "env.runs": 2, "agents": "ib"},
    )
    run_experiment(cfg)
    assert checked == [4999, 4999]


def test_checker_names_the_failing_step(checked, monkeypatch):
    """A conditioning that shifts every offset is reported with its
    experiment, agent, episode and step."""
    calls = []
    condition = ibrl.updates.condition

    def shifting_condition(psi, event):
        calls.append(None)
        psi = condition(psi, event)
        if len(calls) < 4:
            return psi
        shifted = tuple(AMeasure(a.scale, a.measure, a.offset + 0.5, a.model) for a in psi.points)
        return Infradistribution(shifted, psi.history)

    monkeypatch.setattr(ibrl.updates, "condition", shifting_condition)
    cfg = ExperimentConfig(
        "ku-bandit", seed=7, settings={"steps": 10, "env.mode": "per_step_random", "agents": "ib"}
    )
    with pytest.raises(pytest.fail.Exception, match="ku-bandit: agent 'ib', episode 0, step 3: "):
        run_experiment(cfg)

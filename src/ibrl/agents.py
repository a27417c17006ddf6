"""Decision layer: policy grids, robust policy values, action selection, and
belief maintenance for the agent flavors.

An agent carries a belief (a finite point set over one world model), one
return function built from its reward convention, and a dedicated random
stream used only for tie-breaking and action sampling. The return function
is what the agent maximizes and, on bandits, what conditioning credits to
the branches an observation rules out. The maximin flavor scores a policy
by the lower expectation of its return with the worst case taken against
the full mixed policy, then picks the argmax with uniform random
tie-breaking. Every candidate is scored in one value pass per step: each
belief point values the grid's whole (policies, actions) probability matrix
in one world-model call, and the minimum over points is taken per policy.
The greedy classical flavor is this agent on a single-point belief: its one
point has scale 1 and offset 0, so on the one-hot bandit grid a policy's
value is its arm's posterior-predictive expected return, and greedy selects
through ``select_policy`` and ``act`` as the maximin flavor does. That is
the classical-recovery property the test suite pins down. Only Thompson
sampling selects an arm directly, through ``bayes_select``.

Observation handling differs by flavor: the maximin flavor runs the full
conditioning pipeline of ``updates.condition`` (restrict, renormalize, prune,
and the handling of observations that refute some points) on an event;
classical flavors keep their points and pass the validated ``(arm, outcome)``
pair to ``WorldModel.next_history``, an ordinary Bayes update. A maximin bandit
agent's events are fixed by its return function, so ``make_agent`` builds
them once, one per ``(arm, outcome)``, and every observation reuses one.

Both ``select_policy`` and ``ib_observe`` are pure functions of an immutable
``AgentState``, so ``select_policy`` memoizes the tied candidates of its last
value pass on the state it is given, keyed by the identity of the grid. A
reused state, as every one-step Newcomb episode of a cell reuses its cell's
state, pays for one value pass. A hit still draws the tie-break from the
stream whenever several policies tie, so RNG use is unchanged. A bandit
successor that keeps its state's very tuple of history-free points (a
converged Knightian belief, a classical corner agent with no arm at 0 or 1)
shares the state's memo. Its tie hit needs no check:
the value pass that stored the entry checked the history's shape,
``next_history`` on a validated indicator keeps that shape, and no history
of it refutes a history-free point. Successors are built by ``_successor``
without re-running ``__init__``.

Nothing in a state is per run but its stream and its memo, so runs of one
agent may share a belief, return function and events, and be stepped in
lockstep: the harness steps every run of every trap roster entry together
and warms all the roster's joint measures in one pass per step
(``worldmodels``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractViolationError, RepresentationError
from .inframeasure import VALUE_TOL, Infradistribution, _belief, lower_expectations
from .updates import condition
from .worldmodels import BanditModel, NewcombModel, ObservationEvent, ReturnFunction, WorldModel


@dataclass(frozen=True)
class Policy:
    """A distribution over actions; entry 0 is the one-boxing or arm-1
    probability in two-action problems.

    ``deterministic_action`` is the action a one-hot policy always takes
    (``None`` otherwise), computed once; it stays out of ``==``, ``hash``
    and ``repr``."""

    action_probs: tuple[float, ...]
    deterministic_action: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.action_probs)
        if p.size == 0 or not (p.min() >= -VALUE_TOL and abs(p.sum() - 1.0) <= VALUE_TOL):
            raise ConfigError("policy probabilities must be nonnegative and sum to 1")
        top = int(np.argmax(self.action_probs))
        det = top if self.action_probs[top] >= 1.0 - 1e-12 else None
        object.__setattr__(self, "deterministic_action", det)


@dataclass(frozen=True)
class PolicyGrid:
    """Finite candidate policy set; always contains every deterministic
    policy. ``probs`` is its (policies, actions) probability matrix, built
    once and read-only."""

    policies: tuple[Policy, ...]
    probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigError("policy grid is empty")
        probs = np.array([p.action_probs for p in self.policies])
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)


def policy_grid(action_count: int, step: float) -> PolicyGrid:
    """Candidate policies at the given resolution.

    For two actions this is the grid {0, step, 2 step, ..., 1} of entry-0
    probabilities with both endpoints always included. For more actions only
    the deterministic (one-hot) policies are enumerated."""
    if action_count < 2:
        raise ConfigError("need at least two actions")
    if not 0.0 < step <= 1.0:
        raise ConfigError("grid step must lie in (0, 1]")
    if action_count > 2:
        return deterministic_grid(action_count)
    n = round(1.0 / step)
    if abs(n * step - 1.0) <= VALUE_TOL:
        ps = [i / n for i in range(n + 1)]
    else:
        ps = [i * step for i in range(int(np.floor(1.0 / step)) + 1)]
        if abs(ps[-1] - 1.0) > VALUE_TOL:
            ps.append(1.0)
    return PolicyGrid(tuple(Policy((p, 1.0 - p)) for p in ps))


def deterministic_grid(action_count: int) -> PolicyGrid:
    """One-hot policies in action order; the candidate set used for bandit
    experiments, where only deterministic policies are optimized."""
    policies = []
    for action in range(action_count):
        probs = [0.0] * action_count
        probs[action] = 1.0
        policies.append(Policy(tuple(probs)))
    return PolicyGrid(tuple(policies))


@dataclass(frozen=True)
class AgentState:
    """Belief plus return function plus the agent's private random stream.

    ``returns`` is the agent's one return function, built by ``make_agent``:
    every policy is scored on it, Thompson selection reads its ``values``
    table, and on bandits it is the off-branch return of every observation.
    It compares by identity, so it stays out of ``==``. ``raw_support`` maps
    environment rewards to outcome indices. ``events[arm][outcome]`` is a
    maximin bandit agent's observation event for that pair, built once by
    ``make_agent`` with ``returns`` as its off-branch return (``None`` for
    every other agent); it stays out of ``==`` and ``repr``. Updates are
    functional: each observation returns a new state sharing the same
    stream, ``returns`` and ``events``.

    ``memo`` caches the work of ``select_policy`` on this state: ``"ties"``
    holds ``(grid, tied indices)`` of the last value pass. It is a cache,
    not state: it stays out of ``==``, ``hash`` and ``repr``, no caller can
    plant an entry, and only a successor that ``ib_observe`` builds on the
    same history-free points shares it."""

    belief: Infradistribution
    rng: np.random.Generator
    flavor: str
    returns: ReturnFunction = field(compare=False)
    raw_support: tuple[float, ...] = (0.0, 1.0)
    events: tuple[tuple[ObservationEvent, ...], ...] | None = field(
        default=None, repr=False, compare=False
    )
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def model(self) -> WorldModel:
        return self.belief.model


def make_agent(
    belief: Infradistribution,
    rng: np.random.Generator,
    flavor: str = "ib_maximin",
    reward_values: np.ndarray | None = None,
    raw_support: Sequence[float] = (0.0, 1.0),
) -> AgentState:
    """Build an agent and its one return function: on bandits from the
    required, nonnegative (arm, outcome) table ``reward_values`` (shift the
    environment's rewards first if needed), on Newcomb from the model's own
    reward matrix. A Newcomb agent is ``ib_maximin`` only and takes no
    reward table; a bandit agent has one ``raw_support`` reward per outcome.
    Anything else raises ``ConfigError`` here rather than at its first step.
    A maximin bandit agent also gets its table of observation events; a
    classical one needs one point at scale 1 and offset 0, on which greedy's
    policy values are its arm values (else ``ContractViolationError``)."""
    if flavor not in ("ib_maximin", "bayes_greedy", "bayes_thompson"):
        raise ConfigError(f"unknown agent flavor {flavor!r}")
    model = belief.model
    events = None
    if isinstance(model, NewcombModel):
        if flavor != "ib_maximin":
            raise ConfigError(f"a Newcomb agent is ib_maximin, not {flavor!r}")
        if reward_values is not None:
            raise ConfigError("a Newcomb agent takes its returns from the model's reward matrix")
        returns = model.policy_return(0.5)
    elif isinstance(model, BanditModel):
        if reward_values is None:
            raise ConfigError("a bandit agent needs a reward table")
        uniform = np.full(model.arm_count, 1.0 / model.arm_count)
        returns = model.policy_return(uniform, reward_values)
        if returns.f_min < 0.0:
            raise ConfigError("reward convention must be nonnegative; shift it first")
        if len(raw_support) != model.outcome_count:
            raise ConfigError(f"raw_support needs one reward per outcome ({model.outcome_count})")
        if flavor == "ib_maximin":
            events = tuple(
                tuple(model.observation(arm, o, returns) for o in range(model.outcome_count))
                for arm in range(model.arm_count)
            )
        elif [(a.scale, a.offset) for a in belief.points] != [(1.0, 0.0)]:
            raise ContractViolationError("classical agents need one point at scale 1, offset 0")
    else:
        raise RepresentationError(f"{type(model).__name__} has no policy-dependent returns")
    return AgentState(
        belief=belief,
        rng=rng,
        flavor=flavor,
        returns=returns,
        raw_support=tuple(float(r) for r in raw_support),
        events=events,
    )


def select_policy(state: AgentState, grid: PolicyGrid) -> Policy:
    """Argmax of the robust policy value over the grid; policies within
    1e-9 of the best are treated as tied and drawn uniformly from the
    agent's stream. The tied indices are memoized per grid, the draw is
    not; a hit needs no check (module docstring)."""
    hit = state.memo.get("ties")
    if hit is not None and hit[0] is grid:
        candidates = hit[1]
    else:
        values = lower_expectations(state.belief, state.returns, grid.probs).tolist()
        best = max(values)
        candidates = [i for i, v in enumerate(values) if v >= best - VALUE_TOL]
        state.memo["ties"] = (grid, candidates)
    if len(candidates) == 1:
        return grid.policies[candidates[0]]
    return grid.policies[candidates[int(state.rng.integers(len(candidates)))]]


def act(policy: Policy, rng: np.random.Generator) -> int:
    """Sample an action. Deterministic policies consume no randomness."""
    det = policy.deterministic_action
    if det is not None:
        return det
    if len(policy.action_probs) == 2:
        return 0 if rng.random() < policy.action_probs[0] else 1
    return int(rng.choice(len(policy.action_probs), p=np.asarray(policy.action_probs)))


def ib_observe(state: AgentState, action: int, reward: float) -> AgentState:
    """Fold one observation into the belief.

    The maximin flavor conditions fully through ``updates.condition`` on
    its prebuilt event for the validated ``(action, outcome)`` pair;
    conditioning also drops points the observation refutes when they would
    make renormalization degenerate. Classical flavors keep the points and
    advance the belief's history only, with no event, which realizes the
    ordinary Bayes posterior through the world model's predictive
    reweighting. A reward that is not a finite number raises ``ConfigError``;
    an arm that is not an in-range ``int`` raises ``RepresentationError``.
    A Newcomb observation ignores the action and the reward."""
    if not math.isfinite(reward):
        raise ConfigError(f"reward {reward!r} is not a finite number")
    psi = state.belief
    model = psi.points[0].model
    if type(model) is NewcombModel:  # never subclassed; skips ABCMeta's isinstance
        return _successor(state, condition(psi, model.observation()), {})
    try:
        outcome = state.raw_support.index(reward)
    except ValueError:
        diffs = [abs(reward - r) for r in state.raw_support]
        outcome = diffs.index(min(diffs))
        if diffs[outcome] > 1e-9:
            raise ConfigError(f"reward {reward!r} is not in the agent's support")
    model.validate_indicator((action, outcome))
    if state.flavor == "ib_maximin":
        event = state.events[action][outcome]
        belief = condition(psi, event)
        fixed = event.fixed_set
    else:
        points = psi.points
        belief = _belief(points, model.next_history(psi.history, (action, outcome)))
        fixed = points if points[0].measure.history_free else None
    return _successor(state, belief, state.memo if belief.points is fixed else {})


def _successor(state: AgentState, belief: Infradistribution, memo: dict) -> AgentState:
    """``state`` with ``belief`` and ``memo``, built as ``_point`` builds a
    point: the fields are copied into the new instance's ``__dict__``, where
    ``__init__`` puts them, and nothing is re-run. Every successor state is
    built here."""
    successor = object.__new__(AgentState)
    fields = successor.__dict__
    fields.update(state.__dict__)
    fields["belief"], fields["memo"] = belief, memo
    return successor


def bayes_select(state: AgentState) -> int:
    """Thompson sampling's arm: one hypothesis component is sampled per arm
    (one joint hypothesis on the joint model) proportional to posterior
    weight, and the arm of best expected return under the sample is taken.
    Ties within 1e-9 are broken uniformly from the agent's stream. Greedy
    selects through ``select_policy``; any flavor but ``bayes_thompson``
    raises ``ContractViolationError``."""
    if state.flavor != "bayes_thompson":
        raise ContractViolationError(f"bayes_select is Thompson sampling, not {state.flavor!r}")
    measure, history = state.belief.points[0].measure, state.belief.history
    values = state.model.sampled_action_values(measure, history, state.returns.values, state.rng)
    values = values.tolist()
    best = max(values)
    candidates = [i for i, v in enumerate(values) if v >= best - VALUE_TOL]
    if len(candidates) == 1:
        return candidates[0]
    return candidates[int(state.rng.integers(len(candidates)))]

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
Classical flavors (greedy and Thompson sampling) score arms by
posterior-predictive expected return on a single-point belief; a maximin
agent whose belief is a single point makes identical choices, which is the
classical-recovery property the test suite pins down.

Observation handling differs by flavor: the maximin flavor runs the full
conditioning pipeline of ``updates.condition`` (restrict, renormalize,
prune, and the handling of observations that refute some points), while
classical flavors keep their points and advance the belief's one history
through ``WorldModel.next_history``, which is an ordinary Bayes update under
the hood.

Both ``select_policy`` and ``ib_observe`` are pure functions of an immutable
``AgentState``, so each memoizes its work on the state it is given: the tied
candidates of the last value pass, keyed by the identity of the grid, and
the successor belief of each observed ``(action, reward)`` (one successor
in all on Newcomb, whose observation ignores both).
A reused state, as every Newcomb episode reuses its cell's state, pays for
one value pass and one conditioning per Newcomb cell. A hit still draws the
tie-break from the stream whenever several policies tie, so RNG use is
unchanged. Observations that raise are never stored, and successor states
are not stored either, so the memo never chains a rollout's states
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, ContractViolationError, RepresentationError
from .inframeasure import VALUE_TOL, Infradistribution, lower_expectations
from .updates import condition
from .worldmodels import BanditModel, NewcombModel, ObservationEvent, ReturnFunction, WorldModel


@dataclass(frozen=True)
class Policy:
    """A distribution over actions; entry 0 is the one-boxing or arm-1
    probability in two-action problems."""

    action_probs: tuple[float, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.action_probs)
        if p.size == 0 or p.min() < -VALUE_TOL or abs(p.sum() - 1.0) > VALUE_TOL:
            raise ConfigError("policy probabilities must be nonnegative and sum to 1")

    @property
    def deterministic_action(self) -> int | None:
        top = int(np.argmax(self.action_probs))
        if self.action_probs[top] >= 1.0 - 1e-12:
            return top
        return None


@dataclass(frozen=True)
class PolicyGrid:
    """Finite candidate policy set; always contains every deterministic
    policy. ``probs`` is its (policies, actions) probability matrix, built
    once."""

    policies: tuple[Policy, ...]
    probs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.policies:
            raise ConfigError("policy grid is empty")
        object.__setattr__(self, "probs", np.array([p.action_probs for p in self.policies]))


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
    every policy is scored on it, classical selection reads its ``values``
    table, and on bandits it is the off-branch return of every observation.
    It compares by identity, so it stays out of ``==``. ``raw_support`` maps
    environment rewards to outcome indices. Updates are functional: each
    observation returns a new state sharing the same stream and ``returns``.

    ``memo`` caches the work of ``select_policy`` and ``ib_observe`` on this
    state: ``"ties"`` holds ``(grid, tied indices)`` of the last value pass,
    and each observed ``(action, reward)`` (the key ``"newcomb"`` on
    Newcomb) maps to its successor belief. It is a cache, not state: it
    stays out of ``==``, ``hash``, ``repr`` and serialization, and every
    successor starts with an empty one."""

    belief: Infradistribution
    rng: np.random.Generator
    flavor: str
    returns: ReturnFunction = field(compare=False)
    raw_support: tuple[float, ...] = (0.0, 1.0)
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
    reward table; anything else raises ``ConfigError`` here rather than at
    its first step."""
    if flavor not in ("ib_maximin", "bayes_greedy", "bayes_thompson"):
        raise ConfigError(f"unknown agent flavor {flavor!r}")
    model = belief.model
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
    else:
        raise RepresentationError(f"{type(model).__name__} has no policy-dependent returns")
    return AgentState(
        belief=belief,
        rng=rng,
        flavor=flavor,
        returns=returns,
        raw_support=tuple(float(r) for r in raw_support),
    )


def policy_value(state: AgentState, policy: Policy) -> float:
    """Robust value of one policy: the lower expectation of the agent's
    return, with the worst case taken against the full mixed policy (the
    return function is mixed by the action probabilities first, then the
    minimum over points is taken). This is the one-row case of
    ``select_policy``'s value pass."""
    probs = np.array([policy.action_probs])
    return float(lower_expectations(state.belief, state.returns, probs)[0])


def select_policy(state: AgentState, grid: PolicyGrid) -> Policy:
    """Argmax of the robust policy value over the grid; policies within
    1e-9 of the best are treated as tied and drawn uniformly from the
    agent's stream. The tied indices are memoized on the state per grid; the
    draw is not."""
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


def _observation_event(state: AgentState, action: int, reward: float) -> ObservationEvent:
    model = state.model
    if isinstance(model, NewcombModel):
        return model.observation()
    diffs = [abs(reward - r) for r in state.raw_support]
    outcome = min(range(len(diffs)), key=diffs.__getitem__)
    if diffs[outcome] > 1e-9:
        raise ConfigError(f"reward {reward!r} is not in the agent's support")
    return model.observation(action, outcome, state.returns)


def ib_observe(state: AgentState, action: int, reward: float) -> AgentState:
    """Fold one observation into the belief.

    The maximin flavor conditions fully through ``updates.condition``, which
    also drops points the observation refutes when they would make
    renormalization degenerate. Classical flavors keep the points and
    advance the belief's history only, which realizes the ordinary Bayes
    posterior through the world model's predictive reweighting. A reward
    that is not a finite number raises ``ConfigError``.

    The successor belief is memoized on ``state`` by ``(action, reward)``,
    or by one constant key on Newcomb, whose observation ignores both. An
    observation that raises is not stored, so it raises on every call."""
    if not math.isfinite(reward):
        raise ConfigError(f"reward {reward!r} is not a finite number")
    key = "newcomb" if isinstance(state.model, NewcombModel) else (action, reward)
    belief = state.memo.get(key)
    if belief is None:
        event = _observation_event(state, action, reward)
        if state.flavor == "ib_maximin":
            belief = condition(state.belief, event)
        else:
            history = state.model.next_history(state.belief.history, event)
            belief = Infradistribution(state.belief.points, history)
        state.memo[key] = belief
    return AgentState(belief, state.rng, state.flavor, state.returns, state.raw_support)


def bayes_select(state: AgentState) -> int:
    """Classical action selection on a single-point belief.

    ``bayes_thompson`` samples hypothesis components proportional to
    posterior weight and is greedy for the sample; every other flavor takes
    the argmax of posterior-predictive expected return per arm. Ties within
    1e-9 are broken uniformly from the agent's stream."""
    if len(state.belief.points) != 1:
        raise ContractViolationError(
            "classical selection requires a single-point (classical) belief"
        )
    measure, history = state.belief.points[0].measure, state.belief.history
    table = state.returns.values
    if state.flavor == "bayes_thompson":
        values = state.model.sampled_action_values(measure, history, table, state.rng)
    else:
        values = state.model.expected_action_values(measure, history, table)
    best = float(np.max(values))
    candidates = [i for i, v in enumerate(values) if v >= best - VALUE_TOL]
    if len(candidates) == 1:
        return candidates[0]
    return candidates[int(state.rng.integers(len(candidates)))]

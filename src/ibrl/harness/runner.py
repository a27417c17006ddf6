"""Experiment orchestration: seeded rollouts producing run records.

Every experiment runs the same loop, ``_rollout``, on blocks: a block is
every episode of one agent label, stepped in lockstep. Per step and episode
the agent selects a policy (a Thompson agent selects an arm directly),
samples an action, the environment resolves the step, the step is recorded,
and the observation is folded back into the agent's belief. Experiments
differ only in their belief builders, stream keys and a small
environment-step closure. A trap roster entry builds its belief, return
function and events once, and before each step one batch per joint measure
computes every live run's posterior and arm values.
A Newcomb episode is a one-step rollout from its cell's initial belief, with
the cell's agent and environment streams shared across episodes; this is
exact because conditioning on a Newcomb observation is the identity. Every
episode of a cell starts from the same ``AgentState``, on which the agent
memoizes its tied candidates and its successor belief, so a cell runs one
value pass and one conditioning, while each tied selection still draws from
the cell's agent stream. What does not depend on the cell is built once per
sweep (the candidate policy grid), and what does not depend on the episode
once per cell (every candidate's reward moments, in one array pass).

All randomness flows through named streams derived from
``(seed, unit indices, role)``, so any run unit can be reproduced in
isolation and the full record list is a pure function of (config, seed).
Every environment step consumes a fixed count of uniforms, so each unit
reads its environment stream through a ``BlockSource`` of its exact total,
drawn a block at a time with the bits of one scalar draw each.
Units are independent, which would let a scheduler fan them out, and a
block's episodes draw exactly what they would draw one after another. If
units fail, the config raises the failure of the unit that comes first in
sequential order (setting, run, then agent; cell, then episode). Records
are emitted in canonical (agent, episode, step) order.

Environment streams are keyed without an agent index: agents compared within
one experiment face identical sampled worlds (common random numbers). The
classical-recovery experiment goes further and shares the agent stream too,
so tie-breaks match draw for draw between the two compared agents.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..agents import (
    AgentState,
    Policy,
    PolicyGrid,
    act,
    bayes_select,
    deterministic_grid,
    ib_observe,
    make_agent,
    policy_grid,
    select_policy,
)
from ..environments import (
    KU_MODES,
    KUBanditConfig,
    TrapWorldConfig,
    bernoulli_step,
    ku_step,
    newcomb_step,
    trap_expected_rewards,
    trap_sample_world,
    trap_step,
)
from ..errors import ConfigError, ContractViolationError, DegenerateUpdateError
from ..inframeasure import AMeasure, Infradistribution, mix_knightian
from ..worldmodels import (
    STATELESS,
    BernoulliArmsModel,
    JointHypothesisBanditModel,
    NewcombModel,
    newcomb_reward_moments,
)
from .config import ExperimentConfig, check_settings

# Role codes appended to stream keys so no two purposes share a stream.
ENV_STREAM = 0
AGENT_STREAM = 1
BOOT_STREAM = 2


# Uniforms an environment stream draws per ``Generator.random`` call.
ENV_BLOCK = 1024


def derive_stream(*keys: int) -> np.random.Generator:
    """Independent generator for a named unit of work."""
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


class BlockSource:
    """A unit's environment stream, read a block at a time: ``random()``
    returns what ``count`` scalar ``rng.random()`` calls would, in order,
    drawn lazily as ``rng.random(k)`` blocks of at most ``ENV_BLOCK`` (on
    PCG64 the same bits) and one block held at a time. The last block stops
    at ``count``, so a stream read to its end is left in the state those
    calls leave; reading past it raises ``ContractViolationError``."""

    __slots__ = ("random",)

    def __init__(self, rng: np.random.Generator, count: int) -> None:
        self.random = _uniforms(rng, count).__next__


def _uniforms(rng: np.random.Generator, count: int):
    left = count
    while left > 0:
        k = min(left, ENV_BLOCK)
        left -= k
        yield from rng.random(k).tolist()
    raise ContractViolationError(f"environment stream read past its {count} uniforms")


class RunRecord(NamedTuple):
    """One step of one rollout; the row format of every emitted CSV.

    A named tuple, so it is cheap to build and its fields are the CSV
    columns in order. It is immutable and compares equal to the plain tuple
    of its values."""

    experiment: str
    agent: str
    seed: int
    episode: int
    step: int
    action: int
    reward: float
    exp_regret: float
    cum_regret: float
    cum_exp_regret: float


# ---------------------------------------------------------------------------
# Settings access
# ---------------------------------------------------------------------------


def _int_setting(cfg: ExperimentConfig, key: str, default: int, minimum: int = 1) -> int:
    value = cfg.setting(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {key!r}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"field {key!r}: must be at least {minimum}, got {value}")
    return value


def _float_setting(cfg: ExperimentConfig, key: str, default: float) -> float:
    value = cfg.setting(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field {key!r}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"field {key!r}: must be finite, got {value!r}")
    return float(value)


def _str_setting(cfg: ExperimentConfig, key: str, default: str) -> str:
    value = cfg.setting(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"field {key!r}: expected a name, got {value!r}")
    return value


def _pair_setting(cfg: ExperimentConfig, key: str, default: tuple[float, float]) -> tuple[float, float]:
    value = cfg.setting(key, default)
    if not isinstance(value, tuple) or len(value) != 2:
        raise ConfigError(f"field {key!r}: expected two comma-separated numbers")
    try:
        return float(value[0]), float(value[1])
    except (TypeError, ValueError):
        raise ConfigError(f"field {key!r}: expected two comma-separated numbers") from None


def _numbered_pairs(
    cfg: ExperimentConfig, prefix: str, default: tuple[tuple[float, float], ...]
) -> tuple[tuple[float, float], ...]:
    """Collect the probability pairs of keys ``<prefix>1, <prefix>2, ...``
    in numeric order; two keys of one number (``1`` and ``01``) raise."""
    pattern = re.compile(re.escape(prefix) + r"(\d+)$")
    found: dict[int, tuple[str, tuple[float, float]]] = {}
    for key in cfg.settings:
        match = pattern.match(key)
        if match:
            index, pair = int(match.group(1)), _pair_setting(cfg, key, (0.0, 0.0))
            if index in found:
                raise ConfigError(f"fields {found[index][0]!r} and {key!r} have the same number")
            if not all(0.0 <= p <= 1.0 for p in pair):
                raise ConfigError(f"field {key!r}: probabilities must lie in [0, 1]")
            found[index] = key, pair
    if not found:
        return default
    return tuple(found[i][1] for i in sorted(found))


def _roster(cfg: ExperimentConfig, default: tuple[str, ...]) -> tuple[str, ...]:
    value = cfg.setting("agents", default)
    if isinstance(value, str):
        value = (value,)
    if not isinstance(value, tuple) or not value or not all(isinstance(v, str) for v in value):
        raise ConfigError("field 'agents': expected a comma-separated list of agent names")
    return tuple(value)


# ---------------------------------------------------------------------------
# Belief builders (shared with the acceptance checks and demos)
# ---------------------------------------------------------------------------


def classical_belief(model, measure) -> Infradistribution:
    """Single-point belief: the classical Bayesian special case."""
    return Infradistribution.singleton(AMeasure(1.0, measure, 0.0, model), model.initial_history())


def ku_corners(intervals: Sequence[tuple[float, float]]) -> tuple[tuple[float, ...], ...]:
    """The four corners of a two-armed probability box, low-arm-1 first."""
    (lo1, hi1), (lo2, hi2) = intervals
    return ((lo1, lo2), (lo1, hi2), (hi1, lo2), (hi1, hi2))


def ku_knightian_belief(model: BernoulliArmsModel, intervals) -> Infradistribution:
    """Worst-case-over-corners belief for interval-valued arm probabilities.

    Each box corner is one point hypothesis; their Knightian combination
    evaluates every policy at its least favorable corner."""
    return mix_knightian(
        [classical_belief(model, model.point_measure(c)) for c in ku_corners(intervals)]
    )


def trap_support(env: TrapWorldConfig) -> tuple[tuple[float, ...], np.ndarray]:
    """Raw reward support (ascending) and its rescaling into [0, 1].

    Agents score policies on the rescaled values, which keeps returns
    nonnegative as conditioning requires; regret reporting stays in raw
    units. The rescaling is affine and increasing, so it never changes which
    arm is preferred."""
    raw = (env.catastrophe_reward, 0.0, 1.0)
    lo, hi = raw[0], raw[-1]
    scaled = np.array([(r - lo) / (hi - lo) for r in raw])
    return raw, scaled


def trap_hypothesis_tables(
    env: TrapWorldConfig,
) -> tuple[tuple[tuple[tuple[float, ...], ...], ...], tuple[tuple[tuple[float, ...], ...], ...]]:
    """Safe and risky outcome tables, one per configured probability pair.

    Outcome order matches the raw support (catastrophe, 0, 1). Safe arms
    never produce the catastrophe outcome; in a risky hypothesis the arm
    with the larger success probability yields it with ``p_cat``."""
    safe, risky = [], []
    for pair in env.arm_pairs:
        trap_arm = int(np.argmax(pair))
        safe_table, risky_table = [], []
        for arm, p in enumerate(pair):
            plain = (0.0, 1.0 - p, p)
            safe_table.append(plain)
            if arm == trap_arm:
                risky_table.append((env.p_cat, 1.0 - env.p_cat - p, p))
            else:
                risky_table.append(plain)
        safe.append(tuple(safe_table))
        risky.append(tuple(risky_table))
    return tuple(safe), tuple(risky)


def trap_model(env: TrapWorldConfig) -> tuple[JointHypothesisBanditModel, tuple[float, ...], np.ndarray]:
    """World model plus the agent-side reward convention for trap bandits."""
    raw, scaled = trap_support(env)
    model = JointHypothesisBanditModel(env.arm_count, len(raw))
    values = np.tile(scaled, (env.arm_count, 1))
    return model, raw, values


def trap_ib_belief(model: JointHypothesisBanditModel, env: TrapWorldConfig) -> Infradistribution:
    """Two-point belief for the robust trap agent.

    One point is the Bayesian mixture over safe worlds, the other the
    mixture over risky worlds; no prior weight connects them, so the agent
    evaluates every policy under whichever world type is worse for it."""
    safe_tables, risky_tables = trap_hypothesis_tables(env)
    n = len(env.arm_pairs)
    uniform = [1.0 / n] * n
    safe = classical_belief(model, model.measure(uniform, safe_tables))
    risky = classical_belief(model, model.measure(uniform, risky_tables))
    return mix_knightian([safe, risky])


def trap_bayes_belief(
    model: JointHypothesisBanditModel, env: TrapWorldConfig, alpha_prior: float
) -> Infradistribution:
    """Single-point belief with prior risky-world probability ``alpha_prior``."""
    if not 0.0 <= alpha_prior <= 1.0:
        raise ConfigError("prior risky-world probability must lie in [0, 1]")
    safe_tables, risky_tables = trap_hypothesis_tables(env)
    n = len(env.arm_pairs)
    weights = [(1.0 - alpha_prior) / n] * n + [alpha_prior / n] * n
    measure = model.measure(weights, safe_tables + risky_tables)
    return classical_belief(model, measure)

# ---------------------------------------------------------------------------
# The rollout loop
# ---------------------------------------------------------------------------


# One episode of a block: ``(episode, initial state, env_step, order,
# where)``. ``order`` is its place in its experiment's sequential loop and
# ``where`` follows the step in a failure's message. A plain tuple, because a
# Newcomb sweep builds one per episode.
Episode = tuple[
    int, AgentState, Callable[[Policy | None, int], tuple[float, float, float]], tuple[int, ...], str
]


def _rollout(
    cfg: ExperimentConfig,
    label: str,
    block: Sequence[Episode],
    candidates: PolicyGrid,
    steps: int,
    before_step: Callable[[list[AgentState]], None] | None = None,
) -> tuple[list[RunRecord], list[tuple[tuple[int, ...], DegenerateUpdateError]]]:
    """Run a block, episodes of agent ``label``, for ``steps`` steps in
    lockstep: each step calls ``before_step`` on the live episodes' states,
    then selects, acts, steps, records and observes per episode in block
    order. Episodes share a stream only when they run one step each, so the
    draws are those of running them one after another.

    Maximin and greedy agents score the ``candidates`` on their return
    function and sample an action from the chosen policy; Thompson agents
    pick an arm and pass ``None`` as the policy. ``env_step(policy,
    action)`` returns ``(reward, expected regret, realized regret)``. A
    degenerate update stops its episode only; it comes back as ``(order,
    error)``, the error naming the experiment, agent, episode and step,
    followed by ``where``. Records come back per episode, in block order."""
    # Per episode: [state, cumulative regret, cumulative expected regret,
    # records, episode]; a failure drops it from ``live``.
    slots = [[e[1], 0.0, 0.0, [], e] for e in block]
    failures = []
    live = slots
    experiment, seed = cfg.experiment, cfg.seed
    record = RunRecord._make  # skips the keyword handling of ``RunRecord(...)``
    for t in range(steps):
        if before_step is not None:
            before_step([slot[0] for slot in live])
        stopped = []
        for slot in live:
            state, cum_reg, cum_exp, rows, e = slot
            try:
                if state.flavor == "bayes_thompson":
                    policy = None
                    action = bayes_select(state)
                else:
                    policy = select_policy(state, candidates)
                    action = act(policy, state.rng)
                reward, step_exp, step_reg = e[2](policy, action)
                slot[1] = cum_reg = cum_reg + step_reg
                slot[2] = cum_exp = cum_exp + step_exp
                row = experiment, label, seed, e[0], t, action, reward, step_exp, cum_reg, cum_exp
                rows.append(record(row))
                slot[0] = ib_observe(state, action, reward)
            except DegenerateUpdateError as exc:
                error = DegenerateUpdateError(
                    f"{experiment}: agent {label!r}, episode {e[0]}, step {t}{e[4]}: {exc}"
                )
                error.__cause__ = exc
                failures.append((e[3], error))
                stopped.append(id(slot))
        if stopped:
            live = [slot for slot in live if id(slot) not in stopped]
    return [rec for slot in slots for rec in slot[3]], failures


def _run_blocks(cfg, blocks, candidates, steps, before_step=None) -> list[RunRecord]:
    """Roll out each ``(label, block)`` in turn; if episodes failed, raise
    the failure the sequential loop would have reached first."""
    records: list[RunRecord] = []
    failures = []
    for label, block in blocks:
        block_records, block_failures = _rollout(cfg, label, block, candidates, steps, before_step)
        records += block_records
        failures += block_failures
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return records


def _warm_joint_posteriors(states: list[AgentState]) -> None:
    """Warm every joint measure of a trap block's live episodes, once per
    step, with all their histories: posteriors, and arm values under the
    block's one return function unless its agents sample (Thompson)."""
    if states:
        first = states[0]
        values = None if first.flavor == "bayes_thompson" else first.returns.values
        histories = [state.belief.history for state in states]
        measures = {id(a.measure): a.measure for state in states for a in state.belief.points}
        for measure in measures.values():
            first.model.warm(measure, histories, values)


# ---------------------------------------------------------------------------
# Per-experiment runners
# ---------------------------------------------------------------------------

_VALIDATE_KEYS = {
    "steps": "steps per run (default 500)",
    "runs": "independent runs per setting (default 10)",
    "grid.points": "hypothesis grid size on [0, 1] (default 11)",
    "setting.": "true (p1, p2) pairs, numbered setting.1, setting.2, ...",
}

DEFAULT_VALIDATE_PAIRS = ((0.3, 0.7), (0.8, 0.2), (0.55, 0.45), (0.5, 0.5))


def _run_validate_classical(cfg: ExperimentConfig) -> list[RunRecord]:
    check_settings(cfg, _VALIDATE_KEYS)
    steps = _int_setting(cfg, "steps", 500)
    runs = _int_setting(cfg, "runs", 10)
    grid_points = _int_setting(cfg, "grid.points", 11, minimum=2)
    pairs = _numbered_pairs(cfg, "setting.", DEFAULT_VALIDATE_PAIRS)

    model = BernoulliArmsModel(2)
    grid = np.linspace(0.0, 1.0, grid_points)
    values = np.array([[0.0, 1.0], [0.0, 1.0]])
    candidates = deterministic_grid(2)

    blocks: list[tuple[str, list[Episode]]] = [("ib_single", []), ("bayes", [])]
    for s, pair in enumerate(pairs):
        exp_rewards = np.asarray(pair, dtype=float)
        best = float(exp_rewards.max())
        regrets = (exp_rewards.max() - exp_rewards).tolist()
        for r in range(runs):
            for ai, flavor in enumerate(("ib_maximin", "bayes_greedy")):
                # Both agents get byte-identical environment AND agent
                # streams: matched seeds are the point of this experiment.
                env_rng = BlockSource(derive_stream(cfg.seed, s, r, ENV_STREAM), steps)
                agent_rng = derive_stream(cfg.seed, s, r, AGENT_STREAM)
                state = make_agent(
                    classical_belief(model, model.grid_measure(grid)),
                    agent_rng,
                    flavor,
                    values,
                )

                # Defaults bind this episode's values: the step runs later.
                def env_step(policy, action, pair=pair, rng=env_rng, regrets=regrets, best=best):
                    reward = float(bernoulli_step(pair[action], rng))
                    return reward, regrets[action], best - reward

                blocks[ai][1].append((s * runs + r, state, env_step, (s, r, ai), ""))
    return _run_blocks(cfg, blocks, candidates, steps)


_KU_KEYS = {
    "steps": "steps per run (default 100)",
    "runs": "independent runs (default 1)",
    "env.arm1": "arm 1 probability interval (default 0.3, 0.7)",
    "env.arm2": "arm 2 probability interval (default 0.4, 0.8)",
    "env.mode": "adversary mode (default worst_case_vs_agent)",
    "env.point": "fixed (p1, p2) for fixed_point mode",
    "agents": "roster: 'ib' and/or 'corners' (default both)",
}


def _run_ku_bandit(cfg: ExperimentConfig) -> list[RunRecord]:
    check_settings(cfg, _KU_KEYS)
    steps = _int_setting(cfg, "steps", 100)
    runs = _int_setting(cfg, "runs", 1)
    intervals = (
        _pair_setting(cfg, "env.arm1", (0.3, 0.7)),
        _pair_setting(cfg, "env.arm2", (0.4, 0.8)),
    )
    for key, (lo, hi) in zip(("env.arm1", "env.arm2"), intervals):
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(f"field {key!r}: arm intervals must be ordered and lie in [0, 1]")
    mode = _str_setting(cfg, "env.mode", "worst_case_vs_agent")
    if mode not in KU_MODES:
        raise ConfigError(f"field 'env.mode': unknown adversary mode {mode!r}")
    point = cfg.setting("env.point", None)
    if point is not None:
        point = _pair_setting(cfg, "env.point", (0.0, 0.0))
    try:
        env = KUBanditConfig(intervals=intervals, mode=mode, fixed_point=point)
    except ConfigError as exc:  # with the intervals and mode valid, only the point is left
        raise ConfigError(f"field 'env.point': {exc}") from None

    model = BernoulliArmsModel(2)
    values = np.array([[0.0, 1.0], [0.0, 1.0]])
    candidates = deterministic_grid(2)

    specs: list[tuple[str, str, tuple[float, float] | None]] = []
    for name in _roster(cfg, ("ib", "corners")):
        if name == "ib":
            specs.append(("ib", "ib_maximin", None))
        elif name == "corners":
            for corner in ku_corners(intervals):
                label = f"bayes_corner_{corner[0]:g}_{corner[1]:g}"
                specs.append((label, "bayes_greedy", corner))
        else:
            raise ConfigError(f"field 'agents': unknown agent {name!r} (use 'ib' or 'corners')")

    # One uniform per pull, after one per arm where the box is redrawn.
    draws = steps * (env.arm_count + 1 if mode == "per_step_random" else 1)
    blocks: list[tuple[str, list[Episode]]] = [(label, []) for label, _, _ in specs]
    for run in range(runs):
        for ai, (label, flavor, corner) in enumerate(specs):
            env_rng = BlockSource(derive_stream(cfg.seed, run, ENV_STREAM), draws)
            agent_rng = derive_stream(cfg.seed, run, AGENT_STREAM, ai)
            if flavor == "ib_maximin":
                belief = ku_knightian_belief(model, intervals)
            else:
                belief = classical_belief(model, model.point_measure(corner))
            state = make_agent(belief, agent_rng, flavor, values)

            # The default binds this episode's stream: the step runs later.
            def env_step(policy, action, rng=env_rng):
                reward, probs = ku_step(env, action, rng)
                best = max(probs)
                return float(reward), best - probs[action], best - reward

            blocks[ai][1].append((run, state, env_step, (run, ai), ""))
    return _run_blocks(cfg, blocks, candidates, steps)


_NEWCOMB_KEYS = {
    "episodes": "episodes per accuracy cell (default 1000)",
    "alpha.min": "sweep start (default 0.50)",
    "alpha.max": "sweep end (default 1.00)",
    "alpha.step": "sweep step (default 0.01)",
    "env.alpha": "single predictor accuracy (overrides the sweep)",
    "policy.step": "one-boxing probability grid step (default 0.1)",
    "matrix.onebox": "rewards for one-boxing vs (predicted one-box, predicted two-box)",
    "matrix.twobox": "rewards for two-boxing vs (predicted one-box, predicted two-box)",
}


@dataclass(frozen=True)
class NewcombCellSummary:
    """Per-accuracy aggregates used by reports and acceptance checks."""

    alpha: float
    selected_one_box_rate: float
    mean_reward: float
    mean_policy_value: float
    reward_se: float


def _newcomb_alphas(cfg: ExperimentConfig) -> tuple[float, ...]:
    if "env.alpha" in cfg.settings:
        alphas, keys = (round(_float_setting(cfg, "env.alpha", 0.5), 10),), ("env.alpha",)
    else:
        lo = _float_setting(cfg, "alpha.min", 0.50)
        hi = _float_setting(cfg, "alpha.max", 1.00)
        step = _float_setting(cfg, "alpha.step", 0.01)
        if step <= 0.0 or hi < lo:
            raise ConfigError("field 'alpha.*': need alpha.min <= alpha.max and alpha.step > 0")
        count = int(round((hi - lo) / step)) + 1
        alphas = tuple(round(lo + i * step, 10) for i in range(count))
        alphas, keys = tuple(a for a in alphas if a <= hi + 1e-12), ("alpha.min", "alpha.max")
    # The sweep ascends, so the models of its ends check every cell's accuracy.
    for key, alpha in zip(keys, alphas[:1] + alphas[-1:]):
        try:
            NewcombModel(accuracy=alpha)
        except ConfigError as exc:
            raise ConfigError(f"field {key!r}: {exc}") from None
    return alphas


def run_newcomb_sweep(
    cfg: ExperimentConfig,
) -> tuple[list[RunRecord], list[NewcombCellSummary]]:
    """Newcomb sweep returning both the per-episode records and per-cell
    aggregates (one-boxing rate, mean reward, analytic value and error)."""
    check_settings(cfg, _NEWCOMB_KEYS)
    episodes = _int_setting(cfg, "episodes", 1000)
    pstep = _float_setting(cfg, "policy.step", 0.1)
    matrix = (
        _pair_setting(cfg, "matrix.onebox", (10.0, 0.0)),
        _pair_setting(cfg, "matrix.twobox", (11.0, 1.0)),
    )
    for key, row in zip(("matrix.onebox", "matrix.twobox"), matrix):
        if not all(map(math.isfinite, row)):
            raise ConfigError(f"field {key!r}: reward matrix must be a finite 2x2 table")
    # One grid serves every cell: the agent's tie memo lives on each cell's
    # own state, keyed by the grid's identity.
    try:
        candidates = policy_grid(2, pstep)
    except ConfigError as exc:  # with two actions, only the step is left
        raise ConfigError(f"field 'policy.step': {exc}") from None
    alphas = _newcomb_alphas(cfg)

    records: list[RunRecord] = []
    summaries: list[NewcombCellSummary] = []
    for ci, alpha in enumerate(alphas):
        model = NewcombModel(reward_matrix=matrix, accuracy=alpha)
        env_rng = BlockSource(derive_stream(cfg.seed, ci, ENV_STREAM), episodes)
        agent_rng = derive_stream(cfg.seed, ci, AGENT_STREAM)
        # Conditioning on a Newcomb observation is the identity, so every
        # episode is a one-step rollout from this same initial state.
        state = make_agent(classical_belief(model, STATELESS), agent_rng, "ib_maximin")
        # Reward moments of every candidate, once per cell. The best mean is
        # taken over the same candidate values the agent compares, so the
        # regret column is exactly nonnegative.
        means, seconds = newcomb_reward_moments(candidates.probs[:, 0], model)
        moments = dict(zip(candidates.policies, zip(means.tolist(), seconds.tolist())))
        best = max(mean for mean, _ in moments.values())
        label = f"ib_alpha{alpha:.2f}"
        # Per episode: one-boxing probability, reward, and reward moments.
        episode_stats: list[tuple[float, float, float, float]] = []

        def env_step(policy, action):
            p_star = policy.action_probs[0]
            reward = newcomb_step(model, p_star, action, env_rng)
            mean, second = moments[policy]
            episode_stats.append((p_star, reward, mean, second))
            return reward, best - mean, best - reward

        block = [(e, state, env_step, (e,), "") for e in range(episodes)]
        records += _run_blocks(cfg, [(label, block)], candidates, 1)

        sum_p = sum_reward = sum_value = sum_var = 0.0
        for p_star, reward, mean, second in episode_stats:
            sum_p += p_star
            sum_reward += reward
            sum_value += mean
            sum_var += max(0.0, second - mean * mean)
        summaries.append(
            NewcombCellSummary(
                alpha=alpha,
                selected_one_box_rate=sum_p / episodes,
                mean_reward=sum_reward / episodes,
                mean_policy_value=sum_value / episodes,
                reward_se=math.sqrt(sum_var) / episodes,
            )
        )
    return records, summaries


_TRAP_KEYS = {
    "env.alpha_dgp": "probability a sampled world is risky (default 0.99)",
    "env.p_cat": "per-pull catastrophe probability on the trap arm (default 0.01)",
    "env.catastrophe_reward": "catastrophe reward (default -1000)",
    "env.horizon": "steps per run (default 100)",
    "env.runs": "independent runs (default 200)",
    "env.pair.": "arm probability pairs, numbered env.pair.1, env.pair.2, ...",
    "agents": "roster: ib, greedy_prior<a>, thompson_prior<a>",
}

DEFAULT_TRAP_ROSTER = (
    "ib",
    "greedy_prior0.99",
    "greedy_prior0.01",
    "thompson_prior0.99",
    "thompson_prior0.01",
)

_TRAP_AGENT = re.compile(r"^(greedy|thompson)_prior(\d(?:\.\d+)?)$")


def _trap_agent_specs(roster: Sequence[str]) -> list[tuple[str, str, float | None]]:
    specs: list[tuple[str, str, float | None]] = []
    for name in roster:
        if name == "ib":
            specs.append((name, "ib_maximin", None))
            continue
        match = _TRAP_AGENT.match(name)
        if not match:
            raise ConfigError(
                f"field 'agents': unknown trap agent {name!r} "
                "(use 'ib', 'greedy_prior<a>', or 'thompson_prior<a>')"
            )
        flavor = "bayes_greedy" if match.group(1) == "greedy" else "bayes_thompson"
        specs.append((name, flavor, float(match.group(2))))
    return specs


# The config key each ``TrapWorldConfig`` check names; the joint check names
# the term every pair shares. ``_numbered_pairs`` checks the pairs per key.
_TRAP_FIELD_ERRORS = {
    "alpha_dgp must lie in [0, 1]": "env.alpha_dgp",
    "p_cat must lie in [0, 1]": "env.p_cat",
    "the catastrophe reward must be negative": "env.catastrophe_reward",
    "p_cat plus the trap arm probability exceeds 1": "env.p_cat",
}


def _run_trap_bandit(cfg: ExperimentConfig) -> list[RunRecord]:
    check_settings(cfg, _TRAP_KEYS)
    try:
        env = TrapWorldConfig(
            arm_pairs=_numbered_pairs(cfg, "env.pair.", ((0.3, 0.7), (0.7, 0.3))),
            alpha_dgp=_float_setting(cfg, "env.alpha_dgp", 0.99),
            p_cat=_float_setting(cfg, "env.p_cat", 0.01),
            catastrophe_reward=_float_setting(cfg, "env.catastrophe_reward", -1000.0),
            horizon=_int_setting(cfg, "env.horizon", 100),
            runs=_int_setting(cfg, "env.runs", 200),
        )
    except ConfigError as exc:
        key = _TRAP_FIELD_ERRORS.get(str(exc))
        if key is None:
            raise
        raise ConfigError(f"field {key!r}: {exc}") from None
    model, raw_support, values = trap_model(env)
    candidates = deterministic_grid(model.arm_count)
    specs = _trap_agent_specs(_roster(cfg, DEFAULT_TRAP_ROSTER))

    # Each roster entry's state is built once, without a stream; its runs
    # share its belief, return function and events, and add their streams.
    agents = [
        make_agent(
            trap_ib_belief(model, env) if flavor == "ib_maximin"
            else trap_bayes_belief(model, env, alpha_prior),
            None, flavor, values, raw_support,
        )
        for _, flavor, alpha_prior in specs
    ]
    blocks: list[tuple[str, list[Episode]]] = [(label, []) for label, _, _ in specs]
    for run in range(env.runs):
        for ai, agent in enumerate(agents):
            # Same environment stream for every agent in the roster: they
            # face the same sampled world and the same uniform draws.
            env_rng = derive_stream(cfg.seed, run, ENV_STREAM)
            agent_rng = derive_stream(cfg.seed, run, AGENT_STREAM, ai)
            world = trap_sample_world(env, env_rng)
            uniforms = BlockSource(env_rng, env.horizon)  # one per pull
            exp_rewards = trap_expected_rewards(world, env)
            best = float(exp_rewards.max())
            regrets = (exp_rewards.max() - exp_rewards).tolist()

            # Defaults bind this episode's values: the step runs later.
            def env_step(policy, action, world=world, rng=uniforms, regrets=regrets, best=best):
                reward = trap_step(world, env, action, rng)
                return reward, regrets[action], best - reward

            state = replace(agent, rng=agent_rng)
            blocks[ai][1].append((run, state, env_step, (run, ai), f", world {world}"))
    return _run_blocks(cfg, blocks, candidates, env.horizon, _warm_joint_posteriors)


# ---------------------------------------------------------------------------
# Dispatch and aggregation
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig) -> list[RunRecord]:
    """Run one configured experiment; fully deterministic given (config, seed).

    Records come back sorted by (agent, episode, step), the canonical order
    of the emitted CSV."""
    if cfg.experiment == "validate-classical":
        records = _run_validate_classical(cfg)
    elif cfg.experiment == "ku-bandit":
        records = _run_ku_bandit(cfg)
    elif cfg.experiment == "newcomb":
        records, _ = run_newcomb_sweep(cfg)
    elif cfg.experiment == "trap-bandit":
        records = _run_trap_bandit(cfg)
    else:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    records.sort(key=lambda rec: (rec.agent, rec.episode, rec.step))
    return records


def final_cumulative_regrets(records: Sequence[RunRecord]) -> dict[str, np.ndarray]:
    """Per agent: final cumulative expected regret of each episode, in
    episode order."""
    finals: dict[str, dict[int, tuple[int, float]]] = {}
    for rec in records:
        per_agent = finals.setdefault(rec.agent, {})
        step, _ = per_agent.get(rec.episode, (-1, 0.0))
        if rec.step >= step:
            per_agent[rec.episode] = (rec.step, rec.cum_exp_regret)
    return {
        agent: np.array([per_ep[e][1] for e in sorted(per_ep)])
        for agent, per_ep in finals.items()
    }


def catastrophe_rates(records: Sequence[RunRecord], threshold: float = 0.0) -> dict[str, float]:
    """Per agent: fraction of episodes containing a reward below threshold."""
    hit: dict[str, dict[int, bool]] = {}
    for rec in records:
        per_agent = hit.setdefault(rec.agent, {})
        per_agent[rec.episode] = per_agent.get(rec.episode, False) or rec.reward < threshold
    return {
        agent: sum(per_ep.values()) / len(per_ep) for agent, per_ep in hit.items()
    }

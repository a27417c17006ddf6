"""Ground-truth data-generating processes and the expected rewards regret
is measured against.

Environments are plain functions of (config or model, action, stream) so
that a rollout is reproducible from its seed alone. The runners compute
expected regret against the best expected one-step reward available in the
realized world, using the environment's raw reward units (agents may rescale
rewards internally; regret reporting does not).

Each step reads ``rng`` (a ``Generator``, or any object with ``random()``)
through ``rng.random()`` only, a fixed count of uniforms per call, stated
in its docstring. The runner relies on these counts: it draws each unit's
exact total a block at a time (``harness.runner.BlockSource``), so changing
a count changes the unit's draws and its CSV bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .worldmodels import NewcombModel, newcomb_prediction_prob


def bernoulli_step(p: float, rng: np.random.Generator) -> int:
    """One Bernoulli draw; consumes exactly one uniform."""
    if not 0.0 <= p <= 1.0:
        raise ConfigError("success probability must lie in [0, 1]")
    return 1 if rng.random() < p else 0


# ---------------------------------------------------------------------------
# Bandit with Knightian-interval arm probabilities
# ---------------------------------------------------------------------------

KU_MODES = ("fixed_point", "per_step_random", "worst_case_vs_agent")


@dataclass(frozen=True)
class KUBanditConfig:
    """Two-armed Bernoulli bandit whose per-arm success probabilities are
    only known to lie in closed intervals.

    ``fixed_point`` pins the probabilities for the whole run,
    ``per_step_random`` redraws them uniformly from the box each step, and
    ``worst_case_vs_agent`` reacts to each action adversarially: the pulled
    arm's probability drops to its interval minimum while every other arm
    rises to its maximum."""

    intervals: tuple[tuple[float, float], ...] = ((0.3, 0.7), (0.4, 0.8))
    mode: str = "worst_case_vs_agent"
    fixed_point: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.mode not in KU_MODES:
            raise ConfigError(f"unknown adversary mode {self.mode!r}")
        for lo, hi in self.intervals:
            if not (0.0 <= lo <= hi <= 1.0):
                raise ConfigError("arm intervals must be ordered and lie in [0, 1]")
        if self.fixed_point is not None and self.mode != "fixed_point":
            raise ConfigError(f"a fixed point needs fixed_point mode, not {self.mode!r}")
        if self.mode == "fixed_point":
            if self.fixed_point is None:
                raise ConfigError("fixed_point mode needs a fixed probability point")
            if len(self.fixed_point) != len(self.intervals):
                raise ConfigError("fixed point has the wrong number of arms")
            for p, (lo, hi) in zip(self.fixed_point, self.intervals):
                if not lo <= p <= hi:
                    raise ConfigError("fixed point must lie inside the intervals")

    @property
    def arm_count(self) -> int:
        return len(self.intervals)


def ku_probabilities(
    cfg: KUBanditConfig, action: int, rng: np.random.Generator
) -> tuple[float, ...]:
    """Realized per-arm probabilities for one step, after the adversary (if
    any) has reacted to the action; consumes one uniform per arm under
    ``per_step_random`` and none otherwise.

    ``per_step_random`` draws each arm as ``lo + (hi - lo) * rng.random()``,
    which is numpy's own algorithm for ``rng.uniform(lo, hi)``: the same
    value from the same one uniform, without that call's overhead."""
    if cfg.mode == "fixed_point":
        return tuple(cfg.fixed_point)
    if cfg.mode == "per_step_random":
        return tuple(lo + (hi - lo) * rng.random() for lo, hi in cfg.intervals)
    return tuple(
        lo if arm == action else hi for arm, (lo, hi) in enumerate(cfg.intervals)
    )


def ku_step(
    cfg: KUBanditConfig, action: int, rng: np.random.Generator
) -> tuple[int, tuple[float, ...]]:
    """Resolve one pull: returns the sampled reward and the realized
    probabilities used for regret accounting. Consumes one uniform for the
    pull, after those of ``ku_probabilities``."""
    if not 0 <= action < cfg.arm_count:
        raise ConfigError("action out of range")
    probs = ku_probabilities(cfg, action, rng)
    return bernoulli_step(probs[action], rng), probs


# ---------------------------------------------------------------------------
# Newcomb-like environment
# ---------------------------------------------------------------------------


def newcomb_step(
    model: NewcombModel, p_one_box: float, action: int, rng: np.random.Generator
) -> float:
    """Resolve one episode given the committed policy and the sampled
    action; consumes exactly one uniform.

    The predictor reacts to the policy (not to the sampled action): the
    prediction is drawn with the accuracy-tilted probability of forecasting
    one-boxing, then the reward is read from the matrix."""
    if action not in (0, 1):
        raise ConfigError("action must be 0 (one-box) or 1 (two-box)")
    q = newcomb_prediction_prob(p_one_box, model.accuracy)
    prediction = 0 if rng.random() < q else 1
    return float(model.reward_matrix[action][prediction])


# ---------------------------------------------------------------------------
# Trap bandit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrapWorldConfig:
    """Two-armed bandit whose higher-probability arm may hide a catastrophe.

    Each run first draws the arm probabilities uniformly from ``arm_pairs``,
    then flags the world risky with probability ``alpha_dgp``. In a risky
    world the arm with the larger success probability (the trap arm) yields
    ``catastrophe_reward`` with probability ``p_cat``, reward 1 with its
    success probability, and 0 otherwise; all other arms and all arms of a
    safe world are ordinary Bernoulli arms."""

    arm_pairs: tuple[tuple[float, float], ...] = ((0.3, 0.7), (0.7, 0.3))
    alpha_dgp: float = 0.99
    p_cat: float = 0.01
    catastrophe_reward: float = -1000.0
    horizon: int = 100
    runs: int = 200

    def __post_init__(self) -> None:
        if self.horizon < 1 or self.runs < 1:
            raise ConfigError("horizon and run count must be at least 1")
        if not 0.0 <= self.alpha_dgp <= 1.0:
            raise ConfigError("alpha_dgp must lie in [0, 1]")
        if not 0.0 <= self.p_cat <= 1.0:
            raise ConfigError("p_cat must lie in [0, 1]")
        if self.catastrophe_reward >= 0.0:
            raise ConfigError("the catastrophe reward must be negative")
        if not self.arm_pairs:
            raise ConfigError("need at least one arm-probability pair")
        arms = len(self.arm_pairs[0])
        for pair in self.arm_pairs:
            if len(pair) != arms:
                raise ConfigError("all probability pairs need the same arm count")
            if any(not 0.0 <= p <= 1.0 for p in pair):
                raise ConfigError("arm probabilities must lie in [0, 1]")
            if max(pair) + self.p_cat > 1.0 + 1e-12:
                raise ConfigError("p_cat plus the trap arm probability exceeds 1")

    @property
    def arm_count(self) -> int:
        return len(self.arm_pairs[0])


@dataclass(frozen=True)
class TrueWorld:
    """One sampled ground truth: the arm probabilities, whether the world is
    risky, and which arm is the trap (None in safe worlds)."""

    probs: tuple[float, ...]
    risky: bool
    trap_arm: int | None


def trap_sample_world(cfg: TrapWorldConfig, rng: np.random.Generator) -> TrueWorld:
    """Draw one world; consumes exactly two uniforms."""
    pair = cfg.arm_pairs[int(rng.integers(len(cfg.arm_pairs)))]
    risky = rng.random() < cfg.alpha_dgp
    trap_arm = int(np.argmax(pair)) if risky else None
    return TrueWorld(tuple(pair), risky, trap_arm)


def trap_expected_rewards(world: TrueWorld, cfg: TrapWorldConfig) -> np.ndarray:
    """Expected one-step reward per arm in the realized world."""
    rewards = np.asarray(world.probs, dtype=float).copy()
    if world.risky:
        rewards[world.trap_arm] += cfg.p_cat * cfg.catastrophe_reward
    return rewards


def trap_step(
    world: TrueWorld, cfg: TrapWorldConfig, action: int, rng: np.random.Generator
) -> float:
    """Resolve one pull; consumes exactly one uniform.

    On the trap arm of a risky world the draw lands in the catastrophe slice
    with probability ``p_cat``, the unit-reward slice with the arm's success
    probability, and yields 0 otherwise."""
    if not 0 <= action < cfg.arm_count:
        raise ConfigError("action out of range")
    u = rng.random()
    p = world.probs[action]
    if world.risky and action == world.trap_arm:
        if u < cfg.p_cat:
            return cfg.catastrophe_reward
        if u < cfg.p_cat + p:
            return 1.0
        return 0.0
    return 1.0 if u < p else 0.0

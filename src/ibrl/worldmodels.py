"""Compressed measure and history representations per environment type.

Beliefs manipulated by the algebra layer delegate all measure-level work to a
world model: predictive expectations, branch probabilities of observed
histories, restriction to an observed branch, and mixing. Four realizations
are provided.

* ``ExplicitFiniteModel``: measures are explicit mass vectors over a small
  outcome space. Everything can be brute forced, which makes this the testing
  oracle for the algebra.
* ``BernoulliArmsModel``: independent-armed Bernoulli bandits. A measure is a
  per-arm mixture of point hypotheses ``(weight, success probability)`` and a
  history is per-arm ``(pulls, successes)`` counts. The probability of an
  observed history under one hypothesis ``p`` is the ordered product
  ``(1 - p)^(pulls - successes) * p^successes`` (no binomial coefficient,
  histories are ordered), and mixtures sum that over components.
* ``NewcombModel``: a one-shot problem described by a 2x2 reward matrix and a
  predictor accuracy. The evaluation depends on the agent's policy directly,
  so measures and histories carry no state and conditioning is a no-op.
* ``JointHypothesisBanditModel``: bandit arms coupled through joint hypotheses
  over a shared finite reward support. This covers hypothesis classes that
  per-arm independent mixtures cannot express, such as anti-correlated arm
  probabilities or a catastrophic outcome attached to one arm.

The two bandit models share one surface, ``BanditModel``: return functions
over an ``(arms, outcomes)`` value table, ``(arm, outcome index)`` events,
and every expectation built from the model's one per-arm value computation,
``expected_action_values``. A single pull, a mixed policy, a policy grid and
classical selection therefore read the same bits per arm, which is what lets
a one-point maximin agent recover the classical one exactly. Each model
supplies only its measures, histories, restriction and that one computation.

Posterior weights are computed in log space per component and renormalized
(per arm for the independent model, globally for the joint model) so that
histories with on the order of a thousand pulls do not underflow. Each bandit
measure builds its log tables once, when it is constructed (per arm ``log c``,
``log p``, ``log1p(-p)`` and ``p`` for the independent model; the guarded log
weights, ``probs`` and ``log probs`` for the joint model), read-only and
outside equality and hashing. Each measure also keeps a one-entry memo keyed
by the exact counts: the last ``(pulls, successes)`` and its posterior per arm
for the independent model, the last count table and its posterior for the
joint model. A belief point asks for the same posterior several times per
step (once per arm in the value pass, again in ``restrict``), and between
steps only the pulled arm's counts move, so a point builds one posterior per
observation. A memo hit returns the very array the same numpy operations
produced on the miss, so no result changes by a bit.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import logsumexp

from .errors import ConfigError, DegenerateUpdateError, RepresentationError

# Tolerance for weight sums and other normalization checks.
WEIGHT_TOL = 1e-9


# ---------------------------------------------------------------------------
# Return functions and observation events
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ReturnFunction:
    """A bounded real-valued function of one-step world outcomes.

    The payload is interpreted by the owning world model. Finite models read
    ``values`` as one entry per outcome. Bandit-type models read
    ``values[arm][outcome]`` together with the action distribution
    ``action_probs`` (a one-hot distribution evaluates a single pull, a mixed
    one evaluates a randomized policy). The Newcomb model reads the one-boxing
    probability ``action_probs[0]`` and evaluates its own reward matrix.

    All values lie within the declared bounds ``[f_min, f_max]``.
    """

    model: "WorldModel"
    f_min: float
    f_max: float
    values: np.ndarray | None = None
    action_probs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f_min) and math.isfinite(self.f_max)):
            raise RepresentationError("return-function bounds must be finite")
        if self.f_min > self.f_max:
            raise RepresentationError("return-function bounds are inverted")
        if self.values is not None:
            v = np.asarray(self.values, dtype=float)
            if v.size and (v.min() < self.f_min - WEIGHT_TOL or v.max() > self.f_max + WEIGHT_TOL):
                raise RepresentationError("return values fall outside declared bounds")


@dataclass(frozen=True, eq=False)
class ObservationEvent:
    """One realized branch of the world's one-step outcome space.

    ``indicator`` identifies the branch: an outcome-index set for finite
    models, an ``(arm, outcome index)`` pair for bandit-type models, ``None``
    for the stateless Newcomb model. ``offbranch_return`` is the return
    credited to the branches the observation rules out; its value is folded
    into point offsets by the raw update. Off-branch returns must be
    nonnegative, which keeps offsets nonnegative. Shift the reward convention
    first if the environment's raw rewards can be negative.
    """

    model: "WorldModel"
    indicator: object
    offbranch_return: ReturnFunction

    def __post_init__(self) -> None:
        if self.offbranch_return.model != self.model:
            raise RepresentationError("off-branch return belongs to a different world model")
        if self.offbranch_return.f_min < 0.0:
            raise RepresentationError(
                "off-branch returns must be nonnegative; shift the reward convention"
            )
        self.model.validate_event(self)


@dataclass(frozen=True)
class Restriction:
    """Result of restricting a measure to an observed branch.

    ``scale_factor`` multiplies the point's scale (the branch probability for
    conditional representations, 1.0 when the restriction is carried by the
    measure itself), and ``offbranch_value`` is the expected off-branch return
    in the measure's own units, to be scaled and added to the offset. The
    history is not part of it: the belief advances its one history through
    ``WorldModel.next_history``.
    """

    measure: object
    scale_factor: float
    offbranch_value: float


# ---------------------------------------------------------------------------
# World model interface
# ---------------------------------------------------------------------------


class WorldModel(ABC):
    """Owner of one environment type's measure and history representations."""

    @abstractmethod
    def initial_history(self) -> object: ...

    @abstractmethod
    def validate_measure(self, measure: object) -> None: ...

    @abstractmethod
    def validate_event(self, event: ObservationEvent) -> None: ...

    @abstractmethod
    def expectation(self, measure: object, history: object, f: ReturnFunction) -> float:
        """Expectation of ``f`` under the measure's predictive distribution
        given the history. For explicit restricted measures this is the raw
        integral against the (possibly subnormalized) mass vector."""

    @abstractmethod
    def conditioned_mass(self, measure: object, history: object) -> float:
        """Total mass of the measure as represented: 1.0 for conditional
        representations, the raw mass sum for explicit restricted measures."""

    @abstractmethod
    def restrict(self, measure: object, history: object, event: ObservationEvent) -> Restriction:
        """Restrict the measure to the event's branch, returning the updated
        representation together with the scale factor and off-branch value."""

    def next_history(self, history: object, event: ObservationEvent) -> object:
        """The history after observing ``event``, shared by every point of a
        belief, so it is built once per observation. History-free models keep
        their history (``None``) unchanged."""
        return history

    @abstractmethod
    def mix(self, measures: Sequence[object], weights: Sequence[float]) -> object:
        """Convex combination of measures; ``weights`` sum to 1."""

    def policy_expectations(
        self, measure: object, history: object, f: ReturnFunction, probs: np.ndarray
    ) -> np.ndarray:
        """Expectation of ``f`` under each row of ``probs``, a (policies,
        actions) matrix of action distributions: entry ``i`` is what
        ``expectation`` gives for ``f`` mixed by row ``i`` (exactly so for
        one-hot rows, which is how bandit experiments score arms)."""
        raise RepresentationError(f"{type(self).__name__} has no policy-dependent returns")


def _check_weights(weights: Sequence[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        raise RepresentationError("empty weight vector")
    if w.min() < -WEIGHT_TOL:
        raise RepresentationError("mixture weights must be nonnegative")
    if abs(w.sum() - 1.0) > WEIGHT_TOL:
        raise RepresentationError(f"mixture weights sum to {w.sum()!r}, expected 1")
    return w


class BanditModel(WorldModel):
    """Shared surface of the bandit world models: ``arm_count`` arms, each
    pull yielding one of ``outcome_count`` outcome indices. A return function
    carries an ``(arms, outcomes)`` value table and the action distribution
    that mixes it; an event is an ``(arm, outcome index)`` pair. Every
    expectation is built from the subclass's ``expected_action_values``."""

    arm_count: int
    outcome_count: int

    def __post_init__(self) -> None:
        if self.arm_count < 1:
            raise ConfigError("arm_count must be at least 1")

    @abstractmethod
    def expected_action_values(
        self, measure: object, history: object, values: np.ndarray
    ) -> np.ndarray:
        """Posterior-predictive expected return of pulling each arm once,
        under the ``(arms, outcomes)`` table ``values``."""

    def validate_event(self, event: ObservationEvent) -> None:
        ind = event.indicator
        if (
            not isinstance(ind, tuple)
            or len(ind) != 2
            or not 0 <= ind[0] < self.arm_count
            or not isinstance(ind[1], int)
            or not 0 <= ind[1] < self.outcome_count
        ):
            raise RepresentationError("bandit events are (arm, outcome index) pairs")

    def arm_return(self, arm: int, values: Sequence[Sequence[float]]) -> ReturnFunction:
        """Return of pulling ``arm`` once, under the per-(arm, outcome) table."""
        probs = np.zeros(self.arm_count)
        probs[arm] = 1.0
        return self.policy_return(probs, values)

    def policy_return(
        self, action_probs: Sequence[float], values: Sequence[Sequence[float]]
    ) -> ReturnFunction:
        """Return of one pull with the arm drawn from ``action_probs``."""
        v = np.asarray(values, dtype=float)
        if v.shape != (self.arm_count, self.outcome_count):
            raise RepresentationError("return table must be (arms, outcomes)")
        w = _check_weights(action_probs)
        if w.size != self.arm_count:
            raise RepresentationError("need one action probability per arm")
        return ReturnFunction(
            model=self, f_min=float(v.min()), f_max=float(v.max()), values=v, action_probs=w
        )

    def observation(
        self, arm: int, outcome: int, offbranch_return: ReturnFunction
    ) -> ObservationEvent:
        return ObservationEvent(
            model=self, indicator=(arm, int(outcome)), offbranch_return=offbranch_return
        )

    def expectation(self, measure: object, history: object, f: ReturnFunction) -> float:
        total = 0.0
        for weight, value in zip(
            f.action_probs, self.expected_action_values(measure, history, f.values)
        ):
            if weight != 0.0:
                total += weight * value
        return total

    def policy_expectations(
        self, measure: object, history: object, f: ReturnFunction, probs: np.ndarray
    ) -> np.ndarray:
        return probs @ self.expected_action_values(measure, history, f.values)

    def conditioned_mass(self, measure: object, history: object) -> float:
        return 1.0


# ---------------------------------------------------------------------------
# Explicit finite outcomes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteOutcomeMeasure:
    """Mass vector over an explicit finite outcome space.

    Masses are nonnegative and total at most 1 (restriction to an observed
    branch zeroes off-branch mass in place, leaving a subnormalized vector).
    """

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        m = np.asarray(self.masses, dtype=float)
        if m.size == 0:
            raise RepresentationError("finite measure needs at least one outcome")
        if m.min() < 0.0:
            raise RepresentationError("finite measure has negative mass")
        if m.sum() > 1.0 + 1e-12:
            raise RepresentationError(f"finite measure has total mass {m.sum()!r} > 1")


@dataclass(frozen=True)
class ExplicitFiniteModel(WorldModel):
    """Explicit mass vectors over ``outcome_count`` outcomes; the brute-force
    oracle realization."""

    outcome_count: int

    def __post_init__(self) -> None:
        if self.outcome_count < 1:
            raise ConfigError("outcome_count must be at least 1")

    def initial_history(self) -> None:
        return None

    def validate_measure(self, measure: object) -> None:
        if not isinstance(measure, FiniteOutcomeMeasure):
            raise RepresentationError("expected a FiniteOutcomeMeasure")
        if len(measure.masses) != self.outcome_count:
            raise RepresentationError("measure has the wrong number of outcomes")

    def validate_event(self, event: ObservationEvent) -> None:
        kept = event.indicator
        if not isinstance(kept, frozenset) or not kept:
            raise RepresentationError("finite events are nonempty frozensets of outcome indices")
        if not all(isinstance(i, int) and 0 <= i < self.outcome_count for i in kept):
            raise RepresentationError("finite event indices out of range")

    def return_function(
        self, values: Sequence[float], f_min: float | None = None, f_max: float | None = None
    ) -> ReturnFunction:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.outcome_count,):
            raise RepresentationError("return function has the wrong number of outcomes")
        lo = float(v.min()) if f_min is None else float(f_min)
        hi = float(v.max()) if f_max is None else float(f_max)
        return ReturnFunction(model=self, f_min=lo, f_max=hi, values=v)

    def observation(self, kept: Sequence[int] | int, g: ReturnFunction) -> ObservationEvent:
        if isinstance(kept, int):
            kept = (kept,)
        return ObservationEvent(model=self, indicator=frozenset(kept), offbranch_return=g)

    def expectation(self, measure: FiniteOutcomeMeasure, history: None, f: ReturnFunction) -> float:
        return float(np.dot(np.asarray(measure.masses), f.values))

    def conditioned_mass(self, measure: FiniteOutcomeMeasure, history: None) -> float:
        return float(np.sum(np.asarray(measure.masses)))

    def restrict(
        self, measure: FiniteOutcomeMeasure, history: None, event: ObservationEvent
    ) -> Restriction:
        kept = event.indicator
        g = event.offbranch_return.values
        masses = np.asarray(measure.masses)
        keep = np.zeros(self.outcome_count, dtype=bool)
        keep[list(kept)] = True
        off_value = float(np.dot(masses[~keep], g[~keep]))
        new = FiniteOutcomeMeasure(tuple(np.where(keep, masses, 0.0)))
        return Restriction(new, 1.0, off_value)

    def mix(
        self, measures: Sequence[FiniteOutcomeMeasure], weights: Sequence[float]
    ) -> FiniteOutcomeMeasure:
        w = _check_weights(weights)
        if len(measures) != w.size:
            raise RepresentationError("measure and weight counts differ")
        stacked = np.stack([np.asarray(m.masses) for m in measures])
        return FiniteOutcomeMeasure(tuple(w @ stacked))


# ---------------------------------------------------------------------------
# Independent-armed Bernoulli bandits
# ---------------------------------------------------------------------------


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class ArmTable(NamedTuple):
    """One arm's component arrays, built once per measure: log weights, log
    success and log failure probabilities, and success probabilities."""

    log_c: np.ndarray
    log_p: np.ndarray
    log1m_p: np.ndarray
    p: np.ndarray


@dataclass(frozen=True)
class BernoulliArmMeasure:
    """Per-arm mixtures of Bernoulli point hypotheses.

    ``arms[j]`` is a tuple of ``(weight, success probability)`` components for
    arm ``j``. Weights within each arm are nonnegative and sum to 1; arms are
    independent, so the joint history probability factorizes across arms.

    ``tables[j]`` holds arm ``j``'s read-only log tables and ``memo[j]`` the
    last ``((pulls, successes), posterior weights)`` computed for it (``None``
    before the first); neither takes part in equality or hashing.
    """

    arms: tuple[tuple[tuple[float, float], ...], ...]
    tables: tuple[ArmTable, ...] = field(init=False, repr=False, compare=False)
    memo: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.arms:
            raise RepresentationError("bandit measure needs at least one arm")
        tables = []
        for components in self.arms:
            if not components:
                raise RepresentationError("every arm needs at least one component")
            w = np.array([c for c, _ in components], dtype=float)
            p = np.array([q for _, q in components], dtype=float)
            if w.min() < -WEIGHT_TOL:
                raise RepresentationError("component weights must be nonnegative")
            if abs(w.sum() - 1.0) > WEIGHT_TOL:
                raise RepresentationError(f"arm weights sum to {w.sum()!r}, expected 1")
            if p.min() < 0.0 or p.max() > 1.0:
                raise RepresentationError("success probabilities must lie in [0, 1]")
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log(w), np.log(p), np.log1p(-p)
            tables.append(ArmTable(*(_read_only(a) for a in (*logs, p))))
        object.__setattr__(self, "tables", tuple(tables))
        object.__setattr__(self, "memo", [None] * len(self.arms))


@dataclass(frozen=True)
class BanditHistory:
    """Per-arm pull and success counts; order within an arm is immaterial."""

    pulls: tuple[int, ...]
    successes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.pulls) != len(self.successes):
            raise RepresentationError("pulls and successes must have equal length")
        for n, r in zip(self.pulls, self.successes):
            if not (0 <= r <= n):
                raise RepresentationError("need 0 <= successes <= pulls per arm")


def _arm_log_weights(table: ArmTable, pulls: int, successes: int) -> np.ndarray:
    """Unnormalized log posterior weights of one arm's components."""
    failures = pulls - successes
    lw = table.log_c
    if successes > 0:
        lw = lw + successes * table.log_p
    if failures > 0:
        lw = lw + failures * table.log1m_p
    return lw


def _arm_posterior(
    measure: BernoulliArmMeasure, history: BanditHistory, arm: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized posterior weights and success probabilities for one arm,
    both read-only; served from the arm's memo when its counts are unchanged."""
    table = measure.tables[arm]
    key = (history.pulls[arm], history.successes[arm])
    hit = measure.memo[arm]
    if hit is not None and hit[0] == key:
        return hit[1], table.p
    lw = _arm_log_weights(table, *key)
    peak = lw.max()
    if peak == -np.inf:
        raise DegenerateUpdateError("history is impossible under every component of this arm")
    w = np.exp(lw - peak)
    w /= w.sum()
    measure.memo[arm] = (key, _read_only(w))
    return w, table.p


def predictive(measure: BernoulliArmMeasure, history: BanditHistory, arm: int) -> float:
    """Posterior-predictive success probability of the next pull of ``arm``.

    Component weights are reweighted by the likelihood of the arm's observed
    counts and renormalized, so this is exactly the discrete-grid Bayes
    posterior predictive."""
    w, p = _arm_posterior(measure, history, arm)
    return float(np.dot(w, p))


def log_branch_probability(measure: BernoulliArmMeasure, history: BanditHistory) -> float:
    """Log probability of the observed history; factorizes across arms."""
    total = 0.0
    for arm, table in enumerate(measure.tables):
        lw = _arm_log_weights(table, history.pulls[arm], history.successes[arm])
        total += float(logsumexp(lw))
    return total

def branch_probability(measure: BernoulliArmMeasure, history: BanditHistory) -> float:
    """Probability the measure assigns to the observed (ordered) history.

    Computed in log space; extremely long histories may round to 0.0 here even
    though posterior weights remain well defined."""
    return float(math.exp(log_branch_probability(measure, history)))


def observe(history: BanditHistory, arm: int, reward: int) -> BanditHistory:
    """Append one pull of ``arm`` with binary ``reward`` to the history."""
    if reward not in (0, 1):
        raise RepresentationError("bandit rewards are 0 or 1")
    if not 0 <= arm < len(history.pulls):
        raise RepresentationError("arm index out of range")
    pulls = tuple(n + 1 if j == arm else n for j, n in enumerate(history.pulls))
    successes = tuple(r + reward if j == arm else r for j, r in enumerate(history.successes))
    return BanditHistory(pulls, successes)


def mix_measures(
    components: Sequence[BernoulliArmMeasure], weights: Sequence[float]
) -> BernoulliArmMeasure:
    """Convex combination of bandit measures.

    Per arm, component lists are concatenated with weights scaled by the
    mixture weight; components with identical success probability are merged
    and zero-weight entries dropped."""
    w = _check_weights(weights)
    if len(components) != w.size:
        raise RepresentationError("measure and weight counts differ")
    arm_count = len(components[0].arms)
    if any(len(m.arms) != arm_count for m in components):
        raise RepresentationError("all measures must have the same arm count")
    arms = []
    for arm in range(arm_count):
        merged: dict[float, float] = {}
        for wk, m in zip(w, components):
            for c, p in m.arms[arm]:
                if wk * c == 0.0:
                    continue
                merged[p] = merged.get(p, 0.0) + wk * c
        arms.append(tuple((c, p) for p, c in merged.items()))
    return BernoulliArmMeasure(tuple(arms))


@dataclass(frozen=True)
class BernoulliArmsModel(BanditModel):
    """Independent-armed Bernoulli bandit world model."""

    arm_count: int
    outcome_count = 2

    def initial_history(self) -> BanditHistory:
        zeros = (0,) * self.arm_count
        return BanditHistory(zeros, zeros)

    def validate_measure(self, measure: object) -> None:
        if not isinstance(measure, BernoulliArmMeasure):
            raise RepresentationError("expected a BernoulliArmMeasure")
        if len(measure.arms) != self.arm_count:
            raise RepresentationError("measure has the wrong arm count")

    def point_measure(self, probs: Sequence[float]) -> BernoulliArmMeasure:
        """Single-hypothesis measure fixing each arm's success probability."""
        if len(probs) != self.arm_count:
            raise RepresentationError("need one probability per arm")
        return BernoulliArmMeasure(tuple(((1.0, float(p)),) for p in probs))

    def grid_measure(self, grid: Sequence[float], weights: Sequence[float] | None = None) -> BernoulliArmMeasure:
        """Measure with the same hypothesis grid on every arm (uniform by default)."""
        if weights is None:
            weights = [1.0 / len(grid)] * len(grid)
        w = _check_weights(weights)
        arm = tuple((float(c), float(p)) for c, p in zip(w, grid))
        return BernoulliArmMeasure((arm,) * self.arm_count)

    def expected_action_values(
        self, measure: BernoulliArmMeasure, history: BanditHistory, values: np.ndarray
    ) -> np.ndarray:
        out = np.empty(self.arm_count)
        for arm in range(self.arm_count):
            p1 = predictive(measure, history, arm)
            out[arm] = (1.0 - p1) * values[arm, 0] + p1 * values[arm, 1]
        return out

    def sampled_action_values(
        self,
        measure: BernoulliArmMeasure,
        history: BanditHistory,
        values: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Expected return per arm under one hypothesis component per arm,
        sampled proportionally to its posterior weight."""
        out = np.empty(self.arm_count)
        for arm in range(self.arm_count):
            w, p = _arm_posterior(measure, history, arm)
            q = p[rng.choice(w.size, p=w)]
            out[arm] = (1.0 - q) * values[arm, 0] + q * values[arm, 1]
        return out

    def restrict(
        self, measure: BernoulliArmMeasure, history: BanditHistory, event: ObservationEvent
    ) -> Restriction:
        arm, outcome = event.indicator
        p1 = predictive(measure, history, arm)
        p_obs = p1 if outcome == 1 else 1.0 - p1
        off_outcome = 1 - outcome
        g = event.offbranch_return.values
        off_value = (1.0 - p_obs) * g[arm, off_outcome]
        return Restriction(measure, p_obs, off_value)

    def next_history(self, history: BanditHistory, event: ObservationEvent) -> BanditHistory:
        return observe(history, *event.indicator)

    def mix(
        self, measures: Sequence[BernoulliArmMeasure], weights: Sequence[float]
    ) -> BernoulliArmMeasure:
        return mix_measures(measures, weights)


# ---------------------------------------------------------------------------
# Newcomb-like problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatelessMeasure:
    """Placeholder measure for world models that carry no stochastic state."""


STATELESS = StatelessMeasure()

# Action index 0 is one-boxing, index 1 two-boxing; prediction index likewise.
DEFAULT_NEWCOMB_MATRIX = ((10.0, 0.0), (11.0, 1.0))


def newcomb_prediction_prob(p_one_box: float, accuracy: float) -> float:
    """Probability the predictor forecasts one-boxing against policy ``p``.

    The predictor guesses the sampled action correctly with probability
    ``accuracy`` and guesses uniformly otherwise, which collapses to
    ``p * (2 * accuracy - 1) + 0.5 * (2 - 2 * accuracy)``. Accuracy 0.5 is an
    uninformed coin flip; accuracy 1 mirrors the policy exactly. An array of
    one-boxing probabilities gives one forecast per entry and is not
    range-checked here: it holds policy rows, which ``Policy`` has checked."""
    if not isinstance(p_one_box, np.ndarray) and not 0.0 <= p_one_box <= 1.0:
        raise ConfigError("one-boxing probability must lie in [0, 1]")
    if not 0.5 <= accuracy <= 1.0:
        raise ConfigError("predictor accuracy must lie in [0.5, 1]")
    return p_one_box * (2.0 * accuracy - 1.0) + 0.5 * (2.0 - 2.0 * accuracy)


@dataclass(frozen=True)
class NewcombModel(WorldModel):
    """One-shot predictor problem: a 2x2 reward matrix indexed by
    (action, prediction) plus the predictor accuracy.

    The value of a policy is computed analytically, action and prediction
    drawn independently given the policy, so beliefs over this model are
    policy-dependent but observation-independent."""

    reward_matrix: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_NEWCOMB_MATRIX
    accuracy: float = 0.5

    def __post_init__(self) -> None:
        m = np.asarray(self.reward_matrix, dtype=float)
        if m.shape != (2, 2) or not np.all(np.isfinite(m)):
            raise ConfigError("reward matrix must be a finite 2x2 table")
        if not 0.5 <= self.accuracy <= 1.0:
            raise ConfigError("predictor accuracy must lie in [0.5, 1]")

    def initial_history(self) -> None:
        return None

    def validate_measure(self, measure: object) -> None:
        if not isinstance(measure, StatelessMeasure):
            raise RepresentationError("expected the stateless placeholder measure")

    def validate_event(self, event: ObservationEvent) -> None:
        if event.indicator is not None:
            raise RepresentationError("Newcomb observations carry no branch structure")

    def policy_return(self, p_one_box: float) -> ReturnFunction:
        m = np.asarray(self.reward_matrix, dtype=float)
        if not 0.0 <= p_one_box <= 1.0:
            raise RepresentationError("one-boxing probability must lie in [0, 1]")
        return ReturnFunction(
            model=self,
            f_min=float(m.min()),
            f_max=float(m.max()),
            action_probs=np.array([p_one_box, 1.0 - p_one_box]),
        )

    def observation(self) -> ObservationEvent:
        """The one Newcomb observation. It rules out no branch, so nothing
        is banked: its off-branch return is the constant zero."""
        return ObservationEvent(
            model=self, indicator=None, offbranch_return=ReturnFunction(self, 0.0, 0.0)
        )

    def expectation(self, measure: StatelessMeasure, history: None, f: ReturnFunction) -> float:
        return newcomb_expected_reward(f.action_probs[0], self)

    def policy_expectations(
        self, measure: StatelessMeasure, history: None, f: ReturnFunction, probs: np.ndarray
    ) -> np.ndarray:
        m = np.asarray(self.reward_matrix, dtype=float)
        return _newcomb_expectation(probs[:, 0], self.accuracy, m)

    def conditioned_mass(self, measure: StatelessMeasure, history: None) -> float:
        return 1.0

    def restrict(
        self, measure: StatelessMeasure, history: None, event: ObservationEvent
    ) -> Restriction:
        return Restriction(measure, 1.0, 0.0)

    def mix(
        self, measures: Sequence[StatelessMeasure], weights: Sequence[float]
    ) -> StatelessMeasure:
        _check_weights(weights)
        return STATELESS


def _newcomb_expectation(p_one_box, accuracy: float, table: np.ndarray):
    """Expectation of ``table[action][prediction]`` with the action drawn
    from the policy and the prediction drawn with the accuracy-tilted
    probability. ``p_one_box`` is one probability or an array of them; an
    array runs the same products and sums, so each of its entries equals the
    single call's value."""
    q = newcomb_prediction_prob(p_one_box, accuracy)
    action_probs = np.array([p_one_box, 1.0 - p_one_box]).T
    prediction_probs = np.array([q, 1.0 - q]).T
    return np.vecdot(action_probs @ table, prediction_probs)


def newcomb_expected_reward(p_one_box: float, model: NewcombModel) -> float:
    """Expected reward of the policy that one-boxes with probability ``p``.

    With the default matrix this is affine in ``p`` with slope
    ``20 * accuracy - 11``, so the optimal policy flips at accuracy 0.55."""
    m = np.asarray(model.reward_matrix, dtype=float)
    return float(_newcomb_expectation(p_one_box, model.accuracy, m))


def newcomb_reward_moments(p_one_box: float, model: NewcombModel) -> tuple[float, float]:
    """First and second moments of the reward of the policy that one-boxes
    with probability ``p``."""
    m = np.asarray(model.reward_matrix, dtype=float)
    return (
        float(_newcomb_expectation(p_one_box, model.accuracy, m)),
        float(_newcomb_expectation(p_one_box, model.accuracy, m * m)),
    )


# ---------------------------------------------------------------------------
# Jointly parameterized bandits over a finite reward support
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointHypothesisMeasure:
    """Mixture over joint hypotheses, each fixing every arm's distribution
    over a shared finite reward support.

    ``outcome_probs[c][arm][outcome]`` is hypothesis ``c``'s probability of
    drawing ``outcome`` from ``arm``. Unlike the independent-armed measure,
    the posterior is a single weight vector over joint hypotheses, so
    observing one arm can shift beliefs about the others.

    ``log_weights`` (``-inf`` for zero weights), ``probs`` and ``log_probs``
    are read-only arrays built once; ``memo[0]`` is the last ``(counts,
    posterior)`` computed (``None`` before the first). None of them takes
    part in equality or hashing."""

    weights: tuple[float, ...]
    outcome_probs: tuple[tuple[tuple[float, ...], ...], ...]
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    probs: np.ndarray = field(init=False, repr=False, compare=False)
    log_probs: np.ndarray = field(init=False, repr=False, compare=False)
    memo: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0:
            raise RepresentationError("joint measure needs at least one hypothesis")
        if w.min() < -WEIGHT_TOL or abs(w.sum() - 1.0) > WEIGHT_TOL:
            raise RepresentationError("hypothesis weights must be nonnegative and sum to 1")
        probs = np.array(self.outcome_probs, dtype=float)
        if probs.ndim != 3 or probs.shape[0] != w.size:
            raise RepresentationError("need one (arm, outcome) probability table per hypothesis")
        if probs.min() < 0.0:
            raise RepresentationError("outcome probabilities must be nonnegative")
        if np.abs(probs.sum(axis=2) - 1.0).max() > WEIGHT_TOL:
            raise RepresentationError("each arm's outcome probabilities must sum to 1")
        with np.errstate(divide="ignore"):
            log_weights = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
            log_probs = np.log(probs)
        object.__setattr__(self, "log_weights", _read_only(log_weights))
        object.__setattr__(self, "probs", _read_only(probs))
        object.__setattr__(self, "log_probs", _read_only(log_probs))
        object.__setattr__(self, "memo", [None])


@dataclass(frozen=True)
class OutcomeCountHistory:
    """Per-arm, per-outcome observation counts."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for row in self.counts:
            if any(c < 0 for c in row):
                raise RepresentationError("counts must be nonnegative")


@dataclass(frozen=True)
class JointHypothesisBanditModel(BanditModel):
    """Bandit whose arms share a finite reward ``support`` and are coupled
    through joint hypotheses."""

    arm_count: int
    support: tuple[float, ...]

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.support) < 2:
            raise ConfigError("support needs at least two outcomes")

    @property
    def outcome_count(self) -> int:
        return len(self.support)

    def initial_history(self) -> OutcomeCountHistory:
        return OutcomeCountHistory(((0,) * self.outcome_count,) * self.arm_count)

    def validate_measure(self, measure: object) -> None:
        if not isinstance(measure, JointHypothesisMeasure):
            raise RepresentationError("expected a JointHypothesisMeasure")
        if measure.probs.shape[1:] != (self.arm_count, self.outcome_count):
            raise RepresentationError("hypothesis tables have the wrong shape")

    def measure(
        self, weights: Sequence[float], outcome_probs: Sequence[Sequence[Sequence[float]]]
    ) -> JointHypothesisMeasure:
        m = JointHypothesisMeasure(
            tuple(float(w) for w in weights),
            tuple(
                tuple(tuple(float(p) for p in arm) for arm in hyp) for hyp in outcome_probs
            ),
        )
        self.validate_measure(m)
        return m

    def _posterior(
        self, measure: JointHypothesisMeasure, history: OutcomeCountHistory
    ) -> np.ndarray:
        """Posterior hypothesis weights, read-only; served from the measure's
        memo when the counts are unchanged."""
        hit = measure.memo[0]
        if hit is not None and hit[0] == history.counts:
            return hit[1]
        counts = np.asarray(history.counts, dtype=float)
        with np.errstate(invalid="ignore"):
            log_likes = np.where(counts > 0, counts * measure.log_probs, 0.0).sum(axis=(1, 2))
        lw = measure.log_weights + log_likes
        peak = lw.max()
        if peak == -np.inf:
            raise DegenerateUpdateError("history is impossible under every joint hypothesis")
        post = np.exp(lw - peak)
        post = _read_only(post / post.sum())
        measure.memo[0] = (history.counts, post)
        return post

    def predictive_outcome_probs(
        self, measure: JointHypothesisMeasure, history: OutcomeCountHistory, arm: int
    ) -> np.ndarray:
        return self._posterior(measure, history) @ measure.probs[:, arm, :]

    def expected_action_values(
        self, measure: JointHypothesisMeasure, history: OutcomeCountHistory, values: np.ndarray
    ) -> np.ndarray:
        post = self._posterior(measure, history)
        return np.einsum("c,cjo,jo->j", post, measure.probs, values)

    def sampled_action_values(
        self,
        measure: JointHypothesisMeasure,
        history: OutcomeCountHistory,
        values: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Expected return per arm under one joint hypothesis sampled from the
        posterior (hypotheses are joint, so one draw covers every arm)."""
        post = self._posterior(measure, history)
        c = rng.choice(post.size, p=post)
        return np.einsum("jo,jo->j", measure.probs[c], values)

    def restrict(
        self, measure: JointHypothesisMeasure, history: OutcomeCountHistory, event: ObservationEvent
    ) -> Restriction:
        arm, outcome = event.indicator
        dist = self.predictive_outcome_probs(measure, history, arm)
        g = event.offbranch_return.values
        off = np.ones(self.outcome_count, dtype=bool)
        off[outcome] = False
        off_value = float(np.dot(dist[off], g[arm, off]))
        return Restriction(measure, float(dist[outcome]), off_value)

    def next_history(
        self, history: OutcomeCountHistory, event: ObservationEvent
    ) -> OutcomeCountHistory:
        arm, outcome = event.indicator
        counts = tuple(
            tuple(c + 1 if (j == arm and o == outcome) else c for o, c in enumerate(row))
            for j, row in enumerate(history.counts)
        )
        return OutcomeCountHistory(counts)

    def mix(
        self, measures: Sequence[JointHypothesisMeasure], weights: Sequence[float]
    ) -> JointHypothesisMeasure:
        w = _check_weights(weights)
        if len(measures) != w.size:
            raise RepresentationError("measure and weight counts differ")
        merged: dict[tuple, float] = {}
        for wk, m in zip(w, measures):
            for c, table in zip(m.weights, m.outcome_probs):
                if wk * c == 0.0:
                    continue
                merged[table] = merged.get(table, 0.0) + wk * c
        return JointHypothesisMeasure(tuple(merged.values()), tuple(merged.keys()))

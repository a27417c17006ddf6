"""Compressed measure and history representations per environment type.

Beliefs manipulated by the algebra layer delegate all measure-level work to a
world model: predictive expectations, branch probabilities of observed
histories, restriction to an observed branch, and mixing. Four realizations
are provided.

* ``ExplicitFiniteModel``: measures are explicit mass vectors over a small
  outcome space. Everything can be brute forced, which makes this the testing
  oracle for the algebra.
* ``BernoulliArmsModel``: independent-armed Bernoulli bandits. A measure is a
  per-arm mixture of point hypotheses ``(weight, success probability)`` and
  arm ``j``'s history row is its ``(failures, successes)`` counts. The
  probability of an observed history under one hypothesis ``p`` is the
  ordered product ``(1 - p)^failures * p^successes`` (no binomial
  coefficient, histories are ordered), and mixtures sum that over components.
* ``NewcombModel``: a one-shot problem described by a 2x2 reward matrix and a
  predictor accuracy. The evaluation depends on the agent's policy directly,
  so measures and histories carry no state and conditioning is a no-op.
* ``JointHypothesisBanditModel``: bandit arms coupled through joint hypotheses
  over a shared finite reward support. This covers hypothesis classes that
  per-arm independent mixtures cannot express, such as anti-correlated arm
  probabilities or a catastrophic outcome attached to one arm.

The two bandit models share one surface, ``BanditModel``: return functions
over an ``(arms, outcomes)`` value table, ``(arm, outcome index)`` events,
one history type, ``OutcomeCountHistory`` (per-arm, per-outcome counts),
and every expectation built from the model's one per-arm value computation,
``expected_action_values``. A single pull, a mixed policy and a policy grid
therefore read the same bits per arm, which is what lets a one-point maximin
agent be the greedy classical one exactly. Each model supplies only its
measures, restriction and that one computation.

Posterior weights are computed in log space per component and renormalized
(per arm for the independent model, globally for the joint model) so that
histories with on the order of a thousand pulls do not underflow. Each
bandit measure builds its read-only log tables once. An independent-arm
measure keeps a one-entry posterior memo per arm, keyed by its count row. A
joint measure keeps one table entry per warmed count table, its
``(posterior, arm values, running sum)``. ``warm`` fills the tables of a
whole ``JointRoster`` (``(measure, value table)`` pairs, stacked and padded
once) from ``(measure, history)`` pairs in one numpy pass that treats every
measure alike, as the trap runner does before each step for every live
state of its roster; a read that misses warms its measure with its one
history by the same pass. Every row of a pass runs the operations of a
batch of one, and a hit returns the very array a miss produced: no bit
changes. A one-component independent arm skips the posterior arithmetic,
though an impossible history still raises on every call
(``_arm_posterior``). A measure of such arms is ``history_free``, so a
converged belief of them can be a fixed point of conditioning
(``updates``). ``restrict`` returns Python floats, so the scales and
offsets it feeds conditioning never become numpy scalars.

This module never imports scipy. The one scipy use in the package,
``inframeasure._convex_dominated``, imports it on first call, and
``tests/test_imports.py`` enforces this.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DegenerateUpdateError, RepresentationError

# Tolerance for weight sums and other normalization checks.
WEIGHT_TOL = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


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

    All values lie within the declared bounds ``[f_min, f_max]``. ``values``
    and ``action_probs`` are stored as read-only float copies, so a caller
    that later writes to its own arrays cannot move the table off its
    bounds, and a world model may key a memo on the table's identity.
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
            v = _read_only(np.array(self.values, dtype=float))
            if v.size and (v.min() < self.f_min - WEIGHT_TOL or v.max() > self.f_max + WEIGHT_TOL):
                raise RepresentationError("return values fall outside declared bounds")
            object.__setattr__(self, "values", v)
        if self.action_probs is not None:
            probs = _read_only(np.array(self.action_probs, dtype=float))
            object.__setattr__(self, "action_probs", probs)


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
    ``fixed_set`` caches the last tuple of history-free points that
    ``updates.condition`` found this event maps to itself (else ``None``).
    """

    model: "WorldModel"
    indicator: object
    offbranch_return: ReturnFunction
    fixed_set: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        owner = self.offbranch_return.model
        if owner is not self.model and owner != self.model:
            raise RepresentationError("off-branch return belongs to a different world model")
        if self.offbranch_return.f_min < 0.0:
            raise RepresentationError(
                "off-branch returns must be nonnegative; shift the reward convention"
            )
        self.model.validate_indicator(self.indicator)


class Restriction(NamedTuple):
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
    def validate_measure(self, measure: object) -> None: ...

    @abstractmethod
    def validate_indicator(self, indicator: object) -> None: ...

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

    def initial_history(self) -> object:
        """The empty history; ``None`` on history-free models."""
        return None

    def next_history(self, history: object, indicator: object) -> object:
        """The history after observing a validated event ``indicator``, shared
        by every point of a belief, so it is built once per observation.
        History-free models keep their history (``None``) unchanged. Trusted
        input: ``history`` passed its constructor and ``indicator`` passed
        ``validate_indicator``, so the successor skips the constructor's checks."""
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
    if not w.min() >= -WEIGHT_TOL:
        raise RepresentationError("mixture weights must be nonnegative")
    if not abs(w.sum() - 1.0) <= WEIGHT_TOL:
        raise RepresentationError(f"mixture weights sum to {w.sum()!r}, expected 1")
    return w


@dataclass(frozen=True)
class OutcomeCountHistory:
    """Both bandit models' history: ``counts[arm][outcome]``, checked by the
    constructor only (rows of one length, no count negative); a Bernoulli
    row is ``(failures, successes)``. The ``counts`` tuple keys a joint
    measure's table, and each row its arm's independent-arm memo."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(set(map(len, self.counts))) > 1:
            raise RepresentationError("count table must be (arms, outcomes); rows differ in length")
        if any(min(row, default=0) < 0 for row in self.counts):
            raise RepresentationError("counts must be nonnegative")


class BanditModel(WorldModel):
    """Shared surface of the bandit world models: ``arm_count`` arms, each
    pull yielding one of ``outcome_count`` outcome indices. A return function
    carries an ``(arms, outcomes)`` value table and the action distribution
    that mixes it; an event is an ``(arm, outcome index)`` pair; a history
    is an ``OutcomeCountHistory``. Every expectation is built from the
    subclass's ``expected_action_values``."""

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

    def initial_history(self) -> OutcomeCountHistory:
        return OutcomeCountHistory(((0,) * self.outcome_count,) * self.arm_count)

    def next_history(self, history: OutcomeCountHistory, indicator: tuple) -> OutcomeCountHistory:
        arm, outcome = indicator
        counts = history.counts
        row = list(counts[arm])
        row[outcome] += 1
        new = object.__new__(OutcomeCountHistory)
        new.__dict__["counts"] = counts[:arm] + (tuple(row),) + counts[arm + 1 :]
        return new

    def validate_indicator(self, ind: object) -> None:
        if (
            not isinstance(ind, tuple)
            or len(ind) != 2
            or not isinstance(ind[0], int)
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
    history_free = False

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

    def validate_measure(self, measure: object) -> None:
        if not isinstance(measure, FiniteOutcomeMeasure):
            raise RepresentationError("expected a FiniteOutcomeMeasure")
        if len(measure.masses) != self.outcome_count:
            raise RepresentationError("measure has the wrong number of outcomes")

    def validate_indicator(self, kept: object) -> None:
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
    last ``((failures, successes), posterior weights)`` computed for it, the
    key being the history's own count row (``None`` before the first, and
    always for a one-component arm). When every arm has one component, the
    predictive ignores the history (``history_free`` is true, as on no other
    measure). ``certain_arms`` lists the one-component arms whose ``p`` is 0
    or 1, the only point arms a history can refute. None of these takes
    part in equality or hashing. NaN weights or probabilities are rejected."""

    arms: tuple[tuple[tuple[float, float], ...], ...]
    tables: tuple[ArmTable, ...] = field(init=False, repr=False, compare=False)
    memo: list = field(init=False, repr=False, compare=False)
    certain_arms: tuple[int, ...] = field(init=False, repr=False, compare=False)
    history_free: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.arms:
            raise RepresentationError("bandit measure needs at least one arm")
        tables = []
        for components in self.arms:
            if not components:
                raise RepresentationError("every arm needs at least one component")
            w = np.array([c for c, _ in components], dtype=float)
            p = np.array([q for _, q in components], dtype=float)
            if not w.min() >= -WEIGHT_TOL:
                raise RepresentationError("component weights must be nonnegative")
            if not abs(w.sum() - 1.0) <= WEIGHT_TOL:
                raise RepresentationError(f"arm weights sum to {w.sum()!r}, expected 1")
            if not (p.min() >= 0.0 and p.max() <= 1.0):
                raise RepresentationError("success probabilities must lie in [0, 1]")
            with np.errstate(divide="ignore", invalid="ignore"):
                logs = np.log(w), np.log(p), np.log1p(-p)
            tables.append(ArmTable(*(_read_only(a) for a in (*logs, p))))
        point = all(t.p.size == 1 for t in tables)
        certain = tuple(j for j, t in enumerate(tables) if t.p.size == 1 and t.p[0] in (0.0, 1.0))
        object.__setattr__(self, "tables", tuple(tables))
        object.__setattr__(self, "memo", [None] * len(self.arms))
        object.__setattr__(self, "certain_arms", certain)
        object.__setattr__(self, "history_free", point)


def _arm_log_weights(table: ArmTable, failures: int, successes: int) -> np.ndarray:
    """Unnormalized log posterior weights of one arm's components."""
    lw = table.log_c
    if successes > 0:
        lw = lw + successes * table.log_p
    if failures > 0:
        lw = lw + failures * table.log1m_p
    return lw


# Posterior weights of a one-component arm: ``[1.0]`` on every possible history.
_POINT_WEIGHT = _read_only(np.ones(1))


def _check_point_arm(q: float, history: OutcomeCountHistory, arm: int) -> None:
    """Raise if the history refutes a one-component arm with success
    probability ``q``: a success under ``q == 0`` or a failure under ``q == 1``."""
    failures, successes = history.counts[arm]
    if (q == 0.0 and successes > 0) or (q == 1.0 and failures > 0):
        raise DegenerateUpdateError("history is impossible under every component of this arm")


def _arm_posterior(
    measure: BernoulliArmMeasure, history: OutcomeCountHistory, arm: int
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized posterior weights and success probabilities for one arm,
    both read-only; served from the arm's memo when its counts are unchanged.
    A one-component arm skips the memo and gets the shared ``[1.0]``: its
    weight is ``exp(0.0) / 1.0`` on any history that does not raise."""
    table = measure.tables[arm]
    if table.p.size == 1:
        _check_point_arm(table.p[0], history, arm)
        return _POINT_WEIGHT, table.p
    key = history.counts[arm]
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


def _draw_index(w: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn with probability ``w[i]``: the algorithm of
    ``rng.choice(w.size, p=w)`` without its per-call validation of ``w``,
    so it returns the same index and draws the same one uniform."""
    cdf = w.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def predictive(measure: BernoulliArmMeasure, history: OutcomeCountHistory, arm: int) -> float:
    """Posterior-predictive success probability of the next pull of ``arm``.

    Component weights are reweighted by the likelihood of the arm's observed
    counts and renormalized, so this is exactly the discrete-grid Bayes
    posterior predictive. A one-component arm returns its ``p`` itself, which
    is what ``np.dot([1.0], p)`` gives."""
    w, p = _arm_posterior(measure, history, arm)
    return float(p[0]) if p.size == 1 else float(np.dot(w, p))


@dataclass(frozen=True)
class BernoulliArmsModel(BanditModel):
    """Independent-armed Bernoulli bandit world model."""

    arm_count: int
    outcome_count = 2

    def validate_measure(self, measure: object) -> None:
        if not isinstance(measure, BernoulliArmMeasure):
            raise RepresentationError("expected a BernoulliArmMeasure")
        if len(measure.arms) != self.arm_count:
            raise RepresentationError("measure has the wrong arm count")

    def _check_history(self, history: OutcomeCountHistory) -> None:
        # The constructor gave every row one length, so row 0 stands for all.
        counts = history.counts
        if len(counts) != self.arm_count or len(counts[0]) != self.outcome_count:
            raise RepresentationError("count table must be (arms, outcomes)")

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
        self, measure: BernoulliArmMeasure, history: OutcomeCountHistory, values: np.ndarray
    ) -> np.ndarray:
        self._check_history(history)
        out = np.empty(self.arm_count)
        for arm in range(self.arm_count):
            p1 = predictive(measure, history, arm)
            out[arm] = (1.0 - p1) * values[arm, 0] + p1 * values[arm, 1]
        return out

    def sampled_action_values(
        self,
        measure: BernoulliArmMeasure,
        history: OutcomeCountHistory,
        values: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Expected return per arm under one hypothesis component per arm,
        sampled proportionally to its posterior weight."""
        self._check_history(history)
        out = np.empty(self.arm_count)
        for arm in range(self.arm_count):
            w, p = _arm_posterior(measure, history, arm)
            q = p[_draw_index(w, rng)]
            out[arm] = (1.0 - q) * values[arm, 0] + q * values[arm, 1]
        return out

    def restrict(
        self, measure: BernoulliArmMeasure, history: OutcomeCountHistory, event: ObservationEvent
    ) -> Restriction:
        """The observed arm's predictive mass and the off-branch credit, as
        Python floats. The history's shape is checked first; the
        predictive raises if it refutes the observed arm."""
        self._check_history(history)
        arm, outcome = event.indicator
        p1 = predictive(measure, history, arm)
        p_obs = p1 if outcome == 1 else 1.0 - p1
        off_outcome = 1 - outcome
        g = event.offbranch_return.values
        off_value = (1.0 - p_obs) * float(g[arm, off_outcome])
        return Restriction(measure, p_obs, off_value)

    def check_points(self, points, history: OutcomeCountHistory, event=None) -> None:
        """The history checks of restricting (given ``event``) or valuing
        every nonzero-scale point of a memo hit's point set: the shared
        history's shape once, then each certain arm (with an event, only
        the event's arm), so a hit raises what the miss would raise first."""
        self._check_history(history)
        for a in points:
            if a.scale != 0.0 and a.measure.certain_arms:
                for arm in a.measure.certain_arms:
                    if event is None or arm == event.indicator[0]:
                        _check_point_arm(a.measure.tables[arm].p[0], history, arm)

    def mix(
        self, measures: Sequence[BernoulliArmMeasure], weights: Sequence[float]
    ) -> BernoulliArmMeasure:
        """Convex combination of bandit measures.

        Per arm, component lists are concatenated with weights scaled by the
        mixture weight; components with identical success probability are
        merged and zero-weight entries dropped."""
        w = _check_weights(weights)
        if len(measures) != w.size:
            raise RepresentationError("measure and weight counts differ")
        arm_count = len(measures[0].arms)
        if any(len(m.arms) != arm_count for m in measures):
            raise RepresentationError("all measures must have the same arm count")
        arms = []
        for arm in range(arm_count):
            merged: dict[float, float] = {}
            for wk, m in zip(w, measures):
                for c, p in m.arms[arm]:
                    if wk * c == 0.0:
                        continue
                    merged[p] = merged.get(p, 0.0) + wk * c
            arms.append(tuple((c, p) for p, c in merged.items()))
        return BernoulliArmMeasure(tuple(arms))


# ---------------------------------------------------------------------------
# Newcomb-like problems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatelessMeasure:
    """Placeholder measure for world models that carry no stochastic state."""

    history_free = False


STATELESS = StatelessMeasure()

# Action index 0 is one-boxing, index 1 two-boxing; prediction index likewise.
DEFAULT_NEWCOMB_MATRIX = ((10.0, 0.0), (11.0, 1.0))


def newcomb_prediction_prob(p_one_box: float, accuracy: float) -> float:
    """Probability the predictor forecasts one-boxing against policy ``p``.

    The predictor guesses the sampled action correctly with probability
    ``accuracy`` and guesses uniformly otherwise, which collapses to
    ``p * (2 * accuracy - 1) + 0.5 * (2 - 2 * accuracy)``. Accuracy 0.5 is an
    uninformed coin flip; accuracy 1 mirrors the policy exactly. Arrays of
    one-boxing probabilities or accuracies are not range-checked here: they
    hold policy rows, checked by ``Policy``, or a sweep's cells, checked by
    their ``NewcombModel``."""
    if not isinstance(p_one_box, np.ndarray) and not 0.0 <= p_one_box <= 1.0:
        raise ConfigError("one-boxing probability must lie in [0, 1]")
    if not isinstance(accuracy, np.ndarray) and not 0.5 <= accuracy <= 1.0:
        raise ConfigError("predictor accuracy must lie in [0.5, 1]")
    return p_one_box * (2.0 * accuracy - 1.0) + 0.5 * (2.0 - 2.0 * accuracy)


@dataclass(frozen=True)
class NewcombModel(WorldModel):
    """One-shot predictor problem: a 2x2 reward matrix indexed by
    (action, prediction) plus the predictor accuracy.

    The value of a policy is computed analytically, action and prediction
    drawn independently given the policy, so beliefs over this model are
    policy-dependent but observation-independent. ``table`` is the matrix
    as a read-only float array, built once; every expectation reads it."""

    reward_matrix: tuple[tuple[float, float], tuple[float, float]] = DEFAULT_NEWCOMB_MATRIX
    accuracy: float = 0.5
    table: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        table = np.array(self.reward_matrix, dtype=float)
        if table.shape != (2, 2) or not all(map(math.isfinite, table.ravel().tolist())):
            raise ConfigError("reward matrix must be a finite 2x2 table")
        if not 0.5 <= self.accuracy <= 1.0:
            raise ConfigError("predictor accuracy must lie in [0.5, 1]")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def validate_measure(self, measure: object) -> None:
        if not isinstance(measure, StatelessMeasure):
            raise RepresentationError("expected the stateless placeholder measure")

    def validate_indicator(self, indicator: object) -> None:
        if indicator is not None:
            raise RepresentationError("Newcomb observations carry no branch structure")

    def policy_return(self, p_one_box: float) -> ReturnFunction:
        if not 0.0 <= p_one_box <= 1.0:
            raise RepresentationError("one-boxing probability must lie in [0, 1]")
        return ReturnFunction(
            model=self,
            f_min=float(self.table.min()),
            f_max=float(self.table.max()),
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
        return _newcomb_expectation(probs[:, 0], self.accuracy, self.table)

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


def _newcomb_expectation(p_one_box, accuracy, table: np.ndarray):
    """Expectation of ``table[action][prediction]`` with the action drawn
    from the policy and the prediction drawn with the accuracy-tilted
    probability. Arrays (of policies, or a policy column against a row of
    accuracies) run the same products and sums, so each entry equals the
    single call's value."""
    q = newcomb_prediction_prob(p_one_box, accuracy)
    action_probs = np.array([p_one_box, 1.0 - p_one_box]).T
    prediction_probs = np.array([q, 1.0 - q]).T
    return np.vecdot(action_probs @ table, prediction_probs)


def newcomb_expected_reward(p_one_box: float, model: NewcombModel) -> float:
    """Expected reward of the policy that one-boxes with probability ``p``.

    With the default matrix this is affine in ``p`` with slope
    ``20 * accuracy - 11``, so the optimal policy flips at accuracy 0.55.

    In general it is quadratic in ``p``, with leading coefficient
    ``(2 * accuracy - 1) * (m00 - m01 - m10 + m11)``. It is affine, so the
    two deterministic policies bound every mixed policy, only when that
    coefficient is 0: for the default matrix, or at accuracy 0.5. Otherwise
    a mixed policy can beat both; with matrix ``((0, 2), (2, 0))`` at
    accuracy 1, one-boxing with probability 0.5 is worth 1 and both
    deterministic policies are worth 0."""
    return float(_newcomb_expectation(p_one_box, model.accuracy, model.table))


def newcomb_reward_moments(p_one_box, accuracies, table) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments of the reward under a model's ``table``: one
    row per accuracy (a sweep's cells, checked by their models) and one
    column per one-boxing probability (a policy grid's). Each entry equals
    that one policy's moment in that one cell computed alone."""
    column, accuracy = p_one_box[:, None], np.array(accuracies, dtype=float)
    return (
        _newcomb_expectation(column, accuracy, table),
        _newcomb_expectation(column, accuracy, table * table),
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
    are read-only arrays built once. ``table`` is ``[value table,
    entries]`` from the last ``JointHypothesisBanditModel.warm`` that gave
    this measure histories (one pass warms every measure of a roster):
    ``entries`` maps each of those count tables to one read-only
    ``(posterior, arm values, running sum)``, the arm values under that
    value table (zeros under ``None``) and the running sum the normalized
    cumulative posterior that Thompson sampling searches. ``rows`` is the
    last ``(value table, per-hypothesis arm values)`` that Thompson
    sampling read. Neither takes part in equality or hashing."""

    weights: tuple[float, ...]
    outcome_probs: tuple[tuple[tuple[float, ...], ...], ...]
    history_free = False
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    probs: np.ndarray = field(init=False, repr=False, compare=False)
    log_probs: np.ndarray = field(init=False, repr=False, compare=False)
    table: list = field(init=False, repr=False, compare=False)
    rows: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.size == 0:
            raise RepresentationError("joint measure needs at least one hypothesis")
        if not (w.min() >= -WEIGHT_TOL and abs(w.sum() - 1.0) <= WEIGHT_TOL):
            raise RepresentationError("hypothesis weights must be nonnegative and sum to 1")
        probs = np.array(self.outcome_probs, dtype=float)
        if probs.ndim != 3 or probs.shape[0] != w.size:
            raise RepresentationError("need one (arm, outcome) probability table per hypothesis")
        if not probs.min() >= 0.0:
            raise RepresentationError("outcome probabilities must be nonnegative")
        if not np.abs(probs.sum(axis=2) - 1.0).max() <= WEIGHT_TOL:
            raise RepresentationError("each arm's outcome probabilities must sum to 1")
        with np.errstate(divide="ignore"):
            log_weights = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf)
            log_probs = np.log(probs)
        object.__setattr__(self, "log_weights", _read_only(log_weights))
        object.__setattr__(self, "probs", _read_only(probs))
        object.__setattr__(self, "log_probs", _read_only(log_probs))
        object.__setattr__(self, "table", [None, {}])
        object.__setattr__(self, "rows", [None, None])


class JointRoster(NamedTuple):
    """Joint measures that ``JointHypothesisBanditModel.warm`` fills in one
    pass, each with its value table (or ``None``), their arrays stacked once
    in order of hypothesis count. ``values``, ``sizes`` (hypothesis counts)
    and ``index`` (position by ``id``) follow that order, and ``groups``
    holds ``(count, first, last + 1)`` per run of measures with one count.
    ``log_weights``, ``log_probs`` and ``probs`` are padded to the largest
    count with ``-inf`` weights and zero probabilities; ``returns`` stacks
    the value tables, zeros for ``None``."""

    measures: tuple[JointHypothesisMeasure, ...]
    values: tuple[np.ndarray | None, ...]
    sizes: tuple[int, ...]
    index: dict[int, int]
    groups: tuple[tuple[int, int, int], ...]
    log_weights: np.ndarray
    log_probs: np.ndarray
    probs: np.ndarray
    returns: np.ndarray


@dataclass(frozen=True)
class JointHypothesisBanditModel(BanditModel):
    """Bandit whose arms share ``outcome_count`` reward outcomes and are
    coupled through joint hypotheses."""

    arm_count: int
    outcome_count: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.outcome_count < 2:
            raise ConfigError("outcome_count must be at least 2")

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

    def roster(self, pairs: Sequence[tuple[JointHypothesisMeasure, np.ndarray | None]]) -> JointRoster:
        """The ``JointRoster`` of ``(measure, value table)`` pairs, ``None``
        for a read that has no value table; a measure or value table of the
        wrong shape raises ``RepresentationError``."""
        for m, v in pairs:
            self.validate_measure(m)
            if v is not None and v.shape != m.probs.shape[1:]:
                raise RepresentationError("return table must be (arms, outcomes)")
        measures, values = zip(*sorted(pairs, key=lambda pair: pair[0].probs.shape[0]))
        sizes = tuple(m.probs.shape[0] for m in measures)
        shape = (len(measures), max(sizes), self.arm_count, self.outcome_count)
        log_weights, log_probs, probs = np.full(shape[:2], -np.inf), np.full(shape, -np.inf), np.zeros(shape)
        for i, (m, n) in enumerate(zip(measures, sizes)):
            log_weights[i, :n], log_probs[i, :n], probs[i, :n] = m.log_weights, m.log_probs, m.probs
        returns = np.array([np.zeros(shape[2:]) if v is None else v for v in values], dtype=float)
        # Sorted, so the measures of one count are one run.
        groups = tuple((n, sizes.index(n), sizes.index(n) + sizes.count(n)) for n in dict.fromkeys(sizes))
        return JointRoster(
            measures, values, sizes, {id(m): i for i, m in enumerate(measures)},
            groups, log_weights, log_probs, probs, returns,
        )

    def warm(
        self, roster: JointRoster, points: Sequence[tuple[JointHypothesisMeasure, OutcomeCountHistory]]
    ) -> None:
        """Replace the table of every roster measure that ``points`` pairs
        with histories by one entry per history: its posterior, its arm
        values under the measure's roster value table, and the running sum
        Thompson sampling searches, all in one numpy pass over the stacked
        counts. Each row runs the operations a batch of one runs, so an
        entry has the same bits whatever else shares the pass. A history
        impossible under every hypothesis of its measure is dropped before
        ``exp``, so reading it raises ``DegenerateUpdateError``; a count
        table that is not ``(arms, outcomes)`` raises
        ``RepresentationError``."""
        histories = [[] for _ in roster.measures]
        for m, h in points:
            histories[roster.index[id(m)]].append(h)
        keys = [h.counts for hs in histories for h in hs]
        if not keys:
            return
        lens = list(map(len, histories))
        rows = tuple(chain.from_iterable(keys))
        if set(map(len, keys)) != {self.arm_count} or set(map(len, rows)) != {self.outcome_count}:
            raise RepresentationError("count table must be (arms, outcomes)")
        counts = np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * self.outcome_count)
        counts = counts.reshape(len(keys), 1, self.arm_count, self.outcome_count)
        # Rows lie measure by measure, on arrays padded to the longest
        # measure: ``count * log p``, and 0 where the count is 0 (also where
        # p is 0); padded hypotheses get a ``-inf`` log weight.
        owner = np.repeat(np.arange(len(lens)), lens)
        log_probs = roster.log_probs.take(owner, axis=0)
        terms = np.zeros(log_probs.shape)
        np.multiply(counts, log_probs, out=terms, where=counts > 0)
        lw = roster.log_weights.take(owner, axis=0) + terms.sum(axis=(2, 3))
        peak = lw.max(axis=1, keepdims=True)
        if peak.min() == -np.inf:
            possible = peak[:, 0] > -np.inf
            keys = [k for k, ok in zip(keys, possible.tolist()) if ok]
            lw, peak, owner = lw[possible], peak[possible], owner[possible]
            lens = np.bincount(owner, minlength=len(lens)).tolist()
        post = np.exp(lw - peak)
        # A batch of one sums its measure's own hypotheses, so each run of
        # measures with one hypothesis count is normalized over that count.
        bounds = list(accumulate(lens, initial=0))
        for n, first, last in roster.groups:
            part = post[bounds[first] : bounds[last], :n]
            part /= part.sum(axis=1, keepdims=True)
        post = _read_only(post)
        # Thompson's draw searches the posterior's running sum over its last
        # entry, as ``_draw_index`` does; padded hypotheses add zeros.
        cdf = post.cumsum(axis=1)
        cdf = _read_only(cdf / cdf[:, -1:])
        # Sum over outcomes, then over hypotheses, each in index order: the
        # order of ``np.einsum("c,cjo,jo->j", post, probs, values)`` when
        # there are at least two arms. Padded hypotheses add zeros.
        terms = post[:, :, None, None] * roster.probs.take(owner, axis=0)
        terms *= roster.returns.take(owner, axis=0)[:, None]
        per_hypothesis = terms[..., 0]
        for o in range(1, self.outcome_count):
            per_hypothesis = per_hypothesis + terms[..., o]
        out = per_hypothesis[:, 0]
        for c in range(1, post.shape[1]):
            out = out + per_hypothesis[:, c]
        out = _read_only(out)
        for i, m in enumerate(roster.measures):
            if histories[i]:
                n, span = roster.sizes[i], slice(bounds[i], bounds[i + 1])
                entries = zip(post[span, :n], out[span], cdf[span, :n])
                m.table[:] = roster.values[i], dict(zip(keys[span], entries))

    def _warmed(
        self, measure: JointHypothesisMeasure, values: np.ndarray | None, history: OutcomeCountHistory
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table entry of ``history`` after warming ``measure`` with it
        alone and ``values``; an impossible history raises."""
        self.warm(self.roster(((measure, values),)), ((measure, history),))
        entry = measure.table[1].get(history.counts)
        if entry is None:
            raise DegenerateUpdateError("history is impossible under every joint hypothesis")
        return entry

    def _posterior(
        self, measure: JointHypothesisMeasure, history: OutcomeCountHistory
    ) -> np.ndarray:
        """Posterior hypothesis weights, read-only, from the measure's
        table; a miss warms the table with this one history."""
        entry = measure.table[1].get(history.counts)
        if entry is None:
            entry = self._warmed(measure, None, history)
        return entry[0]

    def predictive_outcome_probs(
        self, measure: JointHypothesisMeasure, history: OutcomeCountHistory, arm: int
    ) -> np.ndarray:
        return self._posterior(measure, history) @ measure.probs[:, arm, :]

    def expected_action_values(
        self, measure: JointHypothesisMeasure, history: OutcomeCountHistory, values: np.ndarray
    ) -> np.ndarray:
        """Read-only, from the measure's table when the last warm was given
        this very read-only ``values``; a miss warms it with this history."""
        table = measure.table
        if table[0] is values and not values.flags.writeable:
            entry = table[1].get(history.counts)
            if entry is not None:
                return entry[1]
        return self._warmed(measure, values, history)[1]

    def sampled_action_values(
        self,
        measure: JointHypothesisMeasure,
        history: OutcomeCountHistory,
        values: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Expected return per arm under one joint hypothesis sampled from the
        posterior (hypotheses are joint, so one draw covers every arm), the
        index ``_draw_index`` draws, searched in the running sum of the
        measure's table entry; a miss warms it with this history. Each
        hypothesis's row is computed once per read-only value table."""
        entry = measure.table[1].get(history.counts)
        if entry is None:
            entry = self._warmed(measure, values, history)
        memo = measure.rows
        if memo[0] is not values or values.flags.writeable:
            rows = tuple(_read_only(np.einsum("jo,jo->j", p, values)) for p in measure.probs)
            memo[:] = values, rows
        return memo[1][int(entry[2].searchsorted(rng.random(), side="right"))]

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

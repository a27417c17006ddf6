"""Affine-measure algebra: points, finite point sets, and their lower
expectations.

A point ``a`` evaluates a bounded return function ``f`` as

    a(f) = scale * E[f | history] + offset

where the conditional expectation is delegated to the point's world model.
The scale is a nonnegative multiplier on the measure component and the
nonnegative offset carries the return already banked on branches the point
has ruled out. A belief is a finite nonempty set of such points over a shared
world model, together with the one history they are all conditioned on,
evaluated pessimistically:

    lower_expectation(psi, f) = min over points of a(f).

A single point therefore reduces to an ordinary expectation, a classical
mixture combines points linearly, and a Knightian combination is a plain set
union whose lower expectation is the envelope (pointwise minimum) of its
parts. ``lower_expectations`` scores a whole matrix of policies at once: one
world-model call per point, then, on Python floats, each point's affine map
and the minimum over points per policy, bit for bit what numpy would give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import RepresentationError
from .worldmodels import ExplicitFiniteModel, ReturnFunction, WorldModel, _check_weights

# Absolute tolerance for value comparisons (ties, weight sums).
VALUE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AMeasure:
    """One affine evaluator ``(scale, measure, offset)``.

    The point carries no history: it is valued at the history of the belief
    it belongs to. The measure representation is owned by ``model`` and stays
    normalized within that representation; restriction bookkeeping lives in
    the belief's history plus ``scale`` (bandit-type models) or in the mass
    vector itself (explicit finite models). A zero-scale point is a refuted
    hypothesis whose value has settled at its offset."""

    scale: float
    measure: object
    offset: float
    model: WorldModel

    def __post_init__(self) -> None:
        _check_scale_offset(self.scale, self.offset)
        self.model.validate_measure(self.measure)


_new_object = object.__new__


def _point(scale: float, measure: object, offset: float, model: WorldModel) -> AMeasure:
    """A point whose scale and offset the caller has already checked and
    whose measure ``model`` already holds valid: the fields are written into
    the frozen instance's ``__dict__``, where ``__init__`` puts them, and
    nothing is re-run."""
    a = _new_object(AMeasure)
    fields = a.__dict__
    fields["scale"], fields["measure"] = scale, measure
    fields["offset"], fields["model"] = offset, model
    return a


def _belief(points: tuple[AMeasure, ...], history: object) -> "Infradistribution":
    """A belief whose points the caller knows to be nonempty and on one
    world model, built as ``_point`` builds a point."""
    psi = _new_object(Infradistribution)
    psi.__dict__["points"], psi.__dict__["history"] = points, history
    return psi


def _check_scale_offset(scale: float, offset: float) -> None:
    """Raise ``RepresentationError`` unless both are nonnegative (NaN fails)."""
    if not scale >= 0.0:
        raise RepresentationError(f"scale must be nonnegative, got {scale!r}")
    if not offset >= 0.0:
        raise RepresentationError(f"offset must be nonnegative, got {offset!r}")


def evaluate(a: AMeasure, f: ReturnFunction, history: object) -> float:
    """Value ``a(f) = scale * E[f | history] + offset``.

    Zero-scale points skip the expectation entirely; the history may be
    impossible under their own measure, and their value is the offset."""
    if f.model is not a.model and f.model != a.model:
        raise RepresentationError("return function belongs to a different world model")
    if a.scale == 0.0:
        return a.offset
    return a.scale * a.model.expectation(a.measure, history, f) + a.offset


@dataclass(frozen=True, eq=False)
class Infradistribution:
    """Finite nonempty set of extremal points over one world model, and the
    one history every point is valued at. ``None`` is the history of the
    history-free models (explicit finite and Newcomb)."""

    points: tuple[AMeasure, ...]
    history: object = None

    def __post_init__(self) -> None:
        if not self.points:
            raise RepresentationError("an infradistribution needs at least one point")
        first = self.points[0]
        for a in self.points[1:]:
            if a.model is not first.model and a.model != first.model:
                raise RepresentationError("all points must share one world model")

    @property
    def model(self) -> WorldModel:
        return self.points[0].model

    @classmethod
    def singleton(cls, point: AMeasure, history: object = None) -> "Infradistribution":
        return cls((point,), history)


def lower_expectation(psi: Infradistribution, f: ReturnFunction) -> float:
    """Worst-case value of ``f``: the minimum over the belief's points."""
    return min(evaluate(a, f, psi.history) for a in psi.points)


def lower_expectations(psi: Infradistribution, f: ReturnFunction, probs: np.ndarray) -> np.ndarray:
    """Worst-case value of ``f`` under each row of ``probs``, a (policies,
    actions) matrix of action distributions.

    Each point values every policy in one world-model call; a zero-scale
    point contributes its offset, as in ``evaluate``. The rest is done on
    Python floats: each value is ``scale * e + offset``, the IEEE operations
    numpy would run elementwise, and the minimum over points is taken as
    ``min`` takes it (a later point wins only when strictly lower). Every
    world model values each row as its ``expectation`` values that row's
    policy, so entry ``i`` equals ``lower_expectation`` of ``f`` mixed by
    row ``i``. The result is a float array."""
    model = psi.model
    if f.model is not model and f.model != model:
        raise RepresentationError("return function belongs to a different world model")
    history = psi.history
    worst = None
    for a in psi.points:
        scale, offset = a.scale, a.offset
        if scale == 0.0:
            values = [offset] * len(probs)
        else:
            expected = a.model.policy_expectations(a.measure, history, f, probs).tolist()
            values = [scale * e + offset for e in expected]
        worst = values if worst is None else [v if v < w else w for v, w in zip(values, worst)]
    return np.array(worst)


def _common_frame(components: Sequence[Infradistribution]) -> tuple[WorldModel, object]:
    if not components:
        raise RepresentationError("need at least one component")
    model = components[0].model
    history = components[0].history
    for psi in components[1:]:
        if psi.model != model:
            raise RepresentationError("components live on different world models")
        if psi.history != history:
            raise RepresentationError("components are conditioned on different histories")
    return model, history


def mix_classical(
    components: Sequence[Infradistribution], weights: Sequence[float]
) -> Infradistribution:
    """Weighted classical mixture of beliefs.

    The result's point set is every weighted combination of one point per
    component: combined scale is the weighted sum of scales, combined offset
    the weighted sum of offsets, and the measure combination is delegated to
    the world model with weights proportional to ``weight * scale``. The
    result has at most the product of the component sizes before pruning."""
    w = _check_weights(weights)
    if len(components) != w.size:
        raise RepresentationError("component and weight counts differ")
    model, history = _common_frame(components)
    points = []
    for combo in itertools.product(*(psi.points for psi in components)):
        scale = float(np.dot(w, [a.scale for a in combo]))
        offset = float(np.dot(w, [a.offset for a in combo]))
        if scale > 0.0:
            eff = np.array([wk * a.scale for wk, a in zip(w, combo)]) / scale
            measure = model.mix([a.measure for a in combo], eff)
        else:
            measure = combo[0].measure
        points.append(AMeasure(scale, measure, offset, model))
    return Infradistribution(tuple(points), history)


def mix_knightian(components: Sequence[Infradistribution]) -> Infradistribution:
    """Knightian combination: the union of the components' point sets.

    The lower expectation of the union is the minimum of the components'
    lower expectations (worst case over unresolvable alternatives)."""
    _, history = _common_frame(components)
    points = tuple(a for psi in components for a in psi.points)
    return Infradistribution(points, history)


def _finite_dominated(points: Sequence[AMeasure]) -> list[bool]:
    """Componentwise domination on explicit finite points.

    Point ``a`` is removable when some other point has every effective
    outcome mass (scale times mass) and the offset no larger, strictly
    smaller somewhere: that point values every nonnegative return function
    at or below ``a``, so ``a`` can never attain the minimum alone."""
    effective = [np.asarray(a.measure.masses) * a.scale for a in points]
    offsets = [a.offset for a in points]
    removable = [False] * len(points)
    for i, j in itertools.permutations(range(len(points)), 2):
        if removable[j]:
            continue
        below = np.all(effective[j] <= effective[i]) and offsets[j] <= offsets[i]
        strict = np.any(effective[j] < effective[i]) or offsets[j] < offsets[i]
        if below and strict:
            removable[i] = True
    return removable


def _convex_dominated(points: Sequence[AMeasure], index: int) -> bool:
    """True when the point's evaluator is everywhere at or above a convex
    combination of the other points (checked by linear feasibility on the
    effective masses and offsets)."""
    from scipy.optimize import linprog

    others = [a for i, a in enumerate(points) if i != index]
    if not others:
        return False
    target = points[index]
    target_mass = np.asarray(target.measure.masses) * target.scale
    mass = np.stack([np.asarray(a.measure.masses) * a.scale for a in others])
    offsets = np.array([a.offset for a in others])
    # Variables: one convex weight per other point.
    a_ub = np.vstack([mass.T, offsets[None, :]])
    b_ub = np.append(target_mass, target.offset)
    a_eq = np.ones((1, len(others)))
    result = linprog(
        c=np.zeros(len(others)),
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=(0.0, 1.0),
        method="highs",
    )
    return bool(result.success)


def _kept_points(
    points: Sequence[AMeasure], model: WorldModel, offset_bound: float = np.inf
) -> list[AMeasure]:
    """The points ``prune`` keeps before its convex test, in order: every
    point with offset at most ``offset_bound`` that is not a duplicate of an
    earlier one, and on explicit finite models no componentwise-dominated
    point. Duplicates are found by ``(scale, offset)`` first; measures are
    compared (``is``, then ``==``) only among points that share both."""
    seen: dict[tuple[float, float], list[object]] = {}
    kept = []
    for a in points:
        if not a.offset <= offset_bound:
            continue
        measures = seen.setdefault((a.scale, a.offset), [])
        for m in measures:
            if m is a.measure or m == a.measure:
                break
        else:
            measures.append(a.measure)
            kept.append(a)
    if len(kept) > 1 and isinstance(model, ExplicitFiniteModel):
        removable = _finite_dominated(kept)
        kept = [a for a, gone in zip(kept, removable) if not gone]
    return kept


def prune(
    psi: Infradistribution, convex: bool = False, offset_bound: float = np.inf
) -> Infradistribution:
    """Remove redundant points without moving any lower expectation.

    Exact duplicates are always removed, and so is every point whose offset
    is strictly above ``offset_bound``: on a renormalized belief, with the
    bound ``M = max(1, f_max)``, such a point never attains the minimum of a
    return valued in ``[0, M]`` (see ``updates``). On explicit finite models,
    componentwise-dominated points go as well, and with ``convex=True`` so do
    points dominated by a convex combination of the others; these removals
    preserve ``lower_expectation`` for every nonnegative bounded return."""
    kept = _kept_points(psi.points, psi.model, offset_bound)
    if convex and isinstance(psi.model, ExplicitFiniteModel):
        changed = True
        while changed and len(kept) > 1:
            changed = False
            for i in range(len(kept)):
                if _convex_dominated(kept, i):
                    kept.pop(i)
                    changed = True
                    break
    return Infradistribution(tuple(kept), psi.history)

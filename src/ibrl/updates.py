"""Belief conditioning: one-pass ``condition``, and its three public stages
``update_infra`` (with ``raw_update`` per point), ``renormalize`` and
``inframeasure.prune``.

Observing a branch ``L`` with off-branch return ``g`` maps each point

    (scale * measure, offset)
        -> (scale * measure restricted to L,
            offset + scale * E[(1 - L) * g | history])

so the measure keeps only on-branch mass while the offset banks the expected
return of the branches just ruled out. With ``g`` equal to the return
function itself, the pre-update value of the current round is conserved. The
raw update is affine in the point, so updating a belief updates each point
independently and creates no new points. The history belongs to the belief,
not to its points, so it advances once per observation.

Raw updates shrink scales and grow offsets, so the updated point set is
renormalized as a whole: with

    alpha = lower expectation of the constant 0 (the minimum offset)
    beta  = lower expectation of the constant 1
            (the minimum of scale * conditioned mass + offset)

every point maps to ``((scale, measure) / (beta - alpha),
(offset - alpha) / (beta - alpha))``. The same two constants apply to every
point, which is what lets relative scales shift toward points that predicted
the observation well. After renormalization the constants 0 and 1 evaluate
to exactly 0 and 1 again.

Renormalized points are then pruned by range domination. With ``M = max(1,
f_max)`` bounding the off-branch return, the point attaining beta = 1 values
every return in ``[0, M]`` at most ``M``, so a point with offset ``> M`` never
attains the minimum, now or later (raw updates mix returns inside ``[0, M]``;
renormalization is increasing affine). Alpha and beta stay attained by kept
points, so their bits never change, and lower expectations of returns bounded
by ``M`` are preserved while later off-branch returns share that bound, as an
agent's one return does. The test is strict: a zero-scale point at offset
exactly ``M`` may be the one attaining beta.

``condition`` runs the three steps in one pass. It restricts each point once
and keeps its raw scale and offset as floats; it then takes alpha and beta,
checks the span, renormalizes, range-prunes and drops duplicates, and builds
one ``AMeasure`` per renormalized point and one ``Infradistribution``. Every
number is checked where a stage would check it, so a negative or NaN scale or
offset raises ``RepresentationError`` before pruning could drop it. The
staged functions share its private helpers, so the raw update, alpha and
beta, renormalization, duplicate and range rules are each written once, and
they stay the reference it is tested against: ``prune(renormalize(
update_infra(psi, event)), offset_bound=M)``, with the same degenerate-span
fallback, equals ``condition(psi, event)`` point for point and bit for bit.

A converged belief is a fixed point: when every measure is ``history_free``
and the kept points equal the input (scales and offsets ``==``, measures
``is``), ``condition`` returns the input's own tuple and the event keeps it
as ``fixed_set``. A call on that very tuple runs only ``restrict``'s history
checks (``check_points``: the shared history's shape once, then the observed
arm of each nonzero-scale point if its ``p`` is 0 or 1), then ``next_history``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DegenerateUpdateError, RepresentationError
from .inframeasure import AMeasure, Infradistribution, _check_scale_offset, _kept_points, _point
from .inframeasure import _belief
from .worldmodels import ObservationEvent, WorldModel

# A renormalization span at or below this is treated as a refuted belief.
DEGENERATE_TOL = 1e-12

# A point's (scale, measure, offset) while it is being conditioned.
_Numbers = tuple[float, object, float]


def _check_event(event: ObservationEvent, model: WorldModel) -> None:
    if event.model is not model and event.model != model:
        raise RepresentationError("event belongs to a different world model")


def _raw_points(
    points: Sequence[AMeasure], event: ObservationEvent, history: object, model: WorldModel
) -> list[_Numbers]:
    """The raw update of each point, checked as ``AMeasure`` checks a point:
    scale, then offset, then a measure ``restrict`` returned anew. A
    zero-scale point keeps its numbers."""
    out = []
    for a in points:
        scale, measure, offset = a.scale, a.measure, a.offset
        if scale != 0.0:
            restricted, factor, off_value = model.restrict(measure, history, event)
            scale, offset = scale * factor, offset + scale * off_value
            if not (scale >= 0.0 and offset >= 0.0):
                _check_scale_offset(scale, offset)
            if restricted is not measure:
                measure = restricted
                model.validate_measure(measure)
        out.append((scale, measure, offset))
    return out


def _masses(points: list[_Numbers], model: WorldModel, history: object) -> list[float | None]:
    """``scale * conditioned mass`` per point, ``None`` at zero scale, whose
    measure is never consulted."""
    return [
        None if scale == 0.0 else scale * model.conditioned_mass(measure, history)
        for scale, measure, _ in points
    ]


def _alpha_span(points: list[_Numbers], masses: list[float | None]) -> tuple[float, float]:
    """Alpha, the least offset, and ``beta - alpha``, with beta the least
    ``scale * conditioned mass + offset`` (the offset at zero scale). Each
    least value is taken by ``min``'s rule (the first value, replaced only
    by a strictly smaller one) in one loop, with no list built for either.
    A span at or below tolerance raises ``DegenerateUpdateError``."""
    alpha = beta = None
    for (_, _, offset), mass in zip(points, masses):
        one = offset if mass is None else mass + offset
        if alpha is None:
            alpha, beta = offset, one
            continue
        if offset < alpha:
            alpha = offset
        if one < beta:
            beta = one
    span = beta - alpha
    if span <= DEGENERATE_TOL:
        raise DegenerateUpdateError(
            f"renormalization span {span!r} is degenerate (observation has zero lower probability)"
        )
    return alpha, span


def _renormalized(
    points: list[_Numbers], alpha: float, span: float, model: WorldModel
) -> list[AMeasure]:
    """Every point under the shared affine map, each scale and offset
    checked as it is built."""
    out = []
    for scale, measure, offset in points:
        scale, offset = scale / span, (offset - alpha) / span
        if not (scale >= 0.0 and offset >= 0.0):
            _check_scale_offset(scale, offset)
        out.append(_point(scale, measure, offset, model))
    return out


def raw_update(a: AMeasure, event: ObservationEvent, history: object) -> AMeasure:
    """Restrict one point, valued at ``history`` (the history before the
    observation), to the event's branch and bank the off-branch return into
    its offset. A zero-scale point is returned unchanged: its value is its
    offset whatever its measure."""
    _check_event(event, a.model)
    if a.scale == 0.0:
        return a
    ((scale, measure, offset),) = _raw_points((a,), event, history, a.model)
    return _point(scale, measure, offset, a.model)


def update_infra(psi: Infradistribution, event: ObservationEvent) -> Infradistribution:
    """Raw-update every point against the belief's history, then advance that
    history once. The update is affine, so the point set maps pointwise and
    its size never grows."""
    points = tuple(raw_update(a, event, psi.history) for a in psi.points)
    return Infradistribution(points, psi.model.next_history(psi.history, event.indicator))


def renormalize(psi: Infradistribution) -> Infradistribution:
    """Rescale and shift the whole point set so the constants 0 and 1 again
    evaluate to 0 and 1.

    Raises ``DegenerateUpdateError`` when the span between those two values
    is at or below tolerance, meaning the observation carried zero lower
    probability and the belief cannot be conditioned."""
    model = psi.model
    points = [(a.scale, a.measure, a.offset) for a in psi.points]
    alpha, span = _alpha_span(points, _masses(points, model, psi.history))
    return Infradistribution(tuple(_renormalized(points, alpha, span, model)), psi.history)


def condition(psi: Infradistribution, event: ObservationEvent) -> Infradistribution:
    """Full conditioning in one pass: raw update, renormalize, range-prune.

    On a single-point belief this is a Bayes update up to rounding: the
    history moves, the offset stays 0, and the scale returns to 1 within a
    few ulps, since renormalizing divides the raw scale by a span that need
    not round back to it. Over 9,211 one-point trap conditionings (the
    ``ib`` agent after pruning, 5 seeds x 20 runs) a third moved the scale,
    by at most 15 ulps of 1.0; the Bernoulli grid points of
    validate-classical never moved it.

    If the observation refutes some points (zero scale, or zero mass left on
    the observed branch) and that makes renormalization degenerate, the
    refuted points are dropped and the survivors renormalized on their own.
    ``DegenerateUpdateError`` is raised only when no point survives.

    The staged reference (module docstring) gives the same points, bit for
    bit, and raises the same errors, on a fixed-point hit as on a miss."""
    model, given = psi.model, psi.points
    if given is event.fixed_set:
        model.check_points(given, psi.history, event)
        return _belief(given, model.next_history(psi.history, event.indicator))
    _check_event(event, model)
    points = _raw_points(given, event, psi.history, model)
    history = model.next_history(psi.history, event.indicator)
    masses = _masses(points, model, history)
    try:
        alpha, span = _alpha_span(points, masses)
    except DegenerateUpdateError:
        live = [i for i, m in enumerate(masses) if m is not None and m > DEGENERATE_TOL]
        if not live:
            raise DegenerateUpdateError(
                "every point assigned the observation zero probability; belief refuted"
            )
        points, masses = [points[i] for i in live], [masses[i] for i in live]
        alpha, span = _alpha_span(points, masses)
    renormalized = _renormalized(points, alpha, span, model)
    kept = _kept_points(renormalized, model, max(1.0, event.offbranch_return.f_max))
    if given[0].measure.history_free and len(kept) == len(given) and all(
        a.scale == b.scale and a.offset == b.offset and a.measure is b.measure
        and b.measure.history_free
        for a, b in zip(kept, given)
    ):
        object.__setattr__(event, "fixed_set", given)
        return _belief(given, history)
    return _belief(tuple(kept), history)

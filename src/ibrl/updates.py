"""Belief conditioning: raw per-point updates, renormalization, and the
composed update pipeline.

Observing a branch ``L`` with off-branch return ``g`` maps each point

    (scale * measure, offset)
        -> (scale * measure restricted to L,
            offset + scale * E[(1 - L) * g | history])

so the measure keeps only on-branch mass while the offset banks the expected
return of the branches just ruled out. With ``g`` equal to the return
function itself, the pre-update value of the current round is conserved. The
raw update is affine in the point, so updating a belief updates each point
independently and creates no new points.

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
"""

from __future__ import annotations

from .errors import DegenerateUpdateError, RepresentationError
from .inframeasure import AMeasure, Infradistribution, prune
from .worldmodels import ObservationEvent

# A renormalization span at or below this is treated as a refuted belief.
DEGENERATE_TOL = 1e-12


def raw_update(a: AMeasure, event: ObservationEvent) -> AMeasure:
    """Restrict one point to the event's branch and bank the off-branch
    return into its offset. Zero-scale points only advance their history so
    the belief stays on a shared frame."""
    if event.model != a.model:
        raise RepresentationError("event belongs to a different world model")
    if a.scale == 0.0:
        measure, history = a.model.advance(a.measure, a.history, event)
        return AMeasure(0.0, measure, a.offset, history, a.model)
    r = a.model.restrict(a.measure, a.history, event)
    return AMeasure(
        a.scale * r.scale_factor,
        r.measure,
        a.offset + a.scale * r.offbranch_value,
        r.history,
        a.model,
    )


def update_infra(psi: Infradistribution, event: ObservationEvent) -> Infradistribution:
    """Raw-update every point. The update is affine, so the point set maps
    pointwise and its size never grows."""
    return Infradistribution(tuple(raw_update(a, event) for a in psi.points))


def _alpha_beta(psi: Infradistribution) -> tuple[float, float]:
    alpha = min(a.offset for a in psi.points)
    beta = min(
        a.offset
        if a.scale == 0.0
        else a.scale * a.model.conditioned_mass(a.measure, a.history) + a.offset
        for a in psi.points
    )
    return alpha, beta


def renormalize(psi: Infradistribution) -> Infradistribution:
    """Rescale and shift the whole point set so the constants 0 and 1 again
    evaluate to 0 and 1.

    Raises ``DegenerateUpdateError`` when the span between those two values
    is at or below tolerance, meaning the observation carried zero lower
    probability and the belief cannot be conditioned."""
    alpha, beta = _alpha_beta(psi)
    span = beta - alpha
    if span <= DEGENERATE_TOL:
        raise DegenerateUpdateError(
            f"renormalization span {span!r} is degenerate (observation has zero lower probability)"
        )
    points = tuple(
        AMeasure(a.scale / span, a.measure, (a.offset - alpha) / span, a.history, a.model)
        for a in psi.points
    )
    return Infradistribution(points)


def condition(psi: Infradistribution, event: ObservationEvent) -> Infradistribution:
    """Full conditioning pipeline: raw update, renormalize, prune.

    On a single-point belief this is exactly a Bayes update: the point
    returns to scale 1 and offset 0 and only its history moves.

    If the observation refutes some points (zero scale, or zero mass left on
    the observed branch) and that makes renormalization degenerate, the
    refuted points are dropped and the survivors renormalized on their own.
    ``DegenerateUpdateError`` is raised only when no point survives."""
    updated = update_infra(psi, event)
    try:
        return prune(renormalize(updated))
    except DegenerateUpdateError:
        live = tuple(
            a
            for a in updated.points
            if a.scale > 0.0
            and a.scale * a.model.conditioned_mass(a.measure, a.history) > DEGENERATE_TOL
        )
        if not live:
            raise DegenerateUpdateError(
                "every point assigned the observation zero probability; belief refuted"
            )
        return prune(renormalize(Infradistribution(live)))

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
"""

from __future__ import annotations

from .errors import DegenerateUpdateError, RepresentationError
from .inframeasure import AMeasure, Infradistribution, prune
from .worldmodels import ObservationEvent

# A renormalization span at or below this is treated as a refuted belief.
DEGENERATE_TOL = 1e-12


def raw_update(a: AMeasure, event: ObservationEvent, history: object) -> AMeasure:
    """Restrict one point, valued at ``history`` (the history before the
    observation), to the event's branch and bank the off-branch return into
    its offset. A zero-scale point is returned unchanged: its value is its
    offset whatever its measure."""
    if event.model != a.model:
        raise RepresentationError("event belongs to a different world model")
    if a.scale == 0.0:
        return a
    r = a.model.restrict(a.measure, history, event)
    return AMeasure(
        a.scale * r.scale_factor,
        r.measure,
        a.offset + a.scale * r.offbranch_value,
        a.model,
    )


def update_infra(psi: Infradistribution, event: ObservationEvent) -> Infradistribution:
    """Raw-update every point against the belief's history, then advance that
    history once. The update is affine, so the point set maps pointwise and
    its size never grows."""
    points = tuple(raw_update(a, event, psi.history) for a in psi.points)
    return Infradistribution(points, psi.model.next_history(psi.history, event))


def _alpha_beta(psi: Infradistribution) -> tuple[float, float]:
    alpha = min(a.offset for a in psi.points)
    beta = min(
        a.offset
        if a.scale == 0.0
        else a.scale * a.model.conditioned_mass(a.measure, psi.history) + a.offset
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
        AMeasure(a.scale / span, a.measure, (a.offset - alpha) / span, a.model)
        for a in psi.points
    )
    return Infradistribution(points, psi.history)


def condition(psi: Infradistribution, event: ObservationEvent) -> Infradistribution:
    """Full conditioning pipeline: raw update, renormalize, range-prune.

    On a single-point belief this is exactly a Bayes update: the point
    returns to scale 1 and offset 0 and only the belief's history moves.

    If the observation refutes some points (zero scale, or zero mass left on
    the observed branch) and that makes renormalization degenerate, the
    refuted points are dropped and the survivors renormalized on their own.
    ``DegenerateUpdateError`` is raised only when no point survives."""
    updated = update_infra(psi, event)
    try:
        renormalized = renormalize(updated)
    except DegenerateUpdateError:
        live = tuple(
            a
            for a in updated.points
            if a.scale > 0.0
            and a.scale * a.model.conditioned_mass(a.measure, updated.history) > DEGENERATE_TOL
        )
        if not live:
            raise DegenerateUpdateError(
                "every point assigned the observation zero probability; belief refuted"
            )
        renormalized = renormalize(Infradistribution(live, updated.history))
    return prune(renormalized, offset_bound=max(1.0, event.offbranch_return.f_max))

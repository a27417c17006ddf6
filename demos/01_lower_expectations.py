"""Worst-case expectations over sets of scaled measures.

A belief here is not one probability distribution but a finite set of
(scale, measure, offset) points. The value of a return function is the
minimum over the set, so the belief prices in its own ambiguity. This demo
builds a three-outcome example, evaluates a few return functions, and shows
how mixing and pruning behave.
"""

import numpy as np

from ibrl import (
    AMeasure,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    Infradistribution,
    lower_expectation,
    mix_classical,
    mix_knightian,
    prune,
)

model = ExplicitFiniteModel(3)


def point(scale, masses, offset=0.0):
    return AMeasure(scale, FiniteOutcomeMeasure(tuple(masses)), offset, model)


print("Two candidate distributions over outcomes (a, b, c):")
optimist = point(1.0, (0.1, 0.2, 0.7))
pessimist = point(1.0, (0.5, 0.3, 0.2))
belief = Infradistribution((optimist, pessimist))
for name, values in [
    ("payout (0, 0.5, 1)", (0.0, 0.5, 1.0)),
    ("payout (1, 0.5, 0)", (1.0, 0.5, 0.0)),
    ("flat payout 0.4", (0.4, 0.4, 0.4)),
]:
    f = model.return_function(values)
    print(f"  lower expectation of {name}: {lower_expectation(belief, f):.3f}")

print()
print("A classical mixture averages the measures (one point again):")
mixed = mix_classical(
    [Infradistribution.singleton(optimist), Infradistribution.singleton(pessimist)],
    [0.5, 0.5],
)
f = model.return_function((0.0, 0.5, 1.0))
print(f"  mixture value: {lower_expectation(mixed, f):.3f}")
print(f"  set value:     {lower_expectation(belief, f):.3f}  (never higher)")

print()
print("A worst-case mixture keeps both points (the union):")
union = mix_knightian(
    [Infradistribution.singleton(optimist), Infradistribution.singleton(pessimist)]
)
print(f"  points in the union: {len(union.points)}")

print()
print("Pruning removes points that can never attain the minimum:")
redundant = point(1.0, (0.5, 0.3, 0.2), 0.2)
bloated = Infradistribution((optimist, pessimist, redundant, pessimist))
pruned = prune(bloated, convex=True)
print(f"  {len(bloated.points)} points before, {len(pruned.points)} after")
for values in [(0.0, 0.5, 1.0), (1.0, 0.0, 0.3), (0.2, 0.9, 0.4)]:
    f = model.return_function(values)
    before = lower_expectation(bloated, f)
    after = lower_expectation(pruned, f)
    print(f"  payout {values}: {before:.6f} -> {after:.6f} (unchanged)")

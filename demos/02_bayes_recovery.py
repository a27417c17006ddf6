"""A one-point belief is exactly classical Bayes.

When the belief set contains a single full-mass point, conditioning reduces
to the familiar posterior update and the maximin policy rule reduces to
expected-value maximization. This demo conditions a grid prior step by step
next to a hand-rolled Bayes computation, then runs the robust agent and a
classical greedy agent on the same reward stream and shows their action
sequences coincide.
"""

import numpy as np

from ibrl import (
    AMeasure,
    BernoulliArmsModel,
    Infradistribution,
    act,
    bayes_select,
    bernoulli_step,
    condition,
    deterministic_grid,
    ib_observe,
    lower_expectation,
    make_agent,
    select_policy,
)

model = BernoulliArmsModel(1)
grid = np.linspace(0.1, 0.9, 5)
VALUES = np.array([[0.0, 1.0]])

print("Conditioning a uniform grid prior on a fixed outcome stream:")
belief = Infradistribution.singleton(
    AMeasure(1.0, model.grid_measure(grid), 0.0, model), model.initial_history()
)
weights = np.full(grid.size, 1.0 / grid.size)
f = model.arm_return(0, VALUES)
for outcome in [1, 1, 0, 1]:
    belief = condition(belief, model.observation(0, outcome, f))
    weights = weights * np.where(outcome, grid, 1.0 - grid)
    weights = weights / weights.sum()
    oracle = float(weights @ grid)
    robust = lower_expectation(belief, f)
    print(f"  saw {outcome}: predictive {robust:.6f}, by-hand Bayes {oracle:.6f}")

print()
print("Same seeds, two agents, identical behavior:")
model2 = BernoulliArmsModel(2)
values2 = np.array([[0.0, 1.0], [0.0, 1.0]])
pair = (0.35, 0.65)
candidates = deterministic_grid(2)


def fresh(flavor):
    belief = Infradistribution.singleton(
        AMeasure(1.0, model2.grid_measure(np.linspace(0.0, 1.0, 11)), 0.0, model2),
        model2.initial_history(),
    )
    return make_agent(belief, np.random.default_rng(123), flavor, values2)


robust_agent = fresh("ib_maximin")
greedy_agent = fresh("bayes_greedy")
env_robust = np.random.default_rng(99)
env_greedy = np.random.default_rng(99)
robust_actions, greedy_actions = [], []
for _ in range(30):
    policy = select_policy(robust_agent, candidates)
    a1 = act(policy, robust_agent.rng)
    r1 = bernoulli_step(pair[a1], env_robust)
    robust_agent = ib_observe(robust_agent, a1, float(r1))
    robust_actions.append(a1)

    a2 = bayes_select(greedy_agent)
    r2 = bernoulli_step(pair[a2], env_greedy)
    greedy_agent = ib_observe(greedy_agent, a2, float(r2))
    greedy_actions.append(a2)

print(f"  robust: {''.join(map(str, robust_actions))}")
print(f"  greedy: {''.join(map(str, greedy_actions))}")
print(f"  identical: {robust_actions == greedy_actions}")

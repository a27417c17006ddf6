"""Tests for the update pipeline: raw reweighting, renormalization,
conditioning, and degeneracy handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibrl import (
    AMeasure,
    BernoulliArmsModel,
    DegenerateUpdateError,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    Infradistribution,
    JointHypothesisBanditModel,
    TrapWorldConfig,
    condition,
    evaluate,
    lower_expectation,
    mix_knightian,
    prune,
    raw_update,
    renormalize,
    update_infra,
)
from ibrl.harness.runner import trap_ib_belief, trap_model

VALUES = ((0.0, 1.0), (0.0, 1.0))


def bandit_singleton(model, measure):
    return Infradistribution.singleton(AMeasure(1.0, measure, 0.0, model), model.initial_history())


def probe_returns(model, values):
    """Each arm's return under the (arms, outcomes) table, then the
    constants 0 and 1."""
    shape = np.shape(values)
    uniform = np.full(model.arm_count, 1.0 / model.arm_count)
    return [model.arm_return(arm, values) for arm in range(model.arm_count)] + [
        model.policy_return(uniform, np.full(shape, c)) for c in (0.0, 1.0)
    ]


class TestRawUpdate:
    def test_scale_shrinks_by_branch_probability_and_offset_absorbs_off_branch(self):
        """Point hypothesis p = 0.6, observe a failure: the surviving branch
        has probability 0.4, and the skipped branch contributes its return
        0.6 * 1.0 to the offset."""
        model = BernoulliArmsModel(1)
        psi = bandit_singleton(model, model.point_measure([0.6]))
        event = model.observation(0, 0, model.arm_return(0, [[0.0, 1.0]]))
        updated = update_infra(psi, event)
        (point,) = updated.points
        np.testing.assert_allclose(point.scale, 0.4)
        np.testing.assert_allclose(point.offset, 0.6)
        assert updated.history.pulls == (1,)
        assert updated.history.successes == (0,)

    def test_two_updates_compound_the_branch_probability(self):
        model = BernoulliArmsModel(1)
        psi = bandit_singleton(model, model.point_measure([0.5]))
        zero_g = model.arm_return(0, [[0.0, 0.0]])
        for outcome in (1, 0):
            psi = update_infra(psi, model.observation(0, outcome, zero_g))
        (a,) = psi.points
        np.testing.assert_allclose(a.scale, 0.25)
        np.testing.assert_allclose(a.offset, 0.0)

    def test_mixture_branch_probability_is_the_prior_predictive(self):
        """Equal mixture of p = 0.2 and p = 0.6 observing one success keeps
        scale 0.4, the prior predictive of that outcome."""
        model = BernoulliArmsModel(1)
        measure = model.grid_measure([0.2, 0.6])
        a = AMeasure(1.0, measure, 0.0, model)
        event = model.observation(0, 1, model.arm_return(0, [[0.0, 0.0]]))
        updated = raw_update(a, event, model.initial_history())
        np.testing.assert_allclose(updated.scale, 0.4)

    def test_zero_scale_point_only_advances_history(self):
        """A zero-scale point is carried over as the same object; only the
        belief's history moves."""
        model = BernoulliArmsModel(1)
        a = AMeasure(0.0, model.point_measure([0.5]), 0.7, model)
        psi = Infradistribution.singleton(a, model.initial_history())
        updated = update_infra(psi, model.observation(0, 1, model.arm_return(0, [[0.0, 1.0]])))
        assert updated.points[0] is a
        assert updated.points[0].scale == 0.0
        assert updated.points[0].offset == 0.7
        assert updated.history.pulls == (1,)
        assert psi.history.pulls == (0,)

    def test_off_branch_return_must_be_nonnegative(self):
        model = ExplicitFiniteModel(2)
        g = model.return_function((-0.5, 1.0))
        with pytest.raises(Exception):
            model.observation(0, g)


class TestRenormalize:
    def test_full_mass_singleton_returns_exactly_to_unit_scale(self):
        """After conditioning a classical belief the representative must be
        exactly (scale 1.0, offset 0.0), not merely close."""
        model = BernoulliArmsModel(2)
        belief = bandit_singleton(model, model.grid_measure([0.3, 0.7]))
        event = model.observation(0, 1, model.arm_return(0, VALUES))
        conditioned = condition(belief, event)
        point = conditioned.points[0]
        assert point.scale == 1.0
        assert point.offset == 0.0

    def test_constants_are_restored_after_conditioning(self):
        model = BernoulliArmsModel(2)
        belief = bandit_singleton(model, model.grid_measure(np.linspace(0.0, 1.0, 7)))
        rng = np.random.default_rng(42)
        for _ in range(25):
            arm = int(rng.integers(2))
            outcome = int(rng.integers(2))
            belief = condition(belief, model.observation(arm, outcome, model.arm_return(arm, VALUES)))
            zeros = model.policy_return([0.5, 0.5], np.zeros((2, 2)))
            ones = model.policy_return([0.5, 0.5], np.ones((2, 2)))
            np.testing.assert_allclose(lower_expectation(belief, zeros), 0.0, atol=1e-9)
            np.testing.assert_allclose(lower_expectation(belief, ones), 1.0, atol=1e-9)

    def test_impossible_observation_raises_degenerate_error(self):
        model = BernoulliArmsModel(1)
        belief = bandit_singleton(model, model.point_measure([1.0]))
        event = model.observation(0, 0, model.arm_return(0, [[0.0, 1.0]]))
        with pytest.raises(DegenerateUpdateError):
            condition(belief, event)

    def test_shared_constants_preserve_the_minimum_structure(self):
        """Renormalization uses one affine map for the whole set, so the
        ordering of points on any return function is preserved."""
        model = ExplicitFiniteModel(2)
        a = AMeasure(0.8, FiniteOutcomeMeasure((0.5, 0.3)), 0.1, model)
        b = AMeasure(0.6, FiniteOutcomeMeasure((0.1, 0.7)), 0.4, model)
        psi = Infradistribution((a, b))
        event = model.observation([0, 1], model.return_function((0.0, 0.0)))
        updated = update_infra(psi, event)
        out = renormalize(updated)
        f = model.return_function((1.0, 0.0))
        raw_vals = [evaluate(p, f, None) for p in updated.points]
        new_vals = [evaluate(p, f, None) for p in out.points]
        assert np.argmin(raw_vals) == np.argmin(new_vals)

    def test_renormalized_lower_bound_is_zero_on_the_zero_function(self):
        model = ExplicitFiniteModel(2)
        a = AMeasure(0.8, FiniteOutcomeMeasure((0.5, 0.3)), 0.1, model)
        b = AMeasure(0.6, FiniteOutcomeMeasure((0.1, 0.7)), 0.4, model)
        out = renormalize(Infradistribution((a, b)))
        zero = model.return_function((0.0, 0.0))
        one = model.return_function((1.0, 1.0))
        np.testing.assert_allclose(lower_expectation(out, zero), 0.0, atol=1e-12)
        np.testing.assert_allclose(lower_expectation(out, one), 1.0, atol=1e-12)


class TestCondition:
    def test_condition_matches_manual_pipeline(self):
        model = BernoulliArmsModel(2)
        measure = model.grid_measure([0.2, 0.5, 0.8])
        belief = bandit_singleton(model, measure)
        event = model.observation(1, 1, model.arm_return(1, VALUES))
        conditioned = condition(belief, event)
        manual = renormalize(update_infra(belief, event))
        f = model.arm_return(1, VALUES)
        np.testing.assert_allclose(
            lower_expectation(conditioned, f), lower_expectation(manual, f)
        )

    def test_posterior_predictive_after_one_success(self):
        """Uniform prior on {0.3, 0.7}; one success reweights to (0.3, 0.7)
        and the predictive becomes 0.58."""
        model = BernoulliArmsModel(1)
        belief = bandit_singleton(model, model.grid_measure([0.3, 0.7]))
        event = model.observation(0, 1, model.arm_return(0, [[0.0, 1.0]]))
        posterior = condition(belief, event)
        f = model.arm_return(0, [[0.0, 1.0]])
        np.testing.assert_allclose(lower_expectation(posterior, f), 0.58)

    def test_worst_case_set_narrows_when_a_corner_is_contradicted(self):
        """Conditioning a two-corner belief on repeated failures drives the
        high-probability corner's branch weight down, so the lower value of
        the observed arm falls toward the low corner's posterior."""
        model = BernoulliArmsModel(1)
        corners = [
            bandit_singleton(model, model.point_measure([0.2])),
            bandit_singleton(model, model.point_measure([0.9])),
        ]
        belief = mix_knightian(corners)
        f = model.arm_return(0, [[0.0, 1.0]])
        event = model.observation(0, 0, f)
        for _ in range(3):
            belief = condition(belief, event)
        values = sorted(evaluate(p, f, belief.history) for p in belief.points)
        np.testing.assert_allclose(values[0], 0.2, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_conditioning_matches_grid_bayes_on_random_instances(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        grid = rng.random(data.draw(st.integers(2, 6)))
        weights = rng.dirichlet(np.ones(grid.size))
        model = BernoulliArmsModel(1)
        belief = bandit_singleton(model, model.grid_measure(grid, weights))
        s = f = 0
        for _ in range(data.draw(st.integers(0, 12))):
            outcome = int(rng.integers(2))
            belief = condition(
                belief, model.observation(0, outcome, model.arm_return(0, [[0.0, 1.0]]))
            )
            s += outcome
            f += 1 - outcome
        like = np.power(grid, s) * np.power(1.0 - grid, f)
        post = weights * like
        oracle = float((post / post.sum()) @ grid)
        got = lower_expectation(belief, model.arm_return(0, [[0.0, 1.0]]))
        np.testing.assert_allclose(got, oracle, atol=1e-9)

    def test_catastrophe_keeps_the_zero_scale_point_at_the_bound(self):
        """A catastrophe refutes trap's safe point, leaving it at zero scale
        and offset exactly 1 = max(1, f_max), where it attains the constant
        1. Range pruning is strict, so that point stays and every value
        equals the unpruned pipeline's bit for bit."""
        env = TrapWorldConfig()
        model, raw_support, values = trap_model(env)
        belief = trap_ib_belief(model, env)
        catastrophe = raw_support.index(env.catastrophe_reward)
        event = model.observation(1, catastrophe, model.policy_return([0.5, 0.5], values))
        conditioned = condition(belief, event)
        reference = prune(renormalize(update_infra(belief, event)))
        assert any(a.scale == 0.0 and a.offset == 1.0 for a in conditioned.points)
        for f in probe_returns(model, values):
            assert lower_expectation(conditioned, f) == lower_expectation(reference, f)


def count_next_history(monkeypatch, cls):
    """Record every ``next_history`` call made on instances of ``cls``."""
    calls = []
    original = cls.next_history

    def counting(self, history, event):
        calls.append(history)
        return original(self, history, event)

    monkeypatch.setattr(cls, "next_history", counting)
    return calls


class TestOneHistoryPerBelief:
    """Every point is valued at its belief's one history, so conditioning
    advances that history once per observation, whatever the point count."""

    def test_ku_corner_belief_advances_its_history_once_per_observation(self, monkeypatch):
        """Range pruning drops corners along the way; an unpruned reference
        fed the same events keeps them all and agrees on every value."""
        calls = count_next_history(monkeypatch, BernoulliArmsModel)
        model = BernoulliArmsModel(2)
        corners = [(a, b) for a in (0.3, 0.7) for b in (0.4, 0.8)]
        belief = mix_knightian([bandit_singleton(model, model.point_measure(c)) for c in corners])
        reference = belief
        probes = probe_returns(model, VALUES)
        rng = np.random.default_rng(3)
        for _ in range(20):
            arm, outcome = int(rng.integers(2)), int(rng.integers(2))
            history, size, before = belief.history, len(belief.points), len(calls)
            event = model.observation(arm, outcome, model.arm_return(arm, VALUES))
            belief = condition(belief, event)
            assert len(calls) == before + 1 and calls[-1] is history
            reference = prune(renormalize(update_infra(reference, event)))
            assert len(belief.points) <= size
            for f in probes:
                assert lower_expectation(belief, f) == lower_expectation(reference, f)
        assert len(reference.points) == 4
        assert sum(belief.history.pulls) == 20

    def test_trap_two_point_belief_advances_its_history_once_per_observation(self, monkeypatch):
        calls = count_next_history(monkeypatch, JointHypothesisBanditModel)
        env = TrapWorldConfig()
        model, raw_support, values = trap_model(env)
        belief = trap_ib_belief(model, env)
        for t, (arm, reward) in enumerate([(1, 1.0), (1, 0.0), (0, 1.0), (1, 1.0)], 1):
            outcome = raw_support.index(reward)
            belief = condition(belief, model.observation(arm, outcome, model.arm_return(arm, values)))
            assert len(calls) == t
        assert len(belief.points) == 2
        assert sum(map(sum, belief.history.counts)) == 4


class TestLinearity:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_raw_update_is_affine_linear_in_the_point(self, data):
        """Scaling (scaled measure, offset) by c commutes with the update,
        and updating a sum matches the sum of updates."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        n = data.draw(st.integers(2, 5))
        model = ExplicitFiniteModel(n)
        kept = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        g = model.return_function(tuple(rng.random(n)))
        event = model.observation(kept, g)

        def effective(a):
            return a.scale * np.asarray(a.measure.masses), a.offset

        def rand_point():
            return AMeasure(
                float(rng.random()) + 0.1,
                FiniteOutcomeMeasure(tuple(rng.dirichlet(np.ones(n)) * 0.4)),
                float(rng.random()),
                model,
            )

        a1, a2 = rand_point(), rand_point()
        u1, u2 = raw_update(a1, event, None), raw_update(a2, event, None)
        c = 2.0
        uc = raw_update(AMeasure(c * a1.scale, a1.measure, c * a1.offset, model), event, None)
        v, b = effective(uc)
        v1, b1 = effective(u1)
        np.testing.assert_allclose(v, c * v1, atol=1e-12)
        np.testing.assert_allclose(b, c * b1, atol=1e-12)

        combined = AMeasure(
            1.0,
            FiniteOutcomeMeasure(
                tuple(
                    a1.scale * np.asarray(a1.measure.masses)
                    + a2.scale * np.asarray(a2.measure.masses)
                )
            ),
            a1.offset + a2.offset,
            model,
        )
        us = raw_update(combined, event, None)
        vs, bs = effective(us)
        v2, b2 = effective(u2)
        np.testing.assert_allclose(vs, v1 + v2, atol=1e-12)
        np.testing.assert_allclose(bs, b1 + b2, atol=1e-12)

"""Tests for the update pipeline: raw reweighting, renormalization,
conditioning, and degeneracy handling."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibrl.agents
from ibrl import (
    STATELESS,
    AMeasure,
    BernoulliArmsModel,
    DegenerateUpdateError,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    IBRLError,
    Infradistribution,
    JointHypothesisBanditModel,
    NewcombModel,
    OutcomeCountHistory,
    RepresentationError,
    Restriction,
    TrapWorldConfig,
    condition,
    deterministic_grid,
    evaluate,
    lower_expectation,
    lower_expectations,
    mix_knightian,
    prune,
    raw_update,
    renormalize,
    update_infra,
)
from ibrl.harness import ExperimentConfig, run_experiment
from ibrl.harness.runner import trap_ib_belief, trap_model
from ibrl.updates import DEGENERATE_TOL

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
        assert updated.history.counts == ((1, 0),)

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
        assert updated.history.counts == ((0, 1),)
        assert psi.history.counts == ((0, 0),)

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

    def counting(self, history, indicator):
        calls.append(history)
        return original(self, history, indicator)

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
        assert sum(map(sum, belief.history.counts)) == 20

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


def staged_condition(psi, event):
    """``condition`` as its public stages: raw update, renormalize, then
    prune with the range bound ``max(1, f_max)``, plus the degenerate-span
    fallback."""
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


def outcome_of(fn, psi, event):
    """The belief ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn(psi, event)
    except IBRLError as error:
        return type(error), str(error)


def assert_same_as_stages(psi, event):
    """``condition`` and the staged reference agree point for point: count,
    order, the bits of every scale and offset (Python floats both), the
    measure, and the history; or they raise the same error."""
    got, want = outcome_of(condition, psi, event), outcome_of(staged_condition, psi, event)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return got
    assert len(got.points) == len(want.points)
    for a, b in zip(got.points, want.points):
        assert type(a.scale) is float and type(a.offset) is float
        assert type(b.scale) is float and type(b.offset) is float
        assert a.scale.hex() == b.scale.hex() and a.offset.hex() == b.offset.hex()
        assert a.measure == b.measure
    assert got.history == want.history
    return got


def random_numbers(rng):
    """A scale and an offset, often on the values where zero scale, ties and
    the range bound meet."""
    scale = float(rng.choice([0.0, 0.5, 1.0, 2.0 * rng.random()]))
    offset = float(rng.choice([0.0, 1.0, 1.5, 2.0 * rng.random()]))
    return scale, offset


def random_history(rng, model, pulls):
    history = model.initial_history()
    for _ in range(pulls):
        indicator = (int(rng.integers(model.arm_count)), int(rng.integers(model.outcome_count)))
        history = model.next_history(history, indicator)
    return history


def random_case(rng, family):
    """A belief of one to five points, some of them duplicates with equal but
    distinct measures, and one event on it."""
    if family in ("bernoulli_point", "bernoulli_grid"):
        model = BernoulliArmsModel(int(rng.integers(1, 3)))
        probs = (0.0, 0.2, 0.5, 0.8, 1.0)
        if family == "bernoulli_point":
            measures = [
                model.point_measure(rng.choice(probs, model.arm_count).tolist()) for _ in range(3)
            ]
        else:
            measures = [
                model.grid_measure(rng.choice(probs, 2, replace=False).tolist(), [0.3, 0.7])
                for _ in range(3)
            ]
        history = random_history(rng, model, int(rng.integers(4)))
    elif family == "trap":
        env = TrapWorldConfig()
        model, _, _ = trap_model(env)
        measures = [a.measure for a in trap_ib_belief(model, env).points]
        history = random_history(rng, model, int(rng.integers(4)))
    elif family == "finite":
        model = ExplicitFiniteModel(int(rng.integers(2, 5)))
        n = model.outcome_count
        # Some outcomes carry no mass, so a restriction can leave a live
        # scale on zero mass.
        masses = rng.dirichlet(np.ones(n), 3) * rng.random((3, 1))
        masses[rng.random((3, n)) < 0.3] = 0.0
        measures = [FiniteOutcomeMeasure(tuple(row)) for row in masses.tolist()]
        history = None
    else:
        model = NewcombModel(accuracy=float(rng.uniform(0.5, 1.0)))
        measures = [STATELESS]
        history = None
    points = []
    for _ in range(int(rng.integers(1, 4))):
        scale, offset = random_numbers(rng)
        points.append(AMeasure(scale, measures[int(rng.integers(len(measures)))], offset, model))
    if rng.random() < 0.5:
        twin = points[int(rng.integers(len(points)))]
        points.append(AMeasure(twin.scale, dataclasses.replace(twin.measure), twin.offset, model))
    if family == "finite" and rng.random() < 0.5:
        # A point every other return values at or above the first one.
        first = points[0]
        points.append(AMeasure(first.scale + 0.5, first.measure, first.offset + 0.25, model))
    psi = Infradistribution(tuple(points), history)
    fmax = float(rng.choice([0.5, 1.0, 3.0]))
    if family == "finite":
        n = model.outcome_count
        kept = rng.choice(n, int(rng.integers(1, n + 1)), replace=False).tolist()
        event = model.observation(kept, model.return_function(tuple(rng.random(n) * fmax)))
    elif family == "newcomb":
        event = model.observation()
    else:
        table = rng.random((model.arm_count, model.outcome_count)) * fmax
        arm = int(rng.integers(model.arm_count))
        event = model.observation(
            arm, int(rng.integers(model.outcome_count)), model.arm_return(arm, table)
        )
    return psi, event


class TestOnePassEqualsStages:
    """``condition`` conditions in one pass; the public stages are its
    reference, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["bernoulli_point", "bernoulli_grid", "trap", "finite", "newcomb"]),
        st.integers(0, 2**31 - 1),
    )
    def test_condition_equals_the_staged_pipeline(self, family, seed):
        rng = np.random.default_rng(seed)
        psi, event = random_case(rng, family)
        for _ in range(3):
            got = assert_same_as_stages(psi, event)
            if isinstance(got, tuple):
                break
            psi = got

    def test_trap_catastrophe_then_degenerate_span_fallback(self):
        """A catastrophe refutes the safe point; once the risky point's
        offset reaches the refuted point's, the span is zero and the
        fallback renormalizes the risky point alone."""
        env = TrapWorldConfig()
        model, raw_support, values = trap_model(env)
        belief = trap_ib_belief(model, env)
        returns = model.policy_return([0.5, 0.5], values)
        catastrophe = raw_support.index(env.catastrophe_reward)
        refuted = assert_same_as_stages(belief, model.observation(1, catastrophe, returns))
        safe, risky = refuted.points
        assert safe.scale == 0.0
        psi = Infradistribution(
            (safe, AMeasure(0.5, risky.measure, safe.offset, model)), refuted.history
        )
        event = model.observation(1, raw_support.index(1.0), returns)
        with pytest.raises(DegenerateUpdateError):
            renormalize(update_infra(psi, event))
        conditioned = assert_same_as_stages(psi, event)
        assert [a.measure for a in conditioned.points] == [risky.measure]

    def test_dominated_finite_points(self):
        model = ExplicitFiniteModel(3)
        low = AMeasure(0.5, FiniteOutcomeMeasure((0.4, 0.4, 0.2)), 0.0, model)
        high = AMeasure(1.0, FiniteOutcomeMeasure((0.4, 0.4, 0.2)), 0.3, model)
        other = AMeasure(1.0, FiniteOutcomeMeasure((0.1, 0.1, 0.8)), 0.0, model)
        event = model.observation([0, 2], model.return_function((1.0, 0.5, 0.0)))
        conditioned = assert_same_as_stages(Infradistribution((high, low, other)), event)
        assert len(conditioned.points) == 2

    def test_equal_measures_collapse_and_different_ones_stay(self):
        """Two corners that differ only on the arm not pulled keep equal
        numbers and both stay; an equal but distinct copy of one goes."""
        model = BernoulliArmsModel(2)
        a, b, twin = (model.point_measure(c) for c in ((0.3, 0.4), (0.3, 0.8), (0.3, 0.4)))
        assert twin is not a and twin == a
        psi = Infradistribution(
            tuple(AMeasure(1.0, m, 0.0, model) for m in (a, b, twin)), model.initial_history()
        )
        event = model.observation(0, 1, model.arm_return(0, VALUES))
        conditioned = assert_same_as_stages(psi, event)
        assert [p.measure for p in conditioned.points] == [a, b]
        assert conditioned.points[0].measure is a

    def test_zero_scale_point_is_renormalized_to_the_bound(self):
        """A refuted point at offset 0.9 next to a live point whose raw
        offset is 0.5 and whose beta is 1.0 lands exactly on the bound 1."""
        model = BernoulliArmsModel(1)
        zero = AMeasure(0.0, model.point_measure([1.0]), 0.9, model)
        live = AMeasure(1.0, model.point_measure([0.5]), 0.0, model)
        psi = Infradistribution((zero, live), model.initial_history())
        event = model.observation(0, 0, model.arm_return(0, [[0.0, 1.0]]))
        conditioned = assert_same_as_stages(psi, event)
        assert [(a.scale, a.offset) for a in conditioned.points][0] == (0.0, 1.0)
        assert len(conditioned.points) == 2


BAD_NUMBERS = [
    pytest.param(float("nan"), 0.0, 0.0, "scale", id="nan-scale-factor"),
    pytest.param(-0.5, 0.0, 0.0, "scale", id="negative-scale-factor"),
    pytest.param(0.5, float("nan"), 0.0, "offset", id="nan-offbranch"),
    pytest.param(0.5, -3.0, 0.0, "offset", id="negative-offbranch"),
    pytest.param(float("nan"), 0.0, 5.0, "scale", id="nan-scale-factor-above-bound"),
    pytest.param(0.5, float("nan"), 5.0, "offset", id="nan-offbranch-above-bound"),
]


class TestConditionChecksEveryNumber:
    """A negative or NaN scale or offset raises ``RepresentationError``;
    range pruning never drops it quietly."""

    def stub_restrict(self, monkeypatch, numbers):
        """``restrict`` returns ``numbers[measure]`` as (scale factor,
        off-branch value) for the measures listed there."""
        original = BernoulliArmsModel.restrict

        def restrict(self, measure, history, event):
            for m, (factor, offbranch) in numbers:
                if m is measure:
                    return Restriction(measure, factor, offbranch)
            return original(self, measure, history, event)

        monkeypatch.setattr(BernoulliArmsModel, "restrict", restrict)

    @pytest.mark.parametrize("factor, offbranch, offset, field", BAD_NUMBERS)
    def test_bad_raw_numbers_raise(self, monkeypatch, factor, offbranch, offset, field):
        model = BernoulliArmsModel(1)
        bad = model.point_measure([0.3])
        self.stub_restrict(monkeypatch, [(bad, (factor, offbranch))])
        psi = Infradistribution(
            (
                AMeasure(1.0, model.point_measure([0.5]), 0.0, model),
                AMeasure(1.0, bad, offset, model),
            ),
            model.initial_history(),
        )
        event = model.observation(0, 1, model.arm_return(0, [[0.0, 1.0]]))
        for fn in (condition, staged_condition):
            with pytest.raises(RepresentationError, match=f"{field} must be nonnegative"):
                fn(psi, event)

    def test_nan_after_renormalization_raises(self, monkeypatch):
        """An infinite scale makes the span infinite, and the point whose
        offset is infinite renormalizes to NaN, above the bound."""
        model = BernoulliArmsModel(1)
        infinite_offset, infinite_scale = model.point_measure([0.3]), model.point_measure([0.6])
        self.stub_restrict(
            monkeypatch,
            [(infinite_offset, (0.5, float("inf"))), (infinite_scale, (float("inf"), 0.0))],
        )
        psi = Infradistribution(
            (AMeasure(1.0, infinite_offset, 0.0, model), AMeasure(1.0, infinite_scale, 0.0, model)),
            model.initial_history(),
        )
        event = model.observation(0, 1, model.arm_return(0, [[0.0, 1.0]]))
        for fn in (condition, staged_condition):
            with pytest.raises(RepresentationError, match="offset must be nonnegative, got nan"):
                fn(psi, event)


def clear_fixed_set(event):
    object.__setattr__(event, "fixed_set", None)


def corner_events(model, corners):
    """A Knightian corner belief and, per ``(arm, outcome)``, its event
    under the uniform-policy return, as a maximin agent builds them."""
    returns = model.policy_return([0.5, 0.5], VALUES)
    belief = mix_knightian([bandit_singleton(model, model.point_measure(c)) for c in corners])
    events = {(a, o): model.observation(a, o, returns) for a in range(2) for o in range(2)}
    return belief, returns, events


class TestFixedPoint:
    """Once conditioning maps a history-free belief to itself, the event
    stores that point tuple, and a later call on the very tuple checks and
    advances the history only. A hit must equal a full ``condition``."""

    def test_a_hit_equals_a_full_condition_with_the_memo_cleared(self):
        """The ``ku-long`` event sequence at seed 42: the corner pair left
        after step 2 maps to itself on both arm-2 events."""
        model = BernoulliArmsModel(2)
        corners = [(a, b) for a in (0.3, 0.7) for b in (0.4, 0.8)]
        psi, returns, events = corner_events(model, corners)
        probs = deterministic_grid(2).probs
        hits = 0
        for indicator in [(1, 0), (1, 0), (1, 1), (1, 0), (1, 1), (1, 1), (1, 0), (1, 0)]:
            event = events[indicator]
            hit = psi.points is event.fixed_set
            got = condition(psi, event)
            stored = event.fixed_set
            clear_fixed_set(event)
            want = condition(psi, event)
            assert event.fixed_set is stored
            assert (got.points is psi.points) == (want.points is psi.points)
            for a, b in zip(got.points, want.points, strict=True):
                assert a.scale.hex() == b.scale.hex() and a.offset.hex() == b.offset.hex()
                assert a.measure is b.measure
            assert got.history == want.history
            assert lower_expectations(got, returns, probs).tolist() == (
                lower_expectations(want, returns, probs).tolist()
            )
            if hit:
                assert_same_as_stages(psi, event)
            hits += hit
            psi = got
        assert hits == 3 and len(psi.points) == 2

    def test_a_history_refuting_a_certain_arm_raises_alike_on_hit_and_miss(self):
        """Arm 1 succeeds with certainty at both corners, so a success there
        maps the belief to itself; a history with an arm-1 failure refutes
        both."""
        model = BernoulliArmsModel(2)
        psi, _, events = corner_events(model, [(1.0, 0.4), (1.0, 0.8)])
        event = events[(0, 1)]
        assert condition(psi, event).points is psi.points is event.fixed_set
        refuted = Infradistribution(psi.points, OutcomeCountHistory(((1, 0), (0, 0))))
        got = outcome_of(condition, refuted, event)
        clear_fixed_set(event)
        want = outcome_of(condition, refuted, event)
        assert got == want and got[0] is DegenerateUpdateError

    def test_a_history_of_the_wrong_arm_count_raises_alike_on_hit_and_miss(self):
        """A hit checks the history's shape once for the whole set, and
        raises what the miss's first restriction raises."""
        model = BernoulliArmsModel(2)
        psi, _, events = corner_events(model, [(1.0, 0.4), (1.0, 0.8)])
        event = events[(0, 1)]
        assert condition(psi, event).points is psi.points is event.fixed_set
        wrong = Infradistribution(psi.points, OutcomeCountHistory(((0, 0),) * 3))
        got = outcome_of(condition, wrong, event)
        clear_fixed_set(event)
        want = outcome_of(condition, wrong, event)
        assert got == want == (RepresentationError, "count table must be (arms, outcomes)")

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig("trap-bandit", seed=42, settings={"env.runs": 1, "agents": "ib"}),
            ExperimentConfig("validate-classical", seed=42, settings={"steps": 50, "runs": 1}),
        ],
        ids=lambda cfg: cfg.experiment,
    )
    def test_beliefs_whose_measures_read_the_history_store_nothing(self, monkeypatch, cfg):
        """The trap agent's joint measure and ``ib_single``'s grid measure
        read the history: their one-point beliefs often map to themselves,
        and no event stores them."""
        seen = []

        def recording(psi, event):
            after = condition(psi, event)
            fixed = [(a.scale, a.offset, a.measure) for a in after.points] == [
                (a.scale, a.offset, a.measure) for a in psi.points
            ]
            seen.append((fixed, event.fixed_set))
            return after

        monkeypatch.setattr(ibrl.agents, "condition", recording)
        run_experiment(cfg)
        assert sum(fixed for fixed, _ in seen) > len(seen) / 3
        assert {stored for _, stored in seen} == {None}

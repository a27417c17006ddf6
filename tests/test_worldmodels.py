"""Tests for the three world-model families and their measures."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibrl.worldmodels
from ibrl import (
    STATELESS,
    BernoulliArmMeasure,
    BernoulliArmsModel,
    ConfigError,
    DegenerateUpdateError,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    JointHypothesisBanditModel,
    JointHypothesisMeasure,
    NewcombModel,
    ObservationEvent,
    OutcomeCountHistory,
    RepresentationError,
    newcomb_expected_reward,
    newcomb_prediction_prob,
    predictive,
)
from ibrl.agents import deterministic_grid, policy_grid
from ibrl.inframeasure import (
    AMeasure,
    Infradistribution,
    lower_expectation,
    lower_expectations,
)
from ibrl.worldmodels import (
    _POINT_WEIGHT,
    DEFAULT_NEWCOMB_MATRIX,
    _arm_posterior,
    _draw_index,
    _read_only,
    newcomb_reward_moments,
)


class TestFiniteOutcomeMeasure:
    def test_rejects_negative_mass(self):
        with pytest.raises(RepresentationError):
            FiniteOutcomeMeasure((-0.1, 0.5))

    def test_rejects_total_mass_above_one(self):
        with pytest.raises(RepresentationError):
            FiniteOutcomeMeasure((0.7, 0.7))

    def test_submass_is_allowed(self):
        m = FiniteOutcomeMeasure((0.2, 0.3))
        assert m.masses == (0.2, 0.3)


class TestExplicitFiniteModel:
    def test_expectation_is_the_dot_product(self):
        model = ExplicitFiniteModel(3)
        m = FiniteOutcomeMeasure((0.2, 0.3, 0.5))
        f = model.return_function((1.0, 0.0, 0.5))
        np.testing.assert_allclose(model.expectation(m, None, f), 0.2 + 0.25)

    def test_restrict_zeroes_off_branch_mass_and_reports_its_return(self):
        model = ExplicitFiniteModel(3)
        m = FiniteOutcomeMeasure((0.2, 0.3, 0.5))
        g = model.return_function((1.0, 1.0, 1.0))
        restriction = model.restrict(m, None, model.observation([0], g))
        assert restriction.measure.masses == (0.2, 0.0, 0.0)
        np.testing.assert_allclose(restriction.offbranch_value, 0.8)

    def test_single_outcome_observation_accepts_a_bare_index(self):
        model = ExplicitFiniteModel(2)
        g = model.return_function((0.0, 0.0))
        event = model.observation(1, g)
        restriction = model.restrict(FiniteOutcomeMeasure((0.4, 0.6)), None, event)
        assert restriction.measure.masses == (0.0, 0.6)

    def test_mix_averages_masses(self):
        model = ExplicitFiniteModel(2)
        mixed = model.mix(
            [FiniteOutcomeMeasure((1.0, 0.0)), FiniteOutcomeMeasure((0.0, 1.0))],
            [0.25, 0.75],
        )
        np.testing.assert_allclose(mixed.masses, (0.25, 0.75))


class TestBernoulliArms:
    def test_point_measure_predictive_is_the_success_probability(self):
        model = BernoulliArmsModel(2)
        m = model.point_measure([0.3, 0.8])
        h = model.initial_history()
        np.testing.assert_allclose(predictive(m, h, 0), 0.3)
        np.testing.assert_allclose(predictive(m, h, 1), 0.8)

    def test_grid_posterior_predictive_after_one_success(self):
        """Uniform on {0.3, 0.7}: one success tilts the weights to the
        likelihoods (0.3, 0.7), so the predictive is 0.09 + 0.49 = 0.58."""
        model = BernoulliArmsModel(1)
        m = model.grid_measure([0.3, 0.7])
        h = model.next_history(model.initial_history(), (0, 1))
        np.testing.assert_allclose(predictive(m, h, 0), 0.58)

    def test_impossible_history_raises(self):
        model = BernoulliArmsModel(1)
        m = model.point_measure([1.0])
        h = OutcomeCountHistory(((1, 0),))
        with pytest.raises(DegenerateUpdateError):
            predictive(m, h, 0)

    def test_expected_action_values_match_per_arm_predictives(self):
        model = BernoulliArmsModel(2)
        m = model.grid_measure([0.2, 0.6])
        h = model.initial_history()
        values = np.array([[0.0, 1.0], [0.0, 1.0]])
        got = model.expected_action_values(m, h, values)
        np.testing.assert_allclose(got, [0.4, 0.4])

    def test_restrict_returns_branch_probability_and_off_branch_value(self):
        model = BernoulliArmsModel(1)
        m = model.point_measure([0.6])
        g = model.arm_return(0, [[0.0, 1.0]])
        event = model.observation(0, 0, g)
        restriction = model.restrict(m, model.initial_history(), event)
        np.testing.assert_allclose(restriction.scale_factor, 0.4)
        np.testing.assert_allclose(restriction.offbranch_value, 0.6)

    def test_sampled_action_values_draws_one_joint_hypothesis(self):
        model = BernoulliArmsModel(2)
        m = model.grid_measure([0.2, 0.6])
        h = model.initial_history()
        values = np.array([[0.0, 1.0], [0.0, 1.0]])
        rng = np.random.default_rng(42)
        draws = {tuple(model.sampled_action_values(m, h, values, rng)) for _ in range(64)}
        assert draws <= {(a, b) for a in (0.2, 0.6) for b in (0.2, 0.6)}
        assert len(draws) > 1

    def test_history_exchangeability(self):
        """Counts are sufficient: permuting the observation order cannot
        change the posterior predictive."""
        model = BernoulliArmsModel(2)
        m = model.grid_measure([0.25, 0.5, 0.75])
        h1 = model.initial_history()
        for arm, r in [(0, 1), (1, 0), (0, 0), (0, 1)]:
            h1 = model.next_history(h1, (arm, r))
        h2 = model.initial_history()
        for arm, r in [(0, 1), (0, 1), (0, 0), (1, 0)]:
            h2 = model.next_history(h2, (arm, r))
        assert h1 == h2
        np.testing.assert_allclose(predictive(m, h1, 0), predictive(m, h2, 0))

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_predictive_stays_inside_the_grid_hull(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        grid = rng.random(data.draw(st.integers(2, 6)))
        model = BernoulliArmsModel(1)
        m = model.grid_measure(grid)
        pulls = data.draw(st.integers(0, 10))
        successes = data.draw(st.integers(0, 10))
        if successes > pulls:
            pulls, successes = successes, pulls
        h = OutcomeCountHistory(((pulls - successes, successes),))
        if grid.min() == grid.max() == 0.0 and successes > 0:
            return
        try:
            p = predictive(m, h, 0)
        except DegenerateUpdateError:
            return
        assert grid.min() - 1e-12 <= p <= grid.max() + 1e-12


def _sweep_moments_by_cell(matrix, alphas, candidates):
    """Check a sweep's moments against each (cell, policy) computed alone
    and against ``newcomb_expected_reward``, bit for bit; return each
    cell's model and first-moment row."""
    column = candidates.probs[:, 0]
    models = [NewcombModel(matrix, accuracy=alpha) for alpha in alphas]
    means, seconds = newcomb_reward_moments(column, alphas, models[0].table)
    assert means.shape == seconds.shape == (len(alphas), len(column))
    for model, row_means, row_seconds in zip(models, means.tolist(), seconds.tolist()):
        for p, mean, second in zip(column.tolist(), row_means, row_seconds):
            alone = newcomb_reward_moments(np.array([p]), [model.accuracy], model.table)
            assert (mean.hex(), second.hex()) == (alone[0].item().hex(), alone[1].item().hex())
            assert mean.hex() == newcomb_expected_reward(p, model).hex()
    return list(zip(models, means.tolist()))


class TestNewcomb:
    def test_prediction_probability_interpolates_accuracy(self):
        np.testing.assert_allclose(newcomb_prediction_prob(0.0, 0.75), 0.25)
        np.testing.assert_allclose(newcomb_prediction_prob(1.0, 0.75), 0.75)
        np.testing.assert_allclose(newcomb_prediction_prob(0.5, 0.9), 0.5)

    def test_expected_reward_at_the_three_reference_accuracies(self):
        for alpha, p, expected in [
            (0.50, 0.0, 6.0),
            (0.55, 1.0, 5.5),
            (0.55, 0.0, 5.5),
            (1.00, 1.0, 10.0),
        ]:
            model = NewcombModel(accuracy=alpha)
            np.testing.assert_allclose(
                newcomb_expected_reward(p, model), expected, atol=1e-12
            )

    def test_perfect_predictor_rewards(self):
        model = NewcombModel(accuracy=1.0)
        np.testing.assert_allclose(newcomb_expected_reward(1.0, model), 10.0)
        np.testing.assert_allclose(newcomb_expected_reward(0.0, model), 1.0)

    def test_expected_reward_is_affine_in_the_one_box_probability(self):
        model = NewcombModel(accuracy=0.8)
        lo = newcomb_expected_reward(0.0, model)
        hi = newcomb_expected_reward(1.0, model)
        mid = newcomb_expected_reward(0.3, model)
        np.testing.assert_allclose(mid, 0.7 * lo + 0.3 * hi)

    def test_accuracy_outside_half_one_rejected(self):
        with pytest.raises(ConfigError):
            NewcombModel(accuracy=0.2)

    @pytest.mark.parametrize(
        "matrix", [DEFAULT_NEWCOMB_MATRIX, ((10.0, -5.0), (11.0, 1.0)), ((1.3, -0.7), (2.9, 0.1))]
    )
    def test_array_moments_equal_the_scalar_moments_bit_for_bit(self, matrix):
        """A sweep computes every cell's candidate moments in one array
        pass; each entry must equal the one policy's moments in that one
        cell computed alone."""
        alphas = [round(0.5 + i * 0.01, 10) for i in range(51)]
        for step in (0.1, 0.05, 0.01, 0.25, 0.3, 0.07):
            _sweep_moments_by_cell(matrix, alphas, policy_grid(2, step))

    @settings(max_examples=60, deadline=None)
    @given(
        matrix=st.one_of(
            st.just(((0.0, 2.0), (2.0, 0.0))),
            st.just(DEFAULT_NEWCOMB_MATRIX),
            # Decimals in [-1000, 1000]: no entry is -0.0 or so small that a
            # product underflows to it, which the belief's offset would turn
            # into +0.0.
            st.lists(st.integers(-10**6, 10**6).map(lambda n: n / 1000), min_size=4, max_size=4)
            .map(lambda v: ((v[0], v[1]), (v[2], v[3]))),
        ),
        inner=st.lists(st.floats(0.5, 1.0), max_size=6),
        step=st.floats(0.01, 1.0),
    )
    def test_sweep_moments_are_what_each_cells_agent_compares(self, matrix, inner, step):
        """Per cell, the sweep's first moments are the values the cell's
        maximin agent compares on its one-point belief, so the regret
        column's best is their maximum."""
        candidates = policy_grid(2, step)
        alphas = sorted({0.5, 1.0, *inner})
        for model, row_means in _sweep_moments_by_cell(matrix, alphas, candidates):
            belief = Infradistribution.singleton(AMeasure(1.0, STATELESS, 0.0, model), None)
            values = lower_expectations(belief, model.policy_return(0.5), candidates.probs).tolist()
            assert [v.hex() for v in values] == [m.hex() for m in row_means]
            assert max(values) == max(row_means)

    def test_reward_table_is_a_read_only_float_copy_of_the_matrix(self):
        model = NewcombModel(((1, 2.0), (3.0, 4.0)), accuracy=0.7)
        assert model.table.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert not model.table.flags.writeable
        assert model.policy_return(0.5).f_max == 4.0
        assert model == NewcombModel(((1.0, 2.0), (3.0, 4.0)), accuracy=0.7)
        assert "table" not in repr(model)
        inf, nan = float("inf"), float("nan")
        for bad in (((1.0, 2.0),), ((1.0, 2.0), (3.0, inf)), ((1.0, nan), (3.0, 4.0))):
            with pytest.raises(ConfigError, match="finite 2x2 table"):
                NewcombModel(bad)

    def test_observation_is_an_identity_update(self):
        """The predictor experiment has no informative feedback between
        episodes, so its observation event keeps the whole measure."""
        model = NewcombModel(accuracy=0.9)
        restriction = model.restrict(STATELESS, None, model.observation())
        assert restriction.scale_factor == 1.0
        assert restriction.offbranch_value == 0.0


class TestJointHypothesisModel:
    def setup_method(self):
        self.model = JointHypothesisBanditModel(2, 3)
        self.tables = np.array(
            [
                [[0.0, 0.3, 0.7], [0.0, 0.6, 0.4]],
                [[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]],
            ]
        )
        self.values = np.tile([0.0, 0.5, 1.0], (2, 1))

    def test_prior_expected_action_values(self):
        m = self.model.measure([0.5, 0.5], self.tables)
        h = self.model.initial_history()
        got = self.model.expected_action_values(m, h, self.values)
        expected = 0.5 * (self.tables[0] @ [0.0, 0.5, 1.0]) + 0.5 * (
            self.tables[1] @ [0.0, 0.5, 1.0]
        )
        np.testing.assert_allclose(got, expected)

    def test_posterior_concentrates_on_the_consistent_hypothesis(self):
        """Observing the outcome that only hypothesis 1 allows on arm 0
        (index 0 with probability 0.5) eliminates hypothesis 0."""
        m = self.model.measure([0.5, 0.5], self.tables)
        h = self.model.initial_history()
        event = self.model.observation(0, 0, self.model.arm_return(0, self.values))
        h2 = self.model.next_history(h, event.indicator)
        probs = self.model.predictive_outcome_probs(m, h2, 0)
        np.testing.assert_allclose(probs, self.tables[1, 0])

    def test_restrict_scale_factor_is_the_predictive_probability(self):
        m = self.model.measure([0.5, 0.5], self.tables)
        h = self.model.initial_history()
        event = self.model.observation(1, 1, self.model.arm_return(1, self.values))
        restriction = self.model.restrict(m, h, event)
        np.testing.assert_allclose(restriction.scale_factor, 0.5 * 0.6 + 0.5 * 0.5)

    def test_impossible_observation_raises(self):
        """Counts advance unconditionally; the contradiction surfaces when
        the posterior is next queried."""
        m = self.model.measure([1.0], self.tables[:1])
        h = self.model.initial_history()
        event = self.model.observation(0, 0, self.model.arm_return(0, self.values))
        h2 = self.model.next_history(h, event.indicator)
        with pytest.raises(DegenerateUpdateError):
            self.model.predictive_outcome_probs(m, h2, 0)

    def test_mix_merges_identical_hypotheses(self):
        m1 = self.model.measure([1.0], self.tables[:1])
        m2 = self.model.measure([1.0], self.tables[:1])
        mixed = self.model.mix([m1, m2], [0.5, 0.5])
        assert len(mixed.weights) == 1
        np.testing.assert_allclose(mixed.weights[0], 1.0)


def _random_bandit(kind, rng):
    """A bandit model, a random measure over it and a random history of up
    to 8 observations the measure allows."""
    arms = int(rng.integers(1, 4))
    if kind == "joint":
        outcomes = int(rng.integers(2, 5))
        model = JointHypothesisBanditModel(arms, outcomes)
        hypotheses = int(rng.integers(1, 6))
        m = model.measure(
            rng.dirichlet(np.ones(hypotheses)),
            rng.dirichlet(np.ones(outcomes), (hypotheses, arms)),
        )
    else:
        model = BernoulliArmsModel(arms)
        m = BernoulliArmMeasure(
            tuple(
                tuple(zip(rng.dirichlet(np.ones(k)), rng.random(k)))
                for k in rng.integers(1, 5, arms)
            )
        )
    h = model.initial_history()
    for _ in range(int(rng.integers(0, 9))):
        arm, outcome = int(rng.integers(arms)), int(rng.integers(model.outcome_count))
        h = model.next_history(h, (arm, outcome))
    return model, m, h


class TestBanditSurface:
    """Both bandit models share one per-arm value computation, so a single
    pull, a policy grid and ``bayes_select`` see the same bits per arm."""

    @pytest.mark.parametrize("kind", ["bernoulli", "joint"])
    def test_every_path_gives_the_expected_action_values_bit_for_bit(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(200):
            model, m, h = _random_bandit(kind, rng)
            values = rng.random((model.arm_count, model.outcome_count))
            want = model.expected_action_values(m, h, values).tolist()
            f = model.arm_return(0, values)
            assert model.policy_expectations(m, h, f, np.eye(model.arm_count)).tolist() == want
            assert [
                model.expectation(m, h, model.arm_return(arm, values))
                for arm in range(model.arm_count)
            ] == want

    @pytest.mark.parametrize("kind", ["bernoulli", "joint"])
    def test_events_out_of_range_are_rejected(self, kind):
        model = (
            JointHypothesisBanditModel(2, 3)
            if kind == "joint"
            else BernoulliArmsModel(2)
        )
        g = model.arm_return(0, np.ones((2, model.outcome_count)))
        model.observation(1, model.outcome_count - 1, g)
        for arm, outcome in [(2, 0), (-1, 0), (0, model.outcome_count), (0, -1), (0.5, 0)]:
            with pytest.raises(RepresentationError, match="bandit events"):
                model.observation(arm, outcome, g)
        with pytest.raises(RepresentationError, match="bandit events"):
            ObservationEvent(model, (0, 0.5), g)


def _walk_events():
    """(history index, arm, outcome) triples: two interleaved histories on
    one measure, each pulling random arms."""
    return st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)),
        min_size=200,
        max_size=240,
    )


def _reference_arm_posterior(components, failures, successes):
    """One arm's posterior rebuilt from the raw ``(weight, p)`` tuples, in
    the order of operations the library uses."""
    c = np.array([w for w, _ in components], dtype=float)
    p = np.array([q for _, q in components], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lw = np.log(c)
        if successes > 0:
            lw = lw + successes * np.log(p)
        if failures > 0:
            lw = lw + failures * np.log1p(-p)
    w = np.exp(lw - lw.max())
    return w / w.sum()


def _bernoulli_history(pulls, successes):
    """The Bernoulli history of per-arm pull and success counts: one
    ``(failures, successes)`` row per arm."""
    return OutcomeCountHistory(tuple((n - r, r) for n, r in zip(pulls, successes)))


def _reference_joint_posterior(weights, outcome_probs, counts):
    """Joint-hypothesis posterior rebuilt from the raw tuples, in the order
    of operations the library uses."""
    w = np.asarray(weights, dtype=float)
    probs = np.asarray(outcome_probs, dtype=float)
    counts = np.asarray(counts, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_likes = np.where(counts > 0, counts * np.log(probs), 0.0).sum(axis=(1, 2))
        lw = np.where(w > 0, np.log(np.where(w > 0, w, 1.0)), -np.inf) + log_likes
    post = np.exp(lw - lw.max())
    return post / post.sum()


class TestPosteriorMemo:
    """A measure's counts-keyed memo must never change a result: every
    posterior-derived value on a long-lived measure equals, bit for bit, the
    value on a freshly built equal measure whose memo is cold, and the
    posterior equals one rebuilt from the raw tuples."""

    BERNOULLI = BernoulliArmsModel(2)
    # Weight-0 and p in {0, 1} components put -inf into the log tables.
    BERNOULLI_ARMS = (
        ((0.5, 0.3), (0.3, 0.7), (0.2, 0.9), (0.0, 1.0)),
        ((0.25, 0.0), (0.75, 0.6)),
    )
    JOINT = JointHypothesisBanditModel(2, 3)
    # Hypothesis 2 allows every outcome, so no walk is impossible.
    JOINT_WEIGHTS = (0.5, 0.3, 0.2, 0.0)
    JOINT_TABLES = (
        ((0.2, 0.3, 0.5), (0.6, 0.4, 0.0)),
        ((0.5, 0.5, 0.0), (0.1, 0.1, 0.8)),
        ((0.3, 0.3, 0.4), (0.3, 0.3, 0.4)),
        ((0.1, 0.1, 0.8), (0.0, 0.0, 1.0)),
    )
    VALUES = {
        "bernoulli": np.array([[0.0, 1.0], [0.2, 0.9]]),
        "joint": np.array([[0.0, 0.5, 1.0], [0.1, 0.4, 0.9]]),
    }
    PROBS = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.7]])

    def _model(self, kind):
        return self.JOINT if kind == "joint" else self.BERNOULLI

    def _measure(self, kind):
        if kind == "joint":
            return self.JOINT.measure(self.JOINT_WEIGHTS, self.JOINT_TABLES)
        return BernoulliArmMeasure(self.BERNOULLI_ARMS)

    def _observables(self, kind, m, h, event, seed):
        """Every posterior-derived value of one (measure, history), as plain
        Python data so that ``==`` compares exact bits."""
        model, values = self._model(kind), self.VALUES[kind]
        f = model.policy_return([1.0, 0.0], values)
        r = model.restrict(m, h, event)
        out = {
            "expected_action_values": model.expected_action_values(m, h, values).tolist(),
            "policy_expectations": model.policy_expectations(m, h, f, self.PROBS).tolist(),
            "restrict": (r.measure, r.scale_factor, r.offbranch_value),
            "sampled_action_values": model.sampled_action_values(
                m, h, values, np.random.default_rng(seed)
            ).tolist(),
        }
        if kind == "joint":
            out["posterior"] = model._posterior(m, h).tolist()
            out["predictive"] = [model.predictive_outcome_probs(m, h, a).tolist() for a in (0, 1)]
        else:
            out["posterior"] = [_arm_posterior(m, h, a)[0].tolist() for a in (0, 1)]
            out["predictive"] = [predictive(m, h, a) for a in (0, 1)]
        return out

    def _walk(self, kind, steps):
        """Yield (history, next event, step) along ``steps``, advancing the
        chosen one of two histories each step."""
        model = self._model(kind)
        outcomes = self.VALUES[kind].shape[1]
        g = model.arm_return(0, self.VALUES[kind])
        histories = [model.initial_history(), model.initial_history()]
        for k, (which, arm, outcome) in enumerate(steps):
            event = model.observation(arm, outcome % outcomes, g)
            yield histories[which], event, k
            histories[which] = model.next_history(histories[which], event.indicator)

    @pytest.mark.parametrize("kind", ["bernoulli", "joint"])
    @settings(max_examples=8, deadline=None)
    @given(steps=_walk_events())
    def test_long_lived_measure_matches_a_fresh_one(self, kind, steps):
        m = self._measure(kind)
        for h, event, k in self._walk(kind, steps):
            fresh = self._measure(kind)
            assert fresh == m
            got = self._observables(kind, m, h, event, k)
            assert got == self._observables(kind, fresh, h, event, k)
            if kind == "joint":
                reference = _reference_joint_posterior(m.weights, m.outcome_probs, h.counts)
                assert got["posterior"] == reference.tolist()
            else:
                assert got["posterior"] == [
                    _reference_arm_posterior(m.arms[a], *h.counts[a]).tolist()
                    for a in (0, 1)
                ]

    def test_constructed_histories_with_moving_counts_match_a_cold_measure(self):
        """Consecutive queries on one measure with constructor-built
        histories whose counts move by one increment, in several cells, by
        one decrement, back to 0 in a cell that hypothesis 1 rules out
        (``log p = -inf``), and by one increment into a cell that hypothesis
        0 rules out. After each query the table holds that history's entry
        alone, and it must match a cold measure and the reference posterior
        bit for bit."""
        tables = [
            ((0, 0, 0), (0, 0, 0)),
            ((0, 0, 1), (0, 0, 0)),  # one increment
            ((1, 0, 1), (0, 2, 0)),  # several cells
            ((1, 0, 1), (0, 1, 0)),  # one decrement
            ((1, 0, 0), (0, 1, 0)),  # back to 0 where log p = -inf
            ((1, 0, 0), (0, 1, 1)),  # one increment where log p = -inf
            ((1, 0, 0), (0, 1, 1)),  # unchanged
            ((3, 0, 0), (0, 1, 1)),  # one cell moved by 2
        ]
        g = self.JOINT.arm_return(0, self.VALUES["joint"])
        m = self._measure("joint")
        for k, counts in enumerate(tables):
            h = OutcomeCountHistory(counts)
            event = self.JOINT.observation(k % 2, k % 3, g)
            got = self._observables("joint", m, h, event, k)
            assert list(m.table[1]) == [counts]
            assert got == self._observables("joint", self._measure("joint"), h, event, k)
            reference = _reference_joint_posterior(m.weights, m.outcome_probs, counts)
            assert got["posterior"] == reference.tolist()

    @pytest.mark.parametrize("kind", ["bernoulli", "joint"])
    def test_memo_holds_one_entry_per_arm_after_a_long_walk(self, kind):
        model, m = self._model(kind), self._measure(kind)
        steps = np.random.default_rng(5).integers(0, [2, 2, 3], (1000, 3)).tolist()
        for h, _, _ in self._walk(kind, steps):
            model.expected_action_values(m, h, self.VALUES[kind])
        if kind == "joint":
            # A miss warms the table with its one history and value table.
            assert m.table[0] is self.VALUES[kind] and list(m.table[1]) == [h.counts]
        else:
            assert len(m.memo) == model.arm_count
            assert [key for key, _ in m.memo] == list(h.counts)

    def test_impossible_history_still_raises_with_a_warm_bernoulli_memo(self):
        m = BernoulliArmMeasure((((0.5, 0.0), (0.5, 1.0)),))
        possible = OutcomeCountHistory(((0, 3),))
        impossible = OutcomeCountHistory(((1, 3),))
        assert predictive(m, possible, 0) == 1.0
        for _ in range(2):
            with pytest.raises(DegenerateUpdateError):
                predictive(m, impossible, 0)
        assert m.memo[0][0] == (0, 3)
        assert predictive(m, possible, 0) == 1.0

    def test_impossible_history_still_raises_with_a_warm_joint_memo(self):
        # Neither hypothesis allows outcome 0 on arm 1.
        m = self.JOINT.measure((0.5, 0.5), self.JOINT_TABLES[:1] + self.JOINT_TABLES[3:])
        possible = OutcomeCountHistory(((1, 1, 0), (0, 0, 1)))
        impossible = OutcomeCountHistory(((1, 1, 0), (1, 0, 1)))
        warm = self.JOINT._posterior(m, possible).tolist()
        for _ in range(2):
            with pytest.raises(DegenerateUpdateError):
                self.JOINT._posterior(m, impossible)
        assert self.JOINT._posterior(m, possible).tolist() == warm

    def test_cached_arrays_are_read_only(self):
        b, j = self._measure("bernoulli"), self._measure("joint")
        arrays = [a for table in b.tables for a in table]
        arrays += [j.log_weights, j.probs, j.log_probs]
        arrays.append(_arm_posterior(b, OutcomeCountHistory(((1, 1), (0, 0))), 0)[0])
        point = BernoulliArmMeasure((((1.0, 0.3),),))
        arrays.append(_arm_posterior(point, OutcomeCountHistory(((1, 1),)), 0)[0])
        arrays.append(self.JOINT._posterior(j, self.JOINT.initial_history()))
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5

    def test_caches_stay_out_of_equality_and_hashing(self):
        for kind in ("bernoulli", "joint"):
            warm, cold = self._measure(kind), self._measure(kind)
            self._model(kind).expected_action_values(
                warm, self._model(kind).initial_history(), self.VALUES[kind]
            )
            assert warm == cold and hash(warm) == hash(cold)


@st.composite
def _joint_rosters(draw):
    """One to four joint measures over shared arms and outcomes, each with
    its own hypothesis count, zero weights and ``p = 0`` cells, a read-only
    value table or none (as a posterior read has), and up to eight count
    tables, some repeated (a measure may get none). Shapes reach 8 or more
    cells per hypothesis and 8 or more hypotheses, where numpy's sums switch
    to pairwise blocks, so padding to the longest measure must not reach a
    shorter measure's sums."""
    arms, outcomes = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    cells = st.lists(st.integers(0, 3), min_size=outcomes, max_size=outcomes).filter(any)
    count = st.lists(st.integers(0, 4), min_size=outcomes, max_size=outcomes).map(tuple)
    measures = []
    for _ in range(draw(st.integers(1, 4))):
        hypotheses = draw(st.integers(1, 10))
        tables = [[draw(cells) for _ in range(arms)] for _ in range(hypotheses)]
        weights = draw(st.lists(st.integers(0, 3), min_size=hypotheses, max_size=hypotheses).filter(any))
        values = None
        if draw(st.booleans()):
            flat = draw(st.lists(st.floats(0.0, 1.0), min_size=arms * outcomes, max_size=arms * outcomes))
            values = _read_only(np.array(flat).reshape(arms, outcomes))
        counts = draw(st.lists(st.tuples(*[count] * arms), max_size=8))
        measures.append((
            np.array(weights) / sum(weights),
            [[[p / sum(row) for p in row] for row in table] for table in tables],
            values,
            counts,
        ))
    return arms, outcomes, measures


def _hex(a) -> list[str]:
    return [float(x).hex() for x in np.ravel(a)]


class TestJointWarm:
    """One warm over a roster of measures and their histories fills each
    measure's table with what a batch of that measure and one history fills
    it with, bit for bit (in float hex), and with what the references give:
    the posterior rebuilt from the raw tuples, its predictive, the running
    sum ``_draw_index`` searches, and arm values summed over outcomes, then
    hypotheses, in Python floats (the order of the parent's ``np.einsum`` on
    two or more arms), under the value table or zeros without one. An
    impossible history never enters a table, and reading it raises."""

    @settings(max_examples=80, deadline=None)
    @given(roster=_joint_rosters())
    def test_a_batch_equals_batches_of_one_and_the_references(self, roster):
        arms, outcomes, specs = roster
        model = JointHypothesisBanditModel(arms, outcomes)
        measures = [model.measure(weights, tables) for weights, tables, _, _ in specs]
        batch = model.roster([(m, spec[2]) for m, spec in zip(measures, specs)])
        model.warm(batch, [(m, OutcomeCountHistory(c)) for m, spec in zip(measures, specs) for c in spec[3]])
        for m, (weights, tables, values, counts) in zip(measures, specs):
            held, entries = m.table[0], dict(m.table[1])
            # A warmed measure holds its roster value table; an unwarmed one none.
            assert held is (values if counts else None)
            model_values = _read_only(np.zeros((arms, outcomes))) if values is None else values
            for h in map(OutcomeCountHistory, counts):
                one = model.measure(weights, tables)
                model.warm(model.roster([(one, values)]), [(one, h)])
                with np.errstate(invalid="ignore"):
                    reference = _reference_joint_posterior(m.weights, m.outcome_probs, h.counts)
                if np.isnan(reference).any():
                    assert h.counts not in entries
                    assert one.table[0] is values and one.table[1] == {}
                    with pytest.raises(DegenerateUpdateError, match="impossible"):
                        model.expected_action_values(one, h, model_values)
                    with pytest.raises(DegenerateUpdateError, match="impossible"):
                        model.predictive_outcome_probs(one, h, 0)
                    continue
                post, arm_values, running = entries[h.counts]
                one_post, one_values, one_running = one.table[1][h.counts]
                assert _hex(post) == _hex(one_post) == _hex(reference)
                for arm in range(arms):
                    got = model.predictive_outcome_probs(m, h, arm)
                    assert _hex(got) == _hex(model.predictive_outcome_probs(one, h, arm))
                    assert _hex(got) == _hex(reference @ m.probs[:, arm, :])
                # What ``_draw_index`` searches: the running sum over its last entry.
                cumulative = reference.cumsum()
                assert _hex(running) == _hex(one_running) == _hex(cumulative / cumulative[-1])
                assert _hex(arm_values) == _hex(one_values)
                if values is not None:
                    assert model.expected_action_values(m, h, values) is arm_values
                written_out = []
                for arm in range(arms):
                    total = 0.0
                    for c, weight in enumerate(post.tolist()):
                        per_hypothesis = 0.0
                        for o in range(outcomes):
                            per_hypothesis += weight * m.probs[c, arm, o] * model_values[arm, o]
                        total += per_hypothesis
                    written_out.append(total)
                assert _hex(arm_values) == _hex(written_out)
                if arms > 1:
                    assert _hex(arm_values) == _hex(np.einsum("c,cjo,jo->j", post, m.probs, model_values))
            # Every read of ``m`` above was a hit: its table is the batch's.
            assert m.table[0] is held and m.table[1] == entries

    def test_a_roster_pass_raises_no_warning_on_impossible_rows(self):
        """Rows of every measure impossible, next to a possible one: the
        pass drops them before ``exp`` (the suite turns numpy's
        ``RuntimeWarning`` into an error)."""
        model = JointHypothesisBanditModel(1, 2)
        sure = model.measure((1.0,), (((0.0, 1.0),),))
        mixed = model.measure((0.5, 0.5), (((0.0, 1.0),), ((0.5, 0.5),)))
        values = _read_only(np.array([[0.0, 1.0]]))
        batch = model.roster([(mixed, values), (sure, None)])
        # Ordered by hypothesis count alone.
        assert batch.measures[0] is sure and batch.measures[1] is mixed and batch.values == (None, values)
        refuted, fine = OutcomeCountHistory(((1, 0),)), OutcomeCountHistory(((0, 2),))
        model.warm(batch, [(sure, refuted), (mixed, refuted), (sure, fine)])
        assert sure.table[0] is None and list(sure.table[1]) == [((0, 2),)]
        assert mixed.table[0] is values and list(mixed.table[1]) == [((1, 0),)]

    def test_thompson_rows_are_built_once_per_read_only_table(self):
        model = TestPosteriorMemo.JOINT
        m = model.measure(TestPosteriorMemo.JOINT_WEIGHTS, TestPosteriorMemo.JOINT_TABLES)
        h = model.next_history(model.initial_history(), (1, 2))
        values = _read_only(TestPosteriorMemo.VALUES["joint"].copy())
        for seed in range(20):
            c = _draw_index(model._posterior(m, h), np.random.default_rng(seed))
            got = model.sampled_action_values(m, h, values, np.random.default_rng(seed))
            assert got.tolist() == np.einsum("jo,jo->j", m.probs[c], values).tolist()
            rows = m.rows[1]
            assert got is rows[c]
        writable = values.copy()
        model.sampled_action_values(m, h, writable, np.random.default_rng(0))
        assert m.rows[1] is not rows
        writable[:] = 0.0
        assert model.sampled_action_values(m, h, writable, np.random.default_rng(0)).tolist() == [0.0, 0.0]


def _outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ``DegenerateUpdateError`` it raises."""
    try:
        return fn(*args)
    except DegenerateUpdateError as exc:
        return type(exc), str(exc)


class TestPointHypothesisArms:
    """A one-component arm skips the posterior arithmetic. Every result must
    equal, bit for bit, that of a twin arm whose extra zero-weight component
    keeps it on the general path, and the reference posterior."""

    PS = (0.0, 1e-300, 0.3, 0.7, 1.0 - 2.0**-53, 1.0)

    @staticmethod
    def _twins(p, q=0.45):
        point = BernoulliArmMeasure((((1.0, p),), ((1.0, q),)))
        twin = BernoulliArmMeasure((((1.0, p), (0.0, 0.5)), ((1.0, q), (0.0, 0.5))))
        return point, twin

    @staticmethod
    def _history(rng, p):
        """A history of up to 2,000 pulls per arm; arm 0's is possible under
        ``p`` only half the time."""
        pulls = rng.integers(0, 2001, 2).tolist()
        successes = [int(rng.integers(0, n + 1)) for n in pulls]
        if rng.random() < 0.5:
            successes[0] = {0.0: 0, 1.0: pulls[0]}.get(p, successes[0])
        return _bernoulli_history(pulls, successes)

    @pytest.mark.parametrize("p", PS)
    def test_predictive_equals_the_general_path_on_random_histories(self, p):
        rng = np.random.default_rng(int(p * 1e6) + 3)
        point, twin = self._twins(p)
        possible = 0
        for _ in range(300):
            h = self._history(rng, p)
            for arm in (0, 1):
                got = _outcome(predictive, point, h, arm)
                assert got == _outcome(predictive, twin, h, arm)
                if isinstance(got, float):
                    possible += 1
                    assert got == [p, 0.45][arm]
                    reference = _reference_arm_posterior(point.arms[arm], *h.counts[arm])
                    assert _arm_posterior(point, h, arm)[0].tolist() == reference.tolist()
        assert possible > 300
        assert point.memo == [None, None]

    @pytest.mark.parametrize("p, history", [(0.0, ((4, 1),)), (1.0, ((1, 4),))])
    def test_impossible_histories_raise_on_every_call(self, p, history):
        point, twin = (BernoulliArmMeasure((arm,)) for arm in (((1.0, p),), ((1.0, p), (0.0, 0.5))))
        model, h = BernoulliArmsModel(1), OutcomeCountHistory(history)
        want = _outcome(predictive, twin, h, 0)
        assert want[0] is DegenerateUpdateError
        values = np.array([[0.0, 1.0]])
        for _ in range(3):
            assert _outcome(predictive, point, h, 0) == want
            with pytest.raises(DegenerateUpdateError):
                model.expected_action_values(point, h, values)
            with pytest.raises(DegenerateUpdateError):
                model.sampled_action_values(point, h, values, np.random.default_rng(0))
        assert predictive(point, OutcomeCountHistory(((5 - 5 * int(p), 5 * int(p)),)), 0) == p

    def test_every_bandit_path_matches_the_twin(self):
        model = BernoulliArmsModel(2)
        values = np.array([[0.1, 0.9], [0.3, 0.6]])
        g = model.arm_return(0, values)

        def observables(m, h, event, seed):
            r = model.restrict(m, h, event)
            return (
                model.expected_action_values(m, h, values).tolist(),
                r.scale_factor,
                r.offbranch_value,
                model.sampled_action_values(m, h, values, np.random.default_rng(seed)).tolist(),
            )

        rng = np.random.default_rng(11)
        for p in self.PS:
            point, twin = self._twins(p)
            for k in range(50):
                h = self._history(rng, p)
                event = model.observation(k % 2, int(rng.integers(2)), g)
                want = _outcome(observables, twin, h, event, k)
                assert _outcome(observables, point, h, event, k) == want


class TestPointArmValues:
    """On a measure whose every arm is one point hypothesis, the action
    values are the per-arm formula, and a history that refutes an arm with
    ``p`` 0 or 1 raises on every call."""

    MODEL = BernoulliArmsModel(3)

    @staticmethod
    def _formula(ps, values):
        return [(1.0 - p) * values[arm, 0] + p * values[arm, 1] for arm, p in enumerate(ps)]

    def test_values_are_bit_equal_to_the_per_arm_formula(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            ps = rng.choice([0.0, 1.0, 1e-300, rng.random(), rng.random()], 3).tolist()
            m = self.MODEL.point_measure(ps)
            twin = BernoulliArmMeasure(tuple(((1.0, p), (0.0, 0.5)) for p in ps))
            values = _read_only(rng.random((3, 2)))
            h = OutcomeCountHistory(tuple((0 if p in (0.0, 1.0) else 5, 0) for p in ps))
            want = self._formula(ps, values)
            assert self.MODEL.expected_action_values(twin, h, values).tolist() == want
            for _ in range(2):
                assert self.MODEL.expected_action_values(m, h, values).tolist() == want

    @pytest.mark.parametrize(
        "p, possible, impossible",
        [(0.0, ((5, 0),), ((4, 1),)), (1.0, ((0, 5),), ((1, 4),))],
    )
    def test_impossible_histories_raise_on_every_call(self, p, possible, impossible):
        model, values = BernoulliArmsModel(1), _read_only(np.array([[0.25, 0.75]]))
        m = model.point_measure([p])
        assert m.certain_arms == (0,)
        want = model.expected_action_values(m, OutcomeCountHistory(possible), values).tolist()
        for _ in range(3):
            message = "^history is impossible under every component of this arm$"
            with pytest.raises(DegenerateUpdateError, match=message):
                model.expected_action_values(m, OutcomeCountHistory(impossible), values)
            assert model.expected_action_values(m, OutcomeCountHistory(possible), values).tolist() == want
        assert model.point_measure([0.5]).certain_arms == ()


class TestAllPointMeasures:
    """An all-point measure (every arm a point hypothesis, as at a Knightian
    corner) values a policy grid and restricts to an event from its arms'
    ``p`` alone, and every call checks the history first."""

    @staticmethod
    def _hex(values):
        return [float(v).hex() for v in values]

    @staticmethod
    def _random_case(rng):
        arms = int(rng.integers(1, 4))
        model = BernoulliArmsModel(arms)
        pool = [0.0, 1.0, 0.5, 1e-300]
        measures = [
            model.point_measure([pool[i] if i < 4 else rng.random() for i in rng.integers(0, 7, arms)])
            for _ in range(int(rng.integers(1, 5)))
        ]
        # Histories only refute an arm with p 0 or 1 by luck; most stay possible.
        pulls = rng.integers(0, 6, arms).tolist()
        successes = [int(rng.integers(0, n + 1)) for n in pulls]
        values = rng.random((arms, 2)) * 3.0
        return model, measures, _bernoulli_history(pulls, successes), values

    @staticmethod
    def _refutes(history, p, arm):
        failures, successes = history.counts[arm]
        return (p == 0.0 and successes > 0) or (p == 1.0 and failures > 0)

    def test_grid_values_and_restrictions_follow_the_points(self):
        """One-hot grid values equal row-wise ``lower_expectation`` bit for
        bit, and a refuting history raises alike on both; ``restrict``
        returns the measure itself with the point's mass on the observed
        branch, or raises exactly when the history refutes the event's arm."""
        rng = np.random.default_rng(1809)
        refuted = 0
        for _ in range(150):
            model, measures, h, values = self._random_case(rng)
            probs = deterministic_grid(model.arm_count).probs
            f = model.policy_return(np.full(model.arm_count, 1.0 / model.arm_count), values)
            g = model.policy_return(f.action_probs, rng.random((model.arm_count, 2)))
            points = tuple(
                AMeasure(float(rng.choice([0.0, 1.0, rng.random() * 2])), m, rng.random(), model)
                for m in measures
            )
            belief = Infradistribution(points, h)
            for ret in (f, g):
                got = _outcome(lower_expectations, belief, ret, probs)
                rows = [
                    _outcome(lower_expectation, belief, model.policy_return(row, ret.values))
                    for row in probs
                ]
                if isinstance(got, tuple):
                    refuted += 1
                    assert rows == [got] * len(rows)
                else:
                    assert self._hex(got) == self._hex(rows)
            message = (DegenerateUpdateError, "history is impossible under every component of this arm")
            for m, arm, outcome, ret in itertools.product(
                measures, range(model.arm_count), (0, 1), (f, g)
            ):
                got = _outcome(model.restrict, m, h, model.observation(arm, outcome, ret))
                p = m.arms[arm][0][1]
                if self._refutes(h, p, arm):
                    assert got == message
                    continue
                p_obs = p if outcome == 1 else 1.0 - p
                assert got.measure is m
                assert self._hex(got[1:]) == self._hex(
                    [p_obs, (1.0 - p_obs) * ret.values[arm, 1 - outcome]]
                )
        assert refuted > 0

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_impossible_histories_raise_on_every_call(self, p):
        model = BernoulliArmsModel(2)
        m = model.point_measure([p, 0.4])
        f = model.policy_return([0.5, 0.5], np.array([[0.2, 0.9], [0.1, 0.7]]))
        probs = deterministic_grid(2).probs
        event = model.observation(0, 1, f)
        good = OutcomeCountHistory(((3 - 3 * int(p), 3 * int(p)), (1, 0)))
        bad = OutcomeCountHistory(((2, 1) if p == 0.0 else (1, 2), (1, 0)))

        def belief(h):
            return Infradistribution.singleton(AMeasure(1.0, m, 0.0, model), h)

        message = "^history is impossible under every component of this arm$"
        for warm in (False, True, True):
            if warm:
                want_values = lower_expectations(belief(good), f, probs).tolist()
                want_restriction = model.restrict(m, good, event)
            with pytest.raises(DegenerateUpdateError, match=message):
                lower_expectations(belief(bad), f, probs)
            with pytest.raises(DegenerateUpdateError, match=message):
                model.restrict(m, bad, event)
            with pytest.raises(RepresentationError, match=r"\(arms, outcomes\)"):
                model.restrict(m, OutcomeCountHistory(((1, 0),)), event)
            with pytest.raises(RepresentationError, match=r"\(arms, outcomes\)"):
                model.policy_expectations(m, OutcomeCountHistory(((1, 0),)), f, probs)
        assert lower_expectations(belief(good), f, probs).tolist() == want_values
        assert model.restrict(m, good, event) == want_restriction

    @staticmethod
    @st.composite
    def _point_beliefs(draw):
        """An all-point belief with at least one nonzero-scale point, and a
        history that may refute its arms or have the wrong arm count."""
        arms = draw(st.integers(1, 3))
        model = BernoulliArmsModel(arms)
        probs = st.lists(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0), min_size=arms, max_size=arms)
        scale = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0)
        points = [
            AMeasure(draw(scale), model.point_measure(draw(probs)), draw(st.floats(0.0, 2.0)), model)
            for _ in range(draw(st.integers(1, 4)))
        ]
        if all(a.scale == 0.0 for a in points):
            i = draw(st.integers(0, len(points) - 1))
            points[i] = dataclasses.replace(points[i], scale=1.0)
        n = draw(st.sampled_from([arms, arms, arms, arms + 1, arms - 1]))
        pulls = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        successes = [draw(st.integers(0, k)) for k in pulls]
        return model, tuple(points), _bernoulli_history(pulls, successes)

    @settings(max_examples=300, deadline=None)
    @given(_point_beliefs())
    def test_check_points_raises_what_the_full_paths_raise_first(self, case):
        """A fixed-point hit's ``check_points`` raises what restricting every
        nonzero-scale point in order raises first, given an event, and what
        ``lower_expectations`` raises without one."""
        model, points, h = case

        def first_error(*calls):
            try:
                for fn, *args in calls:
                    fn(*args)
            except (DegenerateUpdateError, RepresentationError) as exc:
                return type(exc), str(exc)
            return None

        f = model.policy_return(np.full(model.arm_count, 1.0 / model.arm_count), np.ones((model.arm_count, 2)))
        live = [a.measure for a in points if a.scale != 0.0]
        for arm, outcome in itertools.product(range(model.arm_count), (0, 1)):
            event = model.observation(arm, outcome, f)
            assert first_error((model.check_points, points, h, event)) == first_error(
                *((model.restrict, m, h, event) for m in live)
            )
        probs = deterministic_grid(model.arm_count).probs
        assert first_error((model.check_points, points, h)) == first_error(
            (lower_expectations, Infradistribution(points, h), f, probs)
        )

    def test_grid_probabilities_are_read_only(self):
        probs = deterministic_grid(2).probs
        with pytest.raises(ValueError):
            probs[0, 0] = 0.5
        assert not policy_grid(2, 0.1).probs.flags.writeable


class TestReturnFunctionOwnsItsTables:
    def test_a_callers_later_writes_do_not_reach_the_return_function(self):
        """A return function used to alias its caller's table: a write after
        construction moved its values past the declared ``f_max``."""
        model = BernoulliArmsModel(2)
        v, probs = np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0.5, 0.5])
        f = model.policy_return(probs, v)
        v[0, 1], probs[0] = 5.0, 1.0
        assert f.values.tolist() == [[0.0, 1.0], [0.0, 1.0]] and f.f_max == 1.0
        assert f.action_probs.tolist() == [0.5, 0.5]
        for a in (f.values, f.action_probs):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5


class TestNaNIsRejected:
    """Every comparison with NaN is false, so each range check must be
    written to fail on NaN."""

    NAN = float("nan")

    def test_bernoulli_probability(self):
        with pytest.raises(RepresentationError, match="success probabilities"):
            BernoulliArmMeasure((((1.0, self.NAN),),))

    def test_bernoulli_weight(self):
        with pytest.raises(RepresentationError):
            BernoulliArmMeasure((((self.NAN, 0.5),),))
        with pytest.raises(RepresentationError):
            BernoulliArmMeasure((((0.5, 0.2), (self.NAN, 0.5)),))

    def test_joint_weight(self):
        with pytest.raises(RepresentationError, match="hypothesis weights"):
            JointHypothesisMeasure((self.NAN,), (((0.5, 0.5),),))
        with pytest.raises(RepresentationError, match="hypothesis weights"):
            JointHypothesisMeasure((1.0, self.NAN), (((0.5, 0.5),), ((0.5, 0.5),)))

    def test_joint_probability(self):
        with pytest.raises(RepresentationError, match="outcome probabilities"):
            JointHypothesisMeasure((1.0,), (((self.NAN, 0.5),),))

    def test_mixture_and_action_weights(self):
        model = BernoulliArmsModel(2)
        with pytest.raises(RepresentationError):
            model.policy_return([self.NAN, 1.0], np.ones((2, 2)))
        with pytest.raises(RepresentationError):
            model.mix([model.point_measure([0.3, 0.4])] * 2, [self.NAN, 1.0])


class TestMalformedCountTables:
    MODEL = JointHypothesisBanditModel(2, 3)
    TABLES = (((0.2, 0.3, 0.5), (0.6, 0.4, 0.0)), ((0.5, 0.5, 0.0), (0.1, 0.1, 0.8)))

    @pytest.mark.parametrize(
        "counts", [((0, 0, 1),), ((0, 0, 1), (0, 0, 0), (0, 0, 0)), ((0, 0, 1), (0, 0))]
    )
    def test_mis_shaped_count_tables_are_rejected(self, counts):
        """A one-row table must not be broadcast over both arms."""
        m = self.MODEL.measure((0.8, 0.2), self.TABLES)
        for _ in range(2):  # cold table, then warm
            with pytest.raises(RepresentationError, match=r"\(arms, outcomes\)"):
                self.MODEL._posterior(m, OutcomeCountHistory(counts))
            self.MODEL._posterior(m, self.MODEL.initial_history())

    def test_histories_derived_from_a_mis_shaped_table_are_rejected(self):
        """A successor of a mis-shaped table is checked like the table."""
        m = self.MODEL.measure((0.8, 0.2), self.TABLES)
        h = OutcomeCountHistory(((0, 0, 1),))
        for _ in range(3):
            h = self.MODEL.next_history(h, (0, 1))
            with pytest.raises(RepresentationError, match=r"\(arms, outcomes\)"):
                self.MODEL._posterior(m, h)


class TestDerivedHistories:
    """``next_history`` builds its successors without the
    history constructor's checks. Nothing else may take that shortcut, and a
    derived history must be indistinguishable from a constructed one."""

    MODEL = JointHypothesisBanditModel(2, 3)

    def test_derived_histories_compare_hash_and_print_as_constructed_ones(self):
        h = self.MODEL.next_history(self.MODEL.initial_history(), (1, 2))
        twin = OutcomeCountHistory(((0, 0, 0), (0, 0, 1)))
        assert vars(h) == vars(twin)
        assert h == twin and hash(h) == hash(twin)
        assert repr(h) == repr(twin) == "OutcomeCountHistory(counts=((0, 0, 0), (0, 0, 1)))"
        bernoulli = BernoulliArmsModel(2)
        b = bernoulli.next_history(bernoulli.initial_history(), (1, 1))
        assert vars(b) == vars(OutcomeCountHistory(((0, 0), (0, 1))))
        assert b == OutcomeCountHistory(((0, 0), (0, 1)))
        assert hash(b) == hash(OutcomeCountHistory(((0, 0), (0, 1))))
        assert repr(b) == repr(OutcomeCountHistory(((0, 0), (0, 1))))

    def test_a_constructed_twin_reads_the_chained_history_entry(self):
        """A chained history and its constructed twin are one table key: the
        twin reads the very array the chained history warmed, with the bits
        of a cold measure and of the reference posterior."""
        chained = self.MODEL.measure(TestPosteriorMemo.JOINT_WEIGHTS, TestPosteriorMemo.JOINT_TABLES)
        h = self.MODEL.initial_history()
        for indicator in [(0, 2), (1, 0), (1, 0), (0, 1), (1, 2)]:
            h = self.MODEL.next_history(h, indicator)
            twin = OutcomeCountHistory(tuple(tuple(row) for row in h.counts))
            assert twin == h
            got = self.MODEL._posterior(chained, h)
            assert self.MODEL._posterior(chained, twin) is got
            cold = self.MODEL.measure(TestPosteriorMemo.JOINT_WEIGHTS, TestPosteriorMemo.JOINT_TABLES)
            assert self.MODEL._posterior(cold, twin).tolist() == got.tolist()
            reference = _reference_joint_posterior(chained.weights, chained.outcome_probs, h.counts)
            assert got.tolist() == reference.tolist()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: OutcomeCountHistory(((0, -1, 0), (0, 0, 0))),
            lambda: OutcomeCountHistory(((1, 0), (1,))),
            lambda: OutcomeCountHistory(((-1, 2), (0, 1))),
            lambda: OutcomeCountHistory(((1, 0), (1, -1))),
            lambda: BernoulliArmsModel(2).validate_indicator((0, 2)),
            lambda: BernoulliArmsModel(2).validate_indicator((2, 1)),
            lambda: BernoulliArmsModel(2).validate_indicator((-1, 0)),
        ],
    )
    def test_constructor_and_observe_errors_still_raise(self, build):
        with pytest.raises(RepresentationError):
            build()

    def test_a_long_chain_equals_the_constructed_history(self):
        draws = np.random.default_rng(11).integers(0, [2, 3], (1000, 2)).tolist()
        bernoulli = BernoulliArmsModel(2)
        two_outcomes = JointHypothesisBanditModel(2, 2)
        h, b = self.MODEL.initial_history(), bernoulli.initial_history()
        j = two_outcomes.initial_history()
        counts = np.zeros((2, 3), dtype=int)
        pulls, successes = [0, 0], [0, 0]
        for arm, outcome in draws:
            h = self.MODEL.next_history(h, (arm, outcome))
            counts[arm, outcome] += 1
            b = bernoulli.next_history(b, (arm, outcome % 2))
            j = two_outcomes.next_history(j, (arm, outcome % 2))
            pulls[arm] += 1
            successes[arm] += outcome % 2
        assert h == OutcomeCountHistory(tuple(tuple(row) for row in counts.tolist()))
        assert b == _bernoulli_history(pulls, successes)
        assert b == j and hash(b) == hash(j)
        assert all(type(n) is int for row in h.counts for n in row)
        assert all(type(n) is int for row in b.counts for n in row)


class TestBanditHistoryArmCount:
    MODEL = BernoulliArmsModel(2)
    VALUES = np.array([[0.0, 1.0], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "history",
        [
            ((0, 0), (0, 0), (0, 5)),
            ((0, 1),),
            ((0, 0, 1), (0, 0, 0)),  # a 2x3 joint history
            ((0, 0), (0, 0, 1)),  # ragged
        ],
    )
    def test_wrong_arm_count_is_rejected_on_every_path(self, history):
        """A three-arm history must not be truncated, a one-arm history
        indexed past its end, nor a three-outcome row read as ``(failures,
        successes)``. A ragged table is refused where it is built, so no
        path receives one."""
        m = self.MODEL.grid_measure([0.25, 0.75])
        event = self.MODEL.observation(0, 1, self.MODEL.arm_return(0, self.VALUES))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for call in (
            lambda h: self.MODEL.expected_action_values(m, h, self.VALUES),
            lambda h: self.MODEL.sampled_action_values(m, h, self.VALUES, rng),
            lambda h: self.MODEL.restrict(m, h, event),
            lambda h: self.MODEL.check_points((AMeasure(1.0, m, 0.0, self.MODEL),), h, event),
        ):
            with pytest.raises(RepresentationError, match=r"^count table must be \(arms, outcomes\)"):
                call(OutcomeCountHistory(history))
        assert rng.bit_generator.state == before


class TestThompsonDraw:
    """The Bernoulli ``sampled_action_values`` draws through ``_draw_index``,
    and the joint one searches the running sum ``_draw_index`` builds
    (``TestJointWarm``); it must pick the index ``rng.choice(w.size, p=w)``
    picks and leave the generator in the same state."""

    @staticmethod
    def assert_like_choice(w, seed):
        ours, theirs, one = (np.random.default_rng(seed) for _ in range(3))
        assert _draw_index(w, ours) == theirs.choice(w.size, p=w)
        one.random()
        assert ours.bit_generator.state == theirs.bit_generator.state == one.bit_generator.state

    def test_random_posteriors_with_zero_entries(self):
        source = np.random.default_rng(2024)
        for _ in range(3000):
            size = int(source.integers(1, 12))
            w = source.random(size)
            w[source.random(size) < 0.3] = 0.0
            if w.sum() == 0.0:
                w[int(source.integers(size))] = 1.0
            self.assert_like_choice(_read_only(w / w.sum()), int(source.integers(2**32)))

    def test_one_component_posteriors_draw_one_uniform(self):
        for seed in range(50):
            self.assert_like_choice(_POINT_WEIGHT, seed)
            self.assert_like_choice(np.array([1.0]), seed)

"""Tests for the three world-model families and their measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibrl import (
    BanditHistory,
    BernoulliArmsModel,
    ConfigError,
    DegenerateUpdateError,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    JointHypothesisBanditModel,
    NewcombModel,
    RepresentationError,
    branch_probability,
    newcomb_expected_reward,
    newcomb_prediction_prob,
    observe,
    predictive,
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
        h = observe(model.initial_history(), 0, 1)
        np.testing.assert_allclose(predictive(m, h, 0), 0.58)

    def test_branch_probability_of_an_ordered_history(self):
        model = BernoulliArmsModel(1)
        m = model.point_measure([0.5])
        h = BanditHistory((2,), (1,))
        np.testing.assert_allclose(branch_probability(m, h), 0.25)

    def test_impossible_history_raises(self):
        model = BernoulliArmsModel(1)
        m = model.point_measure([1.0])
        h = BanditHistory((1,), (0,))
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
            h1 = observe(h1, arm, r)
        h2 = model.initial_history()
        for arm, r in [(0, 1), (0, 1), (0, 0), (1, 0)]:
            h2 = observe(h2, arm, r)
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
        h = BanditHistory((pulls,), (successes,))
        if grid.min() == grid.max() == 0.0 and successes > 0:
            return
        try:
            p = predictive(m, h, 0)
        except DegenerateUpdateError:
            return
        assert grid.min() - 1e-12 <= p <= grid.max() + 1e-12


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

    def test_observation_is_an_identity_update(self):
        """The predictor experiment has no informative feedback between
        episodes, so its observation event keeps the whole measure."""
        from ibrl import STATELESS

        model = NewcombModel(accuracy=0.9)
        restriction = model.restrict(STATELESS, None, model.observation())
        assert restriction.scale_factor == 1.0
        assert restriction.offbranch_value == 0.0


class TestJointHypothesisModel:
    def setup_method(self):
        self.model = JointHypothesisBanditModel(2, (0.0, 0.5, 1.0))
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
        _, h2 = self.model.advance(m, h, event)
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
        _, h2 = self.model.advance(m, h, event)
        with pytest.raises(DegenerateUpdateError):
            self.model.predictive_outcome_probs(m, h2, 0)

    def test_mix_merges_identical_hypotheses(self):
        m1 = self.model.measure([1.0], self.tables[:1])
        m2 = self.model.measure([1.0], self.tables[:1])
        mixed = self.model.mix([m1, m2], [0.5, 0.5])
        assert len(mixed.weights) == 1
        np.testing.assert_allclose(mixed.weights[0], 1.0)

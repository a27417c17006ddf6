"""Tests for policy selection, acting, and belief maintenance."""

import gc
import weakref

import numpy as np
import pytest

import ibrl.agents
from ibrl import (
    STATELESS,
    AMeasure,
    BernoulliArmsModel,
    ConfigError,
    ContractViolationError,
    DegenerateUpdateError,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    Infradistribution,
    NewcombModel,
    Policy,
    RepresentationError,
    TrapWorldConfig,
    act,
    bayes_select,
    deterministic_grid,
    ib_observe,
    lower_expectation,
    lower_expectations,
    make_agent,
    mix_knightian,
    policy_grid,
    policy_value,
    select_policy,
    trap_sample_world,
    trap_step,
)
from ibrl.harness import ExperimentConfig, derive_stream, run_newcomb_sweep
from ibrl.harness.runner import trap_bayes_belief, trap_ib_belief, trap_model
from ibrl.harness.serialize import _flatten

VALUES = np.array([[0.0, 1.0], [0.0, 1.0]])


def singleton_belief(model, measure):
    return Infradistribution.singleton(AMeasure(1.0, measure, 0.0, model), model.initial_history())


def corner_belief(model, corners):
    return mix_knightian(
        [singleton_belief(model, model.point_measure(c)) for c in corners]
    )


class TestPolicy:
    def test_rejects_non_simplex_vectors(self):
        with pytest.raises(ConfigError):
            Policy((0.5, 0.2))
        with pytest.raises(ConfigError):
            Policy((-0.1, 1.1))

    def test_deterministic_action_detection(self):
        assert Policy((1.0, 0.0)).deterministic_action == 0
        assert Policy((0.0, 1.0)).deterministic_action == 1
        assert Policy((0.5, 0.5)).deterministic_action is None

    def test_two_action_grid_contains_both_extremes(self):
        grid = policy_grid(2, 0.25)
        probs = [p.action_probs[0] for p in grid.policies]
        assert 0.0 in probs and 1.0 in probs
        assert len(probs) == 5

    def test_many_action_grid_falls_back_to_deterministic_policies(self):
        grid = policy_grid(3, 0.1)
        assert len(grid.policies) == 3
        assert all(p.deterministic_action is not None for p in grid.policies)

    def test_deterministic_grid_orders_by_action(self):
        grid = deterministic_grid(4)
        assert [p.deterministic_action for p in grid.policies] == [0, 1, 2, 3]


class TestActing:
    def test_deterministic_policy_consumes_no_randomness(self):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        assert act(Policy((0.0, 1.0)), rng) == 1
        assert rng.bit_generator.state == before

    def test_mixed_policy_follows_its_probabilities(self):
        rng = np.random.default_rng(42)
        draws = [act(Policy((0.25, 0.75)), rng) for _ in range(4000)]
        np.testing.assert_allclose(np.mean(draws), 0.75, atol=0.03)

    def test_three_action_mixed_policy(self):
        rng = np.random.default_rng(3)
        draws = [act(Policy((0.2, 0.3, 0.5)), rng) for _ in range(3000)]
        counts = np.bincount(draws, minlength=3) / len(draws)
        np.testing.assert_allclose(counts, [0.2, 0.3, 0.5], atol=0.04)


class TestSelection:
    def test_unique_best_policy_needs_no_randomness(self):
        model = BernoulliArmsModel(2)
        state = make_agent(
            singleton_belief(model, model.point_measure([0.2, 0.9])),
            np.random.default_rng(0),
            "ib_maximin",
            VALUES,
        )
        before = state.rng.bit_generator.state
        chosen = select_policy(state, deterministic_grid(2))
        assert chosen.deterministic_action == 1
        assert state.rng.bit_generator.state == before

    def test_ties_are_broken_by_the_agent_stream(self):
        model = BernoulliArmsModel(2)
        picks = set()
        for seed in range(8):
            state = make_agent(
                singleton_belief(model, model.point_measure([0.5, 0.5])),
                np.random.default_rng(seed),
                "ib_maximin",
                VALUES,
            )
            picks.add(select_policy(state, deterministic_grid(2)).deterministic_action)
        assert picks == {0, 1}

    def test_maximin_prefers_the_arm_with_the_better_floor(self):
        """Corners {0.3, 0.7} x {0.4, 0.8}: arm 1 has the higher worst-case
        success rate, so the robust choice is arm 1 regardless of ties in
        the optimistic direction."""
        model = BernoulliArmsModel(2)
        belief = corner_belief(
            model, [(a, b) for a in (0.3, 0.7) for b in (0.4, 0.8)]
        )
        state = make_agent(belief, np.random.default_rng(1), "ib_maximin", VALUES)
        assert select_policy(state, deterministic_grid(2)).deterministic_action == 1

    def test_policy_value_is_the_worst_case_after_mixing(self):
        model = BernoulliArmsModel(2)
        belief = corner_belief(model, [(0.3, 0.8), (0.7, 0.4)])
        state = make_agent(belief, np.random.default_rng(0), "ib_maximin", VALUES)
        value = policy_value(state, Policy((1.0, 0.0)))
        np.testing.assert_allclose(value, 0.3)

    def test_newcomb_mixed_policy_beats_both_deterministic_ones(self):
        """With matrix ((0, 2), (2, 0)) and a perfect predictor the value is
        4 p (1 - p), not affine in p: p = 0.5 is worth 1, both deterministic
        policies 0."""
        model = NewcombModel(reward_matrix=((0.0, 2.0), (2.0, 0.0)), accuracy=1.0)
        state = make_agent(singleton_belief(model, STATELESS), np.random.default_rng(0))
        before = state.rng.bit_generator.state
        chosen = select_policy(state, policy_grid(2, 0.1))
        assert chosen.action_probs[0] == 0.5
        assert state.rng.bit_generator.state == before


class TestValuePass:
    """Every entry of the array pass must equal, bit for bit, the scalar
    lower expectation of the same policy's return function."""

    @staticmethod
    def assert_matches_scalar(belief, probs, policy_f):
        f = policy_f(probs[0])
        got = lower_expectations(belief, f, probs)
        want = [lower_expectation(belief, policy_f(row)) for row in probs]
        assert got.tolist() == want

    def test_bernoulli_corners_with_a_refuted_and_an_overflowed_point(self):
        """Four conditioned corners, built directly: ``condition`` would drop
        the last three, whose offsets exceed max(1, f_max) = 1."""
        model = BernoulliArmsModel(2)
        history = model.initial_history()
        for arm, outcome in [(0, 1), (1, 0), (1, 1), (0, 0), (1, 1)]:
            event = model.observation(arm, outcome, model.arm_return(arm, VALUES))
            history = model.next_history(history, event)
        refuted = AMeasure(0.0, model.point_measure((0.3, 0.4)), 0.75, model)
        overflowed = AMeasure(4 / 3, model.point_measure((0.3, 0.8)), np.inf, model)
        live = (
            AMeasure(1.0, model.point_measure((0.7, 0.4)), 12.7, model),
            AMeasure(4 / 3, model.point_measure((0.7, 0.8)), 24.6, model),
        )
        belief = Infradistribution((refuted, overflowed, *live), history)
        probs = deterministic_grid(2).probs
        self.assert_matches_scalar(belief, probs, lambda row: model.policy_return(row, VALUES))
        # The live points are worth more than 5 on either arm, so the refuted
        # point's offset is the floor of both.
        f = model.policy_return(probs[0], VALUES)
        assert lower_expectations(belief, f, probs).tolist() == [0.75, 0.75]

    def test_trap_two_point_belief_after_conditioning(self):
        env = TrapWorldConfig()
        model, raw_support, values = trap_model(env)
        state = make_agent(
            trap_ib_belief(model, env), np.random.default_rng(0), "ib_maximin", values, raw_support
        )
        for action, reward in [(1, 1.0), (1, 0.0), (0, 1.0), (1, 1.0)]:
            state = ib_observe(state, action, reward)
        assert len(state.belief.points) == 2
        self.assert_matches_scalar(
            state.belief,
            deterministic_grid(model.arm_count).probs,
            lambda row: model.policy_return(row, values),
        )

    @pytest.mark.parametrize("matrix", [((10.0, 0.0), (11.0, 1.0)), ((0.0, 2.0), (2.0, 0.0))])
    @pytest.mark.parametrize("accuracy", [0.5, 0.55, 0.63, 0.9, 1.0])
    def test_newcomb_grids(self, matrix, accuracy):
        model = NewcombModel(reward_matrix=matrix, accuracy=accuracy)
        belief = singleton_belief(model, STATELESS)
        for step in (0.1, 0.05, 0.3):
            self.assert_matches_scalar(
                belief, policy_grid(2, step).probs, lambda row: model.policy_return(row[0])
            )

    def test_explicit_finite_models_have_no_policy_values(self):
        model = ExplicitFiniteModel(2)
        point = AMeasure(1.0, FiniteOutcomeMeasure((0.5, 0.5)), 0.0, model)
        f = model.return_function((0.0, 1.0))
        with pytest.raises(RepresentationError):
            lower_expectations(Infradistribution.singleton(point), f, np.array([[1.0]]))


class TestBayesSelect:
    def test_greedy_picks_the_best_posterior_mean(self):
        model = BernoulliArmsModel(2)
        state = make_agent(
            singleton_belief(model, model.point_measure([0.2, 0.6])),
            np.random.default_rng(0),
            "bayes_greedy",
            VALUES,
        )
        assert bayes_select(state) == 1

    def test_thompson_samples_vary_with_the_stream(self):
        model = BernoulliArmsModel(2)
        measure = model.grid_measure([0.1, 0.9])
        state = make_agent(
            singleton_belief(model, measure),
            np.random.default_rng(42),
            "bayes_thompson",
            VALUES,
        )
        picks = {bayes_select(state) for _ in range(32)}
        assert picks == {0, 1}

    def test_multi_point_belief_is_rejected(self):
        model = BernoulliArmsModel(2)
        belief = corner_belief(model, [(0.3, 0.4), (0.7, 0.8)])
        state = make_agent(belief, np.random.default_rng(0), "bayes_greedy", VALUES)
        with pytest.raises(ContractViolationError):
            bayes_select(state)

    def test_one_point_maximin_agent_recovers_greedy_on_trap_bandits(self):
        """Maximin on a one-point trap belief takes the greedy agent's
        actions when both share the environment and agent streams."""
        env = TrapWorldConfig()
        model, raw_support, values = trap_model(env)
        grid = deterministic_grid(model.arm_count)
        for run in range(3):
            actions = {}
            for flavor in ("ib_maximin", "bayes_greedy"):
                env_rng = derive_stream(42, run, 0)
                world = trap_sample_world(env, env_rng)
                state = make_agent(
                    trap_bayes_belief(model, env, 0.5),
                    derive_stream(42, run, 1),
                    flavor,
                    values,
                    raw_support,
                )
                taken = actions[flavor] = []
                for _ in range(100):
                    if flavor == "ib_maximin":
                        action = act(select_policy(state, grid), state.rng)
                    else:
                        action = bayes_select(state)
                    taken.append(action)
                    state = ib_observe(state, action, trap_step(world, env, action, env_rng))
            assert actions["ib_maximin"] == actions["bayes_greedy"]


class TestObserve:
    def test_ib_observation_conditions_the_belief(self):
        model = BernoulliArmsModel(2)
        state = make_agent(
            singleton_belief(model, model.grid_measure([0.3, 0.7])),
            np.random.default_rng(0),
            "ib_maximin",
            VALUES,
        )
        state = ib_observe(state, 0, 1.0)
        f = model.arm_return(0, VALUES)
        np.testing.assert_allclose(lower_expectation(state.belief, f), 0.58)
        assert state.belief.points[0].scale == 1.0

    def test_bayes_observation_only_advances_counts(self):
        model = BernoulliArmsModel(2)
        state = make_agent(
            singleton_belief(model, model.grid_measure([0.3, 0.7])),
            np.random.default_rng(0),
            "bayes_greedy",
            VALUES,
        )
        state = ib_observe(state, 1, 0.0)
        point = state.belief.points[0]
        assert point.scale == 1.0 and point.offset == 0.0
        assert state.belief.history.pulls == (0, 1)
        assert state.belief.history.successes == (0, 0)

    def test_bayes_observation_keeps_the_points_and_advances_one_history(self):
        model = BernoulliArmsModel(2)
        state = make_agent(
            singleton_belief(model, model.grid_measure([0.3, 0.7])),
            np.random.default_rng(0),
            "bayes_greedy",
            VALUES,
        )
        after = ib_observe(state, 0, 1.0)
        assert after.belief.points is state.belief.points
        assert state.belief.history.pulls == (0, 0)
        assert after.belief.history.pulls == (1, 0)
        assert after.belief.history.successes == (1, 0)

    def test_contradicted_corner_becomes_inert(self):
        """One corner says arm 0 always succeeds; a failure refutes it. The
        refuted hypothesis survives as a zero-scale point whose offset is too
        large to ever attain the minimum, so the surviving corner decides."""
        model = BernoulliArmsModel(1)
        belief = corner_belief(model, [(1.0,), (0.4,)])
        state = make_agent(
            belief, np.random.default_rng(0), "ib_maximin", np.array([[0.0, 1.0]])
        )
        state = ib_observe(state, 0, 0.0)
        scales = sorted(p.scale for p in state.belief.points)
        assert scales[0] == 0.0
        f = model.arm_return(0, [[0.0, 1.0]])
        np.testing.assert_allclose(lower_expectation(state.belief, f), 0.4)

    def test_worthless_refuted_corner_is_dropped(self):
        """A refuted hypothesis whose off-branch return is zero collapses to
        the useless point (scale 0, offset 0), which would make the affine
        renormalization degenerate. The robust update drops it and rescales
        the survivors instead."""
        model = BernoulliArmsModel(1)
        belief = corner_belief(model, [(0.0,), (0.4,)])
        state = make_agent(
            belief, np.random.default_rng(0), "ib_maximin", np.array([[0.0, 1.0]])
        )
        state = ib_observe(state, 0, 1.0)
        assert len(state.belief.points) == 1
        point = state.belief.points[0]
        assert point.scale == 1.0 and point.offset == 0.0
        f = model.arm_return(0, [[0.0, 1.0]])
        np.testing.assert_allclose(lower_expectation(state.belief, f), 0.4)

    def test_totally_impossible_observation_still_raises(self):
        model = BernoulliArmsModel(1)
        belief = corner_belief(model, [(1.0,), (1.0,)])
        state = make_agent(
            belief, np.random.default_rng(0), "ib_maximin", np.array([[0.0, 1.0]])
        )
        with pytest.raises(DegenerateUpdateError):
            ib_observe(state, 0, 0.0)

    def test_rewards_off_the_support_are_rejected(self):
        """A reward that matches no support point means the agent was wired
        to the wrong environment."""
        model = BernoulliArmsModel(1)
        state = make_agent(
            singleton_belief(model, model.point_measure([0.5])),
            np.random.default_rng(0),
            "ib_maximin",
            np.array([[0.0, 1.0]]),
        )
        with pytest.raises(ConfigError):
            ib_observe(state, 0, 0.25)


KU_CORNERS = [(a, b) for a in (0.3, 0.7) for b in (0.4, 0.8)]


def point_fields(belief):
    return [(a.scale, a.offset, belief.history, a.measure, a.model) for a in belief.points]


def newcomb_state(seed, accuracy=0.55, matrix=((10.0, 0.0), (11.0, 1.0))):
    model = NewcombModel(reward_matrix=matrix, accuracy=accuracy)
    return make_agent(singleton_belief(model, STATELESS), np.random.default_rng(seed))


def count_calls(monkeypatch, name):
    """Count the calls ``ibrl.agents`` makes to its binding ``name``."""
    calls = []
    original = getattr(ibrl.agents, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(ibrl.agents, name, counting)
    return calls


@pytest.fixture
def value_passes(monkeypatch):
    return count_calls(monkeypatch, "lower_expectations")


@pytest.fixture
def conditionings(monkeypatch):
    return count_calls(monkeypatch, "condition")


class TestMemo:
    """``select_policy`` and ``ib_observe`` memoize their work on the state
    they are given; a reused state must behave exactly like fresh equal
    states, draw for draw."""

    def test_reused_state_draws_like_fresh_states(self, value_passes):
        """Accuracy 0.55 with the default matrix ties all 11 policies, so
        every selection draws from the stream."""
        grid = policy_grid(2, 0.1)
        reused = newcomb_state(5)
        got = [select_policy(reused, grid) for _ in range(60)]
        assert len(value_passes) == 1
        assert len(set(got)) > 1

        rng = np.random.default_rng(5)
        want = []
        for _ in range(60):
            fresh = make_agent(reused.belief, rng)
            want.append(select_policy(fresh, grid))
        assert len(value_passes) == 61
        assert got == want
        assert reused.rng.bit_generator.state == rng.bit_generator.state

    def test_another_grid_or_return_function_is_scored_again(self, value_passes):
        """Matrix ((0, 2), (2, 0)) at accuracy 1 has the unique best p = 0.5:
        index 5 of the 0.1 grid but index 2 of the 0.25 grid."""
        state = newcomb_state(0, accuracy=1.0, matrix=((0.0, 2.0), (2.0, 0.0)))
        fine, coarse = policy_grid(2, 0.1), policy_grid(2, 0.25)
        assert select_policy(state, fine).action_probs[0] == 0.5
        assert select_policy(state, fine).action_probs[0] == 0.5
        assert len(value_passes) == 1
        assert select_policy(state, coarse) is coarse.policies[2]
        assert len(value_passes) == 2
        assert select_policy(state, policy_grid(2, 0.1)).action_probs[0] == 0.5
        assert len(value_passes) == 3

    def test_off_support_rewards_raise_every_time_and_are_not_stored(self):
        model = BernoulliArmsModel(1)
        state = make_agent(
            singleton_belief(model, model.point_measure([0.5])),
            np.random.default_rng(0),
            "ib_maximin",
            np.array([[0.0, 1.0]]),
        )
        for _ in range(2):
            with pytest.raises(ConfigError):
                ib_observe(state, 0, 0.25)
        assert state.memo == {}

    @pytest.mark.parametrize("flavor", ["ib_maximin", "bayes_greedy"])
    @pytest.mark.parametrize("reward", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rewards_raise_every_time_and_are_not_stored(self, flavor, reward):
        """NaN is at no finite distance from any support point, so it must
        not be read as outcome 0."""
        model = BernoulliArmsModel(1)
        state = make_agent(
            singleton_belief(model, model.point_measure([0.5])),
            np.random.default_rng(0),
            flavor,
            np.array([[0.0, 1.0]]),
        )
        for _ in range(2):
            with pytest.raises(ConfigError, match="finite"):
                ib_observe(state, 0, reward)
        assert state.memo == {}

    def test_refuting_observations_raise_every_time_and_are_not_stored(self, conditionings):
        model = BernoulliArmsModel(1)
        belief = corner_belief(model, [(1.0,), (1.0,)])
        state = make_agent(
            belief, np.random.default_rng(0), "ib_maximin", np.array([[0.0, 1.0]])
        )
        for _ in range(2):
            with pytest.raises(DegenerateUpdateError):
                ib_observe(state, 0, 0.0)
        assert len(conditionings) == 2
        assert state.memo == {}

    @pytest.mark.parametrize("flavor", ["ib_maximin", "bayes_greedy"])
    def test_repeated_observations_reuse_one_conditioning(self, flavor, conditionings):
        model = BernoulliArmsModel(2)
        belief = corner_belief(model, KU_CORNERS[:1] if flavor == "bayes_greedy" else KU_CORNERS)
        state = make_agent(belief, np.random.default_rng(0), flavor, VALUES)
        first = ib_observe(state, 1, 1.0)
        second = ib_observe(state, 1, 1.0)
        assert second.belief is first.belief
        assert first.memo == {} and second.memo == {}
        fresh = ib_observe(make_agent(belief, np.random.default_rng(0), flavor, VALUES), 1, 1.0)
        assert point_fields(second.belief) == point_fields(fresh.belief)
        other = ib_observe(state, 1, 0.0)
        assert point_fields(other.belief) != point_fields(first.belief)
        assert len(conditionings) == (3 if flavor == "ib_maximin" else 0)

    def test_newcomb_sweep_conditions_once_per_cell(self, conditionings):
        """A Newcomb observation ignores the action and the reward, so every
        episode of a cell reuses the cell's one successor belief."""
        _, cells = run_newcomb_sweep(ExperimentConfig("newcomb", seed=7, settings={"episodes": 40}))
        assert len(cells) == 51
        assert len(conditionings) == len(cells)

    def test_memo_is_not_state(self):
        state = newcomb_state(3)
        twin = make_agent(state.belief, state.rng)
        lines_before: list[str] = []
        _flatten("state", state, lines_before)
        select_policy(state, policy_grid(2, 0.1))
        ib_observe(state, 0, 10.0)
        assert len(state.memo) == 2 and twin.memo == {}
        assert state == twin
        assert hash(state) == hash(twin)
        assert repr(state) == repr(twin) and "memo" not in repr(state)
        lines_after: list[str] = []
        _flatten("state", state, lines_after)
        assert lines_after == lines_before
        assert not any("memo" in line for line in lines_after)

    def test_memo_does_not_keep_a_rollout_alive(self):
        """``state0`` stays alive through the whole rollout; the memo must
        not chain it to the later states or beliefs."""
        model = BernoulliArmsModel(2)
        state0 = make_agent(
            corner_belief(model, KU_CORNERS), np.random.default_rng(0), "ib_maximin", VALUES
        )
        draws = np.random.default_rng(1)
        state = state0
        for t in range(200):
            action = int(draws.integers(2))
            state = ib_observe(state, action, float(draws.integers(2)))
            if t == 10:
                state_ref, belief_ref = weakref.ref(state), weakref.ref(state.belief)
        del state
        gc.collect()
        assert state_ref() is None
        assert belief_ref() is None
        assert len(state0.memo) == 1


class TestMakeAgent:
    def test_unknown_flavor_rejected(self):
        model = BernoulliArmsModel(1)
        belief = singleton_belief(model, model.point_measure([0.5]))
        with pytest.raises(ConfigError):
            make_agent(belief, np.random.default_rng(0), "ucb")

    def test_negative_reward_convention_rejected(self):
        model = BernoulliArmsModel(1)
        belief = singleton_belief(model, model.point_measure([0.5]))
        with pytest.raises(ConfigError):
            make_agent(
                belief, np.random.default_rng(0), "ib_maximin", np.array([[-1.0, 1.0]])
            )

    def test_bandit_belief_without_a_reward_table_rejected(self):
        model = BernoulliArmsModel(1)
        belief = singleton_belief(model, model.point_measure([0.5]))
        with pytest.raises(ConfigError, match="reward table"):
            make_agent(belief, np.random.default_rng(0), "ib_maximin")

    @pytest.mark.parametrize("flavor", ["bayes_greedy", "bayes_thompson"])
    def test_classical_flavor_on_newcomb_rejected(self, flavor):
        belief = singleton_belief(NewcombModel(), STATELESS)
        with pytest.raises(ConfigError, match="ib_maximin"):
            make_agent(belief, np.random.default_rng(0), flavor)

    def test_reward_table_on_newcomb_rejected(self):
        belief = singleton_belief(NewcombModel(), STATELESS)
        for table in (np.array([[-1.0]]), np.array([[0.0, 1.0], [0.0, 1.0]])):
            with pytest.raises(ConfigError, match="reward matrix"):
                make_agent(belief, np.random.default_rng(0), "ib_maximin", table)

    def test_explicit_finite_belief_rejected(self):
        model = ExplicitFiniteModel(2)
        belief = singleton_belief(model, FiniteOutcomeMeasure((0.5, 0.5)))
        with pytest.raises(RepresentationError):
            make_agent(belief, np.random.default_rng(0), "ib_maximin", np.array([0.0, 1.0]))

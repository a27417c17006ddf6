"""Tests for policy selection, acting, and belief maintenance."""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import ibrl.agents
import ibrl.harness.runner
import ibrl.worldmodels
from ibrl import (
    STATELESS,
    AMeasure,
    BernoulliArmMeasure,
    BernoulliArmsModel,
    ConfigError,
    ContractViolationError,
    DegenerateUpdateError,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    Infradistribution,
    JointHypothesisBanditModel,
    NewcombModel,
    ObservationEvent,
    Policy,
    PolicyGrid,
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
    select_policy,
    trap_sample_world,
    trap_step,
)
from ibrl.harness import (
    ExperimentConfig,
    config_from_mapping,
    derive_stream,
    parse_config_text,
    run_experiment,
    run_newcomb_sweep,
)
from ibrl.harness.runner import trap_bayes_belief, trap_ib_belief, trap_model

VALUES = np.array([[0.0, 1.0], [0.0, 1.0]])
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


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
        with pytest.raises(ConfigError):
            Policy((float("nan"), 1.0))

    def test_deterministic_action_detection(self):
        assert Policy((1.0, 0.0)).deterministic_action == 0
        assert Policy((0.0, 1.0)).deterministic_action == 1
        assert Policy((0.5, 0.5)).deterministic_action is None

    def test_deterministic_action_is_computed_once_and_stays_out_of_comparisons(self):
        """Newcomb keys its reward moments by ``Policy``, so equality, hash
        and ``repr`` must be those of ``action_probs`` alone."""
        for probs, det in [((1.0, 0.0), 0), ((0.3, 0.7), None), ((0.0, 0.0, 1.0), 2)]:
            policy = Policy(probs)
            assert policy.deterministic_action == det
            assert policy == Policy(probs) and policy != Policy((0.5,) * 2)
            assert hash(policy) == hash((probs,))
            assert repr(policy) == f"Policy(action_probs={probs!r})"
            assert {Policy(probs): 1}[policy] == 1
        with pytest.raises(TypeError):
            Policy((1.0, 0.0), deterministic_action=1)

    def test_two_action_grid_contains_both_extremes(self):
        grid = policy_grid(2, 0.25)
        probs = [p.action_probs[0] for p in grid.policies]
        assert 0.0 in probs and 1.0 in probs
        assert len(probs) == 5

    def test_many_action_grid_falls_back_to_deterministic_policies(self):
        grid = policy_grid(3, 0.1)
        assert len(grid.policies) == 3
        assert all(p.deterministic_action is not None for p in grid.policies)
        with pytest.raises(ConfigError, match="at least two actions"):
            policy_grid(1, 0.1)
        with pytest.raises(ConfigError, match="empty"):
            PolicyGrid(())

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
        value = lower_expectations(state.belief, state.returns, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(value, [0.3])

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
            history = model.next_history(history, (arm, outcome))
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

    def test_mixed_grid_on_multi_point_bernoulli_grid_beliefs(self):
        """``policy_grid(2, 0.1)`` on beliefs of one to three grid measures
        with random weights, scales and offsets, after a short history."""
        rng = np.random.default_rng(2801)
        model = BernoulliArmsModel(2)
        probs = policy_grid(2, 0.1).probs
        for _ in range(100):
            history = model.initial_history()
            for arm, outcome in rng.integers(0, 2, (rng.integers(0, 7), 2)).tolist():
                history = model.next_history(history, (arm, outcome))
            points = tuple(
                AMeasure(
                    float(rng.uniform(0.5, 2.0)),
                    model.grid_measure(rng.uniform(0.05, 0.95, 4), rng.dirichlet(np.ones(4))),
                    float(rng.uniform(0.0, 0.5)),
                    model,
                )
                for _ in range(rng.integers(1, 4))
            )
            belief = Infradistribution(points, history)
            self.assert_matches_scalar(belief, probs, lambda row: model.policy_return(row, VALUES))

    def test_random_mixed_rows_on_three_arm_joint_beliefs(self):
        """Random action distributions on random one- or two-point beliefs
        over three arms with two or three outcomes, after a short history."""
        rng = np.random.default_rng(2802)
        for _ in range(100):
            model = JointHypothesisBanditModel(3, int(rng.integers(2, 4)))
            shape = (model.arm_count, model.outcome_count)
            values = rng.random(shape)
            history = model.initial_history()
            for arm in rng.integers(0, 3, rng.integers(0, 7)).tolist():
                history = model.next_history(history, (arm, int(rng.integers(model.outcome_count))))
            points = []
            for _ in range(rng.integers(1, 3)):
                n = int(rng.integers(1, 5))
                measure = model.measure(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(shape[1]), (n, shape[0])))
                points.append(AMeasure(float(rng.uniform(0.5, 2.0)), measure, float(rng.random()), model))
            belief = Infradistribution(tuple(points), history)
            probs = rng.dirichlet(np.ones(3), 6)
            self.assert_matches_scalar(belief, probs, lambda row: model.policy_return(row, values))

    def test_explicit_finite_models_have_no_policy_values(self):
        model = ExplicitFiniteModel(2)
        point = AMeasure(1.0, FiniteOutcomeMeasure((0.5, 0.5)), 0.0, model)
        f = model.return_function((0.0, 1.0))
        with pytest.raises(RepresentationError):
            lower_expectations(Infradistribution.singleton(point), f, np.array([[1.0]]))


class TestBayesSelect:
    def test_greedy_picks_the_best_posterior_mean(self):
        """Greedy selects through ``select_policy``: on a point measure and
        on a grid prior after two successes on arm 0, the arm of best
        posterior mean."""
        model = BernoulliArmsModel(2)
        grid = deterministic_grid(2)
        for measure, observed, best in [
            (model.point_measure([0.2, 0.6]), [], 1),
            (model.grid_measure([0.1, 0.5, 0.9]), [(0, 1.0), (0, 1.0)], 0),
        ]:
            state = make_agent(
                singleton_belief(model, measure), np.random.default_rng(0), "bayes_greedy", VALUES
            )
            for arm, reward in observed:
                state = ib_observe(state, arm, reward)
            assert select_policy(state, grid) is grid.policies[best]

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

    def test_thompson_on_point_arms_draws_like_the_general_path(self):
        """Point arms skip the posterior arithmetic but still draw their one
        component from the stream, as a twin whose extra zero-weight
        component keeps it on the general path does."""
        model = BernoulliArmsModel(2)
        point = model.point_measure([0.4, 0.4])
        twin = BernoulliArmMeasure((((1.0, 0.4), (0.0, 0.9)),) * 2)
        states = [
            make_agent(singleton_belief(model, m), np.random.default_rng(3), "bayes_thompson", VALUES)
            for m in (point, twin)
        ]
        actions = [[], []]
        for t in range(40):
            for i, state in enumerate(states):
                actions[i].append(bayes_select(state))
                states[i] = ib_observe(state, actions[i][-1], float(t % 3 == 0))
        assert actions[0] == actions[1] and set(actions[0]) == {0, 1}
        assert states[0].rng.bit_generator.state == states[1].rng.bit_generator.state

    def test_multi_point_belief_is_rejected(self):
        """Both classical flavors need one point at scale 1 and offset 0,
        checked by ``make_agent``; ``bayes_select`` is Thompson's alone."""
        model = BernoulliArmsModel(2)
        measure = model.point_measure([0.3, 0.4])
        rejected = [
            corner_belief(model, [(0.3, 0.4), (0.7, 0.8)]),
            Infradistribution.singleton(AMeasure(0.5, measure, 0.0, model), model.initial_history()),
            Infradistribution.singleton(AMeasure(1.0, measure, 0.25, model), model.initial_history()),
        ]
        for flavor in ("bayes_greedy", "bayes_thompson"):
            for belief in rejected:
                with pytest.raises(ContractViolationError, match="one point"):
                    make_agent(belief, np.random.default_rng(0), flavor, VALUES)
        for flavor in ("bayes_greedy", "ib_maximin"):
            state = make_agent(singleton_belief(model, measure), np.random.default_rng(0), flavor, VALUES)
            with pytest.raises(ContractViolationError, match="Thompson"):
                bayes_select(state)

    def test_one_point_maximin_agent_recovers_greedy_on_trap_bandits(self):
        """On a one-point trap belief, the maximin and greedy agents take
        the classical greedy rule's actions, draw for draw, when all three
        share the environment and agent streams. The rule is written out
        here: argmax of the posterior expected return per arm, ties within
        1e-9 drawn uniformly from the agent's stream."""
        env = TrapWorldConfig()
        model, raw_support, values = trap_model(env)
        grid = deterministic_grid(model.arm_count)
        for run in range(3):
            actions, streams = {}, {}
            for flavor in ("ib_maximin", "bayes_greedy", "rule"):
                env_rng = derive_stream(42, run, 0)
                world = trap_sample_world(env, env_rng)
                state = make_agent(
                    trap_bayes_belief(model, env, 0.5),
                    derive_stream(42, run, 1),
                    "bayes_greedy" if flavor == "rule" else flavor,
                    values,
                    raw_support,
                )
                taken = actions[flavor] = []
                for _ in range(100):
                    if flavor == "rule":
                        measure, history = state.belief.points[0].measure, state.belief.history
                        arm_values = model.expected_action_values(measure, history, values).tolist()
                        tied = [i for i, v in enumerate(arm_values) if v >= max(arm_values) - 1e-9]
                        action = tied[int(state.rng.integers(len(tied)))] if len(tied) > 1 else tied[0]
                    else:
                        action = act(select_policy(state, grid), state.rng)
                    taken.append(action)
                    state = ib_observe(state, action, trap_step(world, env, action, env_rng))
                streams[flavor] = state.rng.bit_generator.state
            assert actions["ib_maximin"] == actions["bayes_greedy"] == actions["rule"]
            assert streams["ib_maximin"] == streams["bayes_greedy"] == streams["rule"]


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
        assert state.belief.history.counts == ((0, 0), (1, 0))

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
        assert state.belief.history.counts == ((0, 0), (0, 0))
        assert after.belief.history.counts == ((0, 1), (0, 0))

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


def bandit_agents(kind):
    """A one-point agent builder on either bandit model, with its raw
    support: the Bernoulli grid or the trap model's joint belief."""
    if kind == "bernoulli":
        model, support, values = BernoulliArmsModel(2), (0.0, 1.0), VALUES
        belief = singleton_belief(model, model.grid_measure([0.3, 0.7]))
    else:
        env = TrapWorldConfig()
        model, support, values = trap_model(env)
        belief = trap_bayes_belief(model, env, 0.5)
    return model, support, lambda flavor: make_agent(
        belief, np.random.default_rng(0), flavor, values, support
    )


@pytest.fixture
def events(monkeypatch):
    """Every ``ObservationEvent`` built while the test runs."""
    built = []
    original = ObservationEvent.__post_init__

    def counting(event):
        built.append(event)
        original(event)

    monkeypatch.setattr(ObservationEvent, "__post_init__", counting)
    return built


class TestClassicalObservation:
    """Classical flavors advance their history from the ``(arm, outcome)``
    pair without building an ``ObservationEvent``; they must agree with the
    maximin path on the history and on every error."""

    @pytest.mark.parametrize("kind", ["bernoulli", "joint"])
    def test_no_event_is_built_and_the_history_matches_maximin(self, kind, events):
        """Only ``make_agent`` builds events, one per ``(arm, outcome)`` and
        only for the maximin agent; no observation builds one."""
        model, support, agent = bandit_agents(kind)
        for action, reward in [(1, support[-1]), (0, support[0]), (1, support[1])]:
            state = agent("ib_maximin")
            pairs = [(arm, o) for arm in range(model.arm_count) for o in range(model.outcome_count)]
            assert [event.indicator for event in events] == pairs
            events.clear()
            maximin = ib_observe(state, action, reward)
            for flavor in ("bayes_greedy", "bayes_thompson"):
                state = agent(flavor)
                assert state.events is None
                classical = ib_observe(state, action, reward)
                assert classical.belief.history == maximin.belief.history
                assert classical.belief.history != state.belief.history
            assert events == []

    @pytest.mark.parametrize("kind", ["bernoulli", "joint"])
    def test_errors_match_the_maximin_path(self, kind):
        model, support, agent = bandit_agents(kind)
        cases = [
            (0, float("nan"), ConfigError),
            (0, support[0] + 0.25, ConfigError),
            (model.arm_count, support[0], RepresentationError),
            (-1, support[0], RepresentationError),
            (0.5, support[-1], RepresentationError),
            (0.0, support[-1], RepresentationError),
            (np.int64(1), support[-1], RepresentationError),
        ]
        for action, reward, error in cases:
            for flavor in ("ib_maximin", "bayes_greedy", "bayes_thompson"):
                state = agent(flavor)
                with pytest.raises(error) as raised:
                    ib_observe(state, action, reward)
                assert type(raised.value) is error
                assert state.memo == {}

    @pytest.mark.parametrize("kind", ["bernoulli", "joint"])
    def test_rewards_within_tolerance_map_to_their_outcome(self, kind):
        """An exact support value is looked up directly; a reward 1e-12 off
        one still maps to its outcome, and one 1e-6 off still raises."""
        model, support, agent = bandit_agents(kind)
        for outcome, exact in enumerate(support):
            near = exact + 1e-12
            assert near not in support
            for flavor in ("ib_maximin", "bayes_greedy", "bayes_thompson"):
                want = ib_observe(agent(flavor), 1, exact).belief
                got = ib_observe(agent(flavor), 1, near).belief
                assert got.history == want.history
                assert point_fields(got) == point_fields(want)
                state = agent(flavor)
                with pytest.raises(ConfigError, match="not in the agent's support"):
                    ib_observe(state, 1, exact + 1e-6)
                assert state.memo == {}


class TestEventTable:
    """A maximin bandit agent builds its events once, in ``make_agent``."""

    def test_a_ku_run_builds_one_event_per_arm_and_outcome(self, events):
        cfg = ExperimentConfig("ku-bandit", seed=3, settings={"steps": 200, "agents": "ib"})
        records = ibrl.harness.runner.run_experiment(cfg)
        assert len(records) == 200
        assert sorted(event.indicator for event in events) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_successors_share_the_table_and_it_stays_out_of_comparisons(self):
        belief = corner_belief(BernoulliArmsModel(2), KU_CORNERS)
        state = make_agent(belief, np.random.default_rng(0), reward_values=VALUES)
        table = state.events
        assert [[e.indicator for e in row] for row in table] == [[(0, 0), (0, 1)], [(1, 0), (1, 1)]]
        assert all(e.offbranch_return is state.returns for row in table for e in row)
        successor = ib_observe(state, 1, 1.0)
        assert successor.events is table
        assert "events" not in repr(state)
        twin = make_agent(state.belief, state.rng, reward_values=VALUES)
        assert twin.events is not table and twin == state


KU_CORNERS = [(a, b) for a in (0.3, 0.7) for b in (0.4, 0.8)]


def point_fields(belief):
    return [(a.scale, a.offset, belief.history, a.measure, a.model) for a in belief.points]


def newcomb_state(seed, accuracy=0.55, matrix=((10.0, 0.0), (11.0, 1.0))):
    model = NewcombModel(reward_matrix=matrix, accuracy=accuracy)
    return make_agent(singleton_belief(model, STATELESS), np.random.default_rng(seed))


def count_calls(monkeypatch, name, module=ibrl.agents):
    """Record the arguments of every call ``module`` makes to its binding ``name``."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def value_passes(monkeypatch):
    return count_calls(monkeypatch, "lower_expectations")


@pytest.fixture
def conditionings(monkeypatch):
    return count_calls(monkeypatch, "condition")


class TestMemo:
    """``select_policy`` memoizes its work on the state it is given, and
    ``ib_observe`` hands the memo on only to a successor on the same
    history-free points; a reused state must behave exactly like fresh
    equal states, draw for draw."""

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

    def test_bandit_states_store_no_successor(self, conditionings):
        """A bandit state observes once in a rollout, so a repeated
        observation is worked out again: the maximin agent conditions on
        every call and neither flavor stores anything on the state."""
        model = BernoulliArmsModel(2)
        for flavor, corners in (("ib_maximin", KU_CORNERS), ("bayes_greedy", KU_CORNERS[:1])):
            state = make_agent(corner_belief(model, corners), np.random.default_rng(0), flavor, VALUES)
            first = ib_observe(state, 1, 1.0)
            second = ib_observe(state, 1, 1.0)
            assert second.belief is not first.belief
            assert point_fields(second.belief) == point_fields(first.belief)
            assert state.memo == {} and first.memo == {}
        assert len(conditionings) == 2

    def test_newcomb_sweep_never_conditions(self, conditionings):
        """A Newcomb episode is one step, and the driver folds in only an
        observation a later step reads, so a sweep conditions nothing."""
        _, cells = run_newcomb_sweep(ExperimentConfig("newcomb", seed=7, settings={"episodes": 40}))
        assert len(cells) == 51
        assert conditionings == []

    def test_ku_corner_agents_value_once_per_run(self, monkeypatch, value_passes):
        """The shipped ``ku_bandit.cfg`` at ``per_step_random``: each classical
        corner agent keeps its one history-free point, so every successor
        shares the tie memo and one value pass serves the whole run."""
        labels = []
        run_blocks = ibrl.harness.runner._run_blocks

        def one_block_at_a_time(cfg, blocks, *args, **kwargs):
            records = []
            for label, block in blocks:
                labels.append((label, len(value_passes)))
                records += run_blocks(cfg, [(label, block)], *args, **kwargs)
            return records

        monkeypatch.setattr(ibrl.harness.runner, "_run_blocks", one_block_at_a_time)
        mapping = parse_config_text((CONFIGS / "ku_bandit.cfg").read_text())
        cfg = config_from_mapping({**mapping, "env.mode": "per_step_random"})
        assert len(run_experiment(cfg)) == 5 * 100
        ends = [start for _, start in labels[1:]] + [len(value_passes)]
        passes = {label: end - start for (label, start), end in zip(labels, ends)}
        corners = {label: n for label, n in passes.items() if label.startswith("bayes_corner")}
        assert corners == dict.fromkeys(corners, 1) and len(corners) == 4

    def test_a_refuting_history_raises_alike_on_a_tie_hit_and_a_miss(self):
        """A greedy corner agent whose arm 1 succeeds with certainty observes
        a failure there: a history can refute its point, so its successor
        takes a fresh memo, and selecting raises what a fresh state's full
        value pass raises."""
        model = BernoulliArmsModel(2)
        grid = deterministic_grid(2)
        belief = corner_belief(model, [(1.0, 0.4)])
        state = make_agent(belief, np.random.default_rng(0), "bayes_greedy", VALUES)
        select_policy(state, grid)
        refuted = ib_observe(state, 0, 0.0)
        assert refuted.memo == {} and refuted.memo is not state.memo
        fresh = make_agent(refuted.belief, np.random.default_rng(0), "bayes_greedy", VALUES)
        errors = []
        for s in (refuted, fresh):
            with pytest.raises(DegenerateUpdateError) as raised:
                select_policy(s, grid)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]

    def test_converged_maximin_successors_share_one_memo(self):
        """Once the corner pair maps to itself, each successor shares its
        state's memo; before that every successor starts empty."""
        model = BernoulliArmsModel(2)
        grid = deterministic_grid(2)
        belief = corner_belief(model, KU_CORNERS)
        state = make_agent(belief, np.random.default_rng(1), reward_values=VALUES)
        shared = []
        for reward in (0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0):
            select_policy(state, grid)
            successor = ib_observe(state, 1, reward)
            shared.append(successor.memo is state.memo)
            state = successor
        assert shared == [False, False, False, True, True, True, True]

    def test_newcomb_observations_give_equal_successors_with_empty_memos(self):
        """A Newcomb observation ignores the action and the reward; a direct
        call still conditions and stores nothing on the state."""
        state = newcomb_state(3)
        first, second = ib_observe(state, 0, 10.0), ib_observe(state, 1, 1.0)
        assert second is not first
        assert point_fields(first.belief) == point_fields(second.belief) == point_fields(state.belief)
        assert first.memo == second.memo == state.memo == {}
        assert first.rng is state.rng and first.returns is state.returns

    def test_newcomb_sweep_builds_one_state_per_cell_and_no_successor(self, monkeypatch):
        """Each cell builds its agent, whose state every one-step episode
        starts from; no episode observes, so no successor is built."""
        built = []
        init = ibrl.agents.AgentState.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ibrl.agents.AgentState, "__init__", counting)
        successors = count_calls(monkeypatch, "_successor")
        _, cells = run_newcomb_sweep(ExperimentConfig("newcomb", seed=7, settings={"episodes": 40}))
        assert len(built) == len(cells) == 51
        assert successors == []

    def test_newcomb_sweep_builds_one_policy_grid(self, monkeypatch):
        """Every cell scores the same candidates, so the sweep builds the
        grid once and shares it; each cell's tie memo is on its own state."""
        calls = []

        def counting(*args):
            calls.append(args)
            return policy_grid(*args)

        monkeypatch.setattr(ibrl.harness.runner, "policy_grid", counting)
        _, cells = run_newcomb_sweep(ExperimentConfig("newcomb", seed=7, settings={"episodes": 3}))
        assert len(cells) == 51
        assert calls == [(2, 0.1)]

    def test_trap_roster_warms_each_joint_measure_once_per_step(self, monkeypatch):
        """A roster entry's runs share its belief, so the config builds six
        joint measures (two for ``ib``, one per classical agent), and every
        block steps in lockstep, so each step warms the whole roster in one
        batch, each live measure with the histories of the states that hold
        it. Every posterior the runs read was warmed by that batch: no read
        misses the table, since a miss warms a batch of its own. That is 400
        measure-steps for the classical agents (both runs, every step) and
        110 for ``ib``, whose second point lives for 10 steps, until the
        later of its runs prunes it."""
        warms = count_calls(monkeypatch, "warm", ibrl.worldmodels.JointHypothesisBanditModel)
        agents, make = [], ibrl.harness.runner.make_agent

        def recording(*args):
            agents.append(make(*args))
            return agents[-1]

        monkeypatch.setattr(ibrl.harness.runner, "make_agent", recording)
        cfg = ExperimentConfig("trap-bandit", seed=42, settings={"env.runs": 2})
        assert len(ibrl.harness.runner.run_experiment(cfg)) == 2 * 5 * 100
        assert len(warms) == 100
        [roster] = {id(args[1]): args[1] for args in warms}.values()
        assert len({id(m) for m in roster.measures}) == 6 and roster.sizes == (2, 2, 4, 4, 4, 4)
        # Every measure carries its agent's own read-only value table, and
        # its table was last warmed with it.
        own = {id(a.measure): agent.returns.values for agent in agents for a in agent.belief.points}
        assert all(v is own[id(m)] and not v.flags.writeable for m, v in zip(roster.measures, roster.values))
        assert all(m.table[0] is v for m, v in zip(roster.measures, roster.values))
        lengths = [[sum(m is r for m, _ in args[2]) for r in roster.measures] for args in warms]
        assert all(n[2:] == [2] * 4 for n in lengths)
        assert sum(len(n) - n.count(0) for n in lengths) == 510
        # ``ib``'s histories: 2 per step on its kept point, and 18 run-steps
        # on the pruned one (the 218 restrictions of ``test_work_counts``).
        assert sum(n[0] + n[1] for n in lengths) == 218

    def test_memo_is_not_state(self):
        state = newcomb_state(3)
        twin = make_agent(state.belief, state.rng)
        select_policy(state, policy_grid(2, 0.1))
        ib_observe(state, 0, 10.0)
        assert len(state.memo) == 1 and twin.memo == {}
        assert state == twin
        assert hash(state) == hash(twin)
        assert repr(state) == repr(twin) and "memo" not in repr(state)

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
        assert state0.memo == {}


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

    @pytest.mark.parametrize("flavor", ["ib_maximin", "bayes_greedy"])
    @pytest.mark.parametrize(
        "kind, support",
        [("joint", (0.0, 1.0)), ("joint", (-1000.0, 0.0, 1.0, 2.0)), ("bernoulli", (0.0, 0.5, 1.0))],
    )
    def test_raw_support_needs_one_reward_per_outcome(self, flavor, kind, support):
        """With the default two-point support a trap agent (three outcomes)
        would record reward 1.0 as outcome 1, the zero-reward outcome."""
        valid = bandit_agents(kind)[2]("bayes_greedy")
        with pytest.raises(ConfigError, match="one reward per outcome"):
            make_agent(valid.belief, np.random.default_rng(0), flavor, valid.returns.values, support)

    def test_explicit_finite_belief_rejected(self):
        model = ExplicitFiniteModel(2)
        belief = singleton_belief(model, FiniteOutcomeMeasure((0.5, 0.5)))
        with pytest.raises(RepresentationError):
            make_agent(belief, np.random.default_rng(0), "ib_maximin", np.array([0.0, 1.0]))

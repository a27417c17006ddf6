"""Tests for the environment step functions and their configs."""

import tracemalloc

import numpy as np
import pytest

from ibrl import (
    ConfigError,
    ContractViolationError,
    KUBanditConfig,
    NewcombModel,
    TrapWorldConfig,
    TrueWorld,
    bernoulli_step,
    ku_probabilities,
    ku_step,
    newcomb_expected_reward,
    newcomb_step,
    trap_expected_rewards,
    trap_sample_world,
    trap_step,
)
from ibrl.harness import ExperimentConfig, run_newcomb_sweep
from ibrl.harness.runner import ENV_BLOCK, BlockSource


class TestBernoulliStep:
    def test_extreme_probabilities_are_deterministic(self):
        rng = np.random.default_rng(0)
        assert all(bernoulli_step(1.0, rng) == 1 for _ in range(10))
        assert all(bernoulli_step(0.0, rng) == 0 for _ in range(10))

    def test_long_run_frequency(self):
        rng = np.random.default_rng(42)
        draws = [bernoulli_step(0.3, rng) for _ in range(5000)]
        np.testing.assert_allclose(np.mean(draws), 0.3, atol=0.02)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ConfigError):
            bernoulli_step(1.2, np.random.default_rng(0))


class TestKUBandit:
    def test_default_intervals(self):
        cfg = KUBanditConfig()
        assert cfg.intervals == ((0.3, 0.7), (0.4, 0.8))
        assert cfg.arm_count == 2

    def test_interval_bounds_validated(self):
        with pytest.raises(ConfigError):
            KUBanditConfig(intervals=((0.7, 0.3),))
        with pytest.raises(ConfigError):
            KUBanditConfig(intervals=((0.2, 1.4),))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            KUBanditConfig(mode="adversarial")

    def test_fixed_point_must_lie_in_the_box(self):
        with pytest.raises(ConfigError):
            KUBanditConfig(mode="fixed_point", fixed_point=(0.9, 0.5))
        cfg = KUBanditConfig(mode="fixed_point", fixed_point=(0.5, 0.6))
        probs = ku_probabilities(cfg, 0, np.random.default_rng(0))
        np.testing.assert_allclose(probs, (0.5, 0.6))

    def test_fixed_point_mode_requires_a_point(self):
        with pytest.raises(ConfigError):
            KUBanditConfig(mode="fixed_point")
        with pytest.raises(ConfigError, match="wrong number of arms"):
            KUBanditConfig(mode="fixed_point", fixed_point=(0.5,))

    @pytest.mark.parametrize("mode", ["per_step_random", "worst_case_vs_agent"])
    def test_a_point_outside_fixed_point_mode_is_rejected(self, mode):
        with pytest.raises(ConfigError, match="fixed_point mode"):
            KUBanditConfig(mode=mode, fixed_point=(0.9, 0.9))

    def test_worst_case_mode_minimizes_the_pulled_arm(self):
        """The adversary grants the pulled arm its lower endpoint and every
        other arm its upper endpoint, making realized regret maximal."""
        cfg = KUBanditConfig()
        rng = np.random.default_rng(0)
        np.testing.assert_allclose(ku_probabilities(cfg, 0, rng), (0.3, 0.8))
        np.testing.assert_allclose(ku_probabilities(cfg, 1, rng), (0.7, 0.4))

    def test_per_step_random_stays_inside_the_box(self):
        cfg = KUBanditConfig(mode="per_step_random")
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = ku_probabilities(cfg, 0, rng)
            assert 0.3 <= p[0] <= 0.7
            assert 0.4 <= p[1] <= 0.8

    @pytest.mark.parametrize("seed", range(5))
    def test_per_step_random_draws_like_uniform_bit_for_bit(self, seed):
        """Each arm's draw is ``rng.uniform(lo, hi)``'s value from the same
        one uniform, and leaves the stream in the same state, on random
        intervals and on degenerate ones at 0, 1 and inside."""
        rng = np.random.default_rng(seed)
        edges = [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.25, 0.25), (0.0, 0.5), (0.5, 1.0)]
        for _ in range(200):
            intervals = tuple(tuple(sorted(rng.random(2).tolist())) for _ in range(3))
            intervals += (edges[int(rng.integers(len(edges)))],)
            cfg = KUBanditConfig(intervals=intervals, mode="per_step_random")
            ours, theirs = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
            for _ in range(3):
                got = ku_probabilities(cfg, 0, ours)
                want = tuple(theirs.uniform(lo, hi) for lo, hi in intervals)
                assert got == want
                assert all(type(p) is float for p in got)
                assert ours.bit_generator.state == theirs.bit_generator.state

    def test_step_returns_reward_and_probabilities(self):
        cfg = KUBanditConfig()
        rng = np.random.default_rng(1)
        reward, probs = ku_step(cfg, 1, rng)
        assert reward in (0, 1)
        np.testing.assert_allclose(probs, (0.7, 0.4))
        with pytest.raises(ConfigError, match="action out of range"):
            ku_step(cfg, 2, rng)

    def test_step_accepts_a_schedule_index(self):
        cfg = KUBanditConfig()
        reward, _ = ku_step(cfg, 0, np.random.default_rng(3))
        assert reward in (0, 1)


class TestNewcombEnv:
    def test_perfect_predictor_rewards_match_the_matrix(self):
        model = NewcombModel(accuracy=1.0)
        rng = np.random.default_rng(0)
        assert newcomb_step(model, 1.0, 0, rng) == 10.0
        assert newcomb_step(model, 0.0, 1, rng) == 1.0

    def test_perfect_predictor_punishes_defection_from_a_one_box_policy(self):
        """Policy commits to one-boxing, the sampled action two-boxes: the
        predictor saw the policy, so both boxes are full."""
        model = NewcombModel(accuracy=1.0)
        assert newcomb_step(model, 1.0, 1, np.random.default_rng(0)) == 11.0

    def test_action_must_be_binary(self):
        with pytest.raises(ConfigError):
            newcomb_step(NewcombModel(), 0.5, 2, np.random.default_rng(0))

    def test_policy_rewards_order_flips_with_accuracy(self):
        low, high = NewcombModel(accuracy=0.5), NewcombModel(accuracy=0.9)
        assert newcomb_expected_reward(0.0, low) > newcomb_expected_reward(1.0, low)
        assert newcomb_expected_reward(1.0, high) > newcomb_expected_reward(0.0, high)

    def test_episode_count_validated(self):
        cfg = ExperimentConfig("newcomb", seed=1, settings={"episodes": 0})
        with pytest.raises(ConfigError, match="'episodes'"):
            run_newcomb_sweep(cfg)


class TestTrapWorld:
    def test_defaults(self):
        cfg = TrapWorldConfig()
        assert cfg.arm_pairs == ((0.3, 0.7), (0.7, 0.3))
        assert cfg.p_cat == 0.01
        assert cfg.catastrophe_reward == -1000.0
        assert cfg.horizon == 100
        assert cfg.runs == 200

    def test_probability_overflow_rejected(self):
        """As are the other configs that describe no trap world."""
        for kwargs, message in [
            ({"arm_pairs": ((0.3, 0.995),), "p_cat": 0.01}, "exceeds 1"),
            ({"arm_pairs": ((0.3, 1.2),), "p_cat": 0.0}, r"lie in \[0, 1\]"),
            ({"horizon": 0}, "at least 1"),
            ({"arm_pairs": ()}, "at least one arm-probability pair"),
            ({"arm_pairs": ((0.3, 0.7), (0.1, 0.2, 0.3))}, "same arm count"),
        ]:
            with pytest.raises(ConfigError, match=message):
                TrapWorldConfig(**kwargs)

    def test_catastrophe_reward_must_be_negative(self):
        with pytest.raises(ConfigError):
            TrapWorldConfig(catastrophe_reward=5.0)

    def test_sampling_consumes_exactly_two_draws(self):
        cfg = TrapWorldConfig(alpha_dgp=0.5)
        rng = np.random.default_rng(11)
        shadow = np.random.default_rng(11)
        world = trap_sample_world(cfg, rng)
        shadow.integers(len(cfg.arm_pairs))
        shadow.random()
        assert rng.bit_generator.state == shadow.bit_generator.state
        assert world.probs in cfg.arm_pairs

    def test_risky_rate_matches_alpha(self):
        cfg = TrapWorldConfig(alpha_dgp=0.8)
        rng = np.random.default_rng(5)
        risky = [trap_sample_world(cfg, rng).risky for _ in range(4000)]
        np.testing.assert_allclose(np.mean(risky), 0.8, atol=0.03)

    def test_trap_sits_on_the_high_value_arm(self):
        cfg = TrapWorldConfig(alpha_dgp=1.0)
        world = trap_sample_world(cfg, np.random.default_rng(0))
        assert world.risky
        assert world.trap_arm == int(np.argmax(world.probs))

    def test_expected_rewards_subtract_the_catastrophe_term(self):
        cfg = TrapWorldConfig(alpha_dgp=1.0)
        world = trap_sample_world(cfg, np.random.default_rng(0))
        expected = trap_expected_rewards(world, cfg)
        trap, other = world.trap_arm, 1 - world.trap_arm
        np.testing.assert_allclose(expected[other], world.probs[other])
        np.testing.assert_allclose(
            expected[trap], world.probs[trap] + cfg.p_cat * cfg.catastrophe_reward
        )

    def test_one_trap_pull_costs_nine_point_six_in_expectation(self):
        """Safe arm yields 0.3; the trapped arm's expected reward is
        0.7 - 10 = -9.3, so the regret of stepping on the trap once is 9.6."""
        cfg = TrapWorldConfig(alpha_dgp=1.0)
        world = trap_sample_world(cfg, np.random.default_rng(0))
        expected = trap_expected_rewards(world, cfg)
        np.testing.assert_allclose(expected.max() - expected[world.trap_arm], 9.6, atol=1e-9)

    def test_step_on_safe_world_is_plain_bernoulli(self):
        cfg = TrapWorldConfig(alpha_dgp=0.0)
        world = trap_sample_world(cfg, np.random.default_rng(2))
        assert not world.risky
        rng = np.random.default_rng(8)
        rewards = {trap_step(world, cfg, 0, rng) for _ in range(200)}
        assert rewards <= {0.0, 1.0}
        with pytest.raises(ConfigError, match="action out of range"):
            trap_step(world, cfg, -1, rng)

    def test_step_on_trap_arm_can_be_catastrophic(self):
        cfg = TrapWorldConfig(arm_pairs=((0.1, 0.4),), alpha_dgp=1.0, p_cat=0.5)
        world = trap_sample_world(cfg, np.random.default_rng(0))
        rng = np.random.default_rng(3)
        rewards = [trap_step(world, cfg, world.trap_arm, rng) for _ in range(300)]
        assert cfg.catastrophe_reward in rewards
        freq = np.mean([r == cfg.catastrophe_reward for r in rewards])
        np.testing.assert_allclose(freq, 0.5, atol=0.08)

    def test_step_consumes_exactly_one_draw(self):
        cfg = TrapWorldConfig(alpha_dgp=1.0)
        world = trap_sample_world(cfg, np.random.default_rng(0))
        for action in (0, 1):
            rng = np.random.default_rng(13)
            shadow = np.random.default_rng(13)
            trap_step(world, cfg, action, rng)
            shadow.random()
            assert rng.bit_generator.state == shadow.bit_generator.state


class TestBlockSource:
    """A unit's environment stream read a block at a time yields what
    scalar draws yield, bit for bit, and ends in the state they leave."""

    @pytest.mark.parametrize("after_integers", [False, True], ids=["fresh", "after_integers"])
    @pytest.mark.parametrize(
        "count", [0, 1, ENV_BLOCK - 1, ENV_BLOCK, ENV_BLOCK + 1, 3 * ENV_BLOCK + 5]
    )
    def test_blocks_equal_scalar_draws(self, count, after_integers):
        rng, twin = np.random.default_rng(2024), np.random.default_rng(2024)
        if after_integers:  # the draw trap_sample_world makes before its uniform
            assert rng.integers(2) == twin.integers(2)
        source = BlockSource(rng, count)
        got = [source.random() for _ in range(count)]
        assert got == [twin.random() for _ in range(count)]
        assert rng.bit_generator.state == twin.bit_generator.state
        with pytest.raises(ContractViolationError, match=f"past its {count} uniforms"):
            source.random()

    def test_draws_one_block_at_a_time_and_none_before_the_first_read(self):
        rng, twin = np.random.default_rng(5), np.random.default_rng(5)
        source = BlockSource(rng, 3 * ENV_BLOCK + 5)
        assert rng.bit_generator.state == twin.bit_generator.state
        source.random()
        twin.random(ENV_BLOCK)
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("count", [ENV_BLOCK, 3 * ENV_BLOCK])
    def test_a_source_read_to_its_end_holds_no_block(self, count):
        """A finished unit's source lives as long as its runner, so it must
        not keep its last block: sources read to their end hold under 1 KB
        each, where a kept block of 1,024 uniforms is about 33 KB."""
        rngs = [np.random.default_rng(seed) for seed in range(40)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sources = [BlockSource(rng, count) for rng in rngs]
            for source in sources:
                for _ in range(count):
                    source.random()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1024 * len(sources), held

    def test_every_step_reads_a_source_as_it_reads_a_generator(self):
        """Per loop: three uniforms for a per-step-random ku pull, one each
        for a trap pull, a Newcomb episode and a Bernoulli draw."""
        ku = KUBanditConfig(mode="per_step_random")
        trap = TrapWorldConfig(arm_pairs=((0.1, 0.4),), p_cat=0.3)
        world = TrueWorld((0.1, 0.4), True, 1)
        model = NewcombModel(accuracy=0.7)

        def play(rng):
            out = []
            for t in range(200):
                action = t % 2
                out.append(ku_step(ku, action, rng))
                out.append(trap_step(world, trap, action, rng))
                out.append(newcomb_step(model, 0.5, action, rng))
                out.append(bernoulli_step(0.4, rng))
            return out

        steps = play(np.random.default_rng(9))
        assert play(BlockSource(np.random.default_rng(9), 200 * 6)) == steps
        assert trap.catastrophe_reward in steps

"""Tests for the experiment harness: config parsing, statistics, CSV
records, runners, and the command line."""

import csv
import re

import numpy as np
import pytest

from ibrl import (
    BernoulliArmsModel,
    ConfigError,
    KUBanditConfig,
    DegenerateUpdateError,
    NewcombModel,
    TrapWorldConfig,
    deterministic_grid,
    ku_step,
    make_agent,
    mix_knightian,
    newcomb_expected_reward,
    policy_grid,
    trap_expected_rewards,
    trap_sample_world,
)
from ibrl.harness import (
    CSV_COLUMNS,
    DEFAULT_SEED,
    ENV_STREAM,
    ExperimentConfig,
    RunRecord,
    bootstrap_percentiles,
    catastrophe_rates,
    classical_belief,
    config_from_mapping,
    derive_stream,
    emit_csv,
    final_cumulative_regrets,
    ku_corners,
    nearest_rank,
    parse_config_text,
    read_records,
    run_experiment,
    run_newcomb_sweep,
)
from ibrl.harness import acceptance
from ibrl.harness.cli import main
from ibrl.harness.runner import DEFAULT_VALIDATE_PAIRS, _run_blocks


class TestConfigParsing:
    def test_scalars_are_typed(self):
        mapping = parse_config_text(
            "experiment = ku-bandit\nsteps = 50\nenv.mode = worst_case_vs_agent\n"
            "flag = true\nrate = 0.25\n"
        )
        assert mapping["steps"] == 50
        assert mapping["flag"] is True
        assert mapping["rate"] == 0.25
        assert mapping["env.mode"] == "worst_case_vs_agent"

    def test_comma_values_become_tuples(self):
        mapping = parse_config_text("experiment = ku-bandit\nenv.arm1 = 0.3, 0.7\n")
        assert mapping["env.arm1"] == (0.3, 0.7)

    def test_comments_and_blank_lines_are_skipped(self):
        mapping = parse_config_text("# a comment\n\nexperiment = newcomb\n")
        assert mapping == {"experiment": "newcomb"}

    def test_missing_equals_reports_the_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("experiment = newcomb\nbroken line\n")

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text("experiment = newcomb\nseed = 1\nseed = 2\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("seed =\n")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            config_from_mapping({"experiment": "maze"})

    def test_seed_must_be_a_positive_integer(self):
        with pytest.raises(ConfigError, match="field 'seed'"):
            config_from_mapping({"experiment": "newcomb", "seed": 0})
        with pytest.raises(ConfigError, match="field 'seed'"):
            config_from_mapping({"experiment": "newcomb", "seed": True})

    def test_reserved_keys_split_from_settings(self):
        cfg = config_from_mapping(
            {"experiment": "ku-bandit", "seed": 9, "out": "x.csv", "steps": 10}
        )
        assert cfg.seed == 9
        assert cfg.out == "x.csv"
        assert cfg.settings == {"steps": 10}

    def test_unknown_setting_is_rejected_at_run_time(self):
        cfg = ExperimentConfig("ku-bandit", settings={"bogus": 1})
        with pytest.raises(ConfigError, match="bogus"):
            run_experiment(cfg)


class TestStats:
    def test_nearest_rank_median_of_one_to_hundred(self):
        samples = np.arange(1.0, 101.0)
        assert nearest_rank(samples, 0.5) == 50.0

    def test_nearest_rank_upper_percentile(self):
        samples = np.arange(1.0, 101.0)
        assert nearest_rank(samples, 0.95) == 95.0

    def test_nearest_rank_is_always_a_sample(self):
        rng = np.random.default_rng(42)
        samples = rng.random(37)
        for q in (0.1, 0.5, 0.9, 1.0):
            assert nearest_rank(samples, q) in samples

    def test_bootstrap_is_deterministic_given_the_stream(self):
        samples = np.random.default_rng(42).exponential(size=80)
        a = bootstrap_percentiles(samples, 0.5, 500, derive_stream(1, 2, 3))
        b = bootstrap_percentiles(samples, 0.5, 500, derive_stream(1, 2, 3))
        assert (a.ci_low, a.estimate, a.ci_high) == (b.ci_low, b.estimate, b.ci_high)

    def test_bootstrap_interval_contains_the_estimate(self):
        samples = np.random.default_rng(7).normal(size=60)
        report = bootstrap_percentiles(samples, 0.9, 400, derive_stream(4))
        assert report.ci_low <= report.estimate <= report.ci_high

    def test_report_formatting(self):
        report = bootstrap_percentiles(
            np.array([9.6] * 10), 0.5, 100, derive_stream(0), catastrophe_rate=0.645
        )
        assert report.format() == "p50 9.60 [9.60, 9.60] cat_rate=0.645"


class TestCsv:
    def record(self, **overrides):
        base = dict(
            experiment="ku-bandit",
            agent="ib",
            seed=42,
            episode=0,
            step=0,
            action=1,
            reward=1.0,
            exp_regret=0.3,
            cum_regret=0.7,
            cum_exp_regret=0.3,
        )
        base.update(overrides)
        return RunRecord(**base)

    def test_record_fields_are_the_csv_columns(self):
        assert RunRecord._fields == CSV_COLUMNS

    def test_keyword_and_positional_records_are_equal(self):
        values = ("ku-bandit", "ib", 42, 0, 0, 1, 1.0, 0.3, 0.7, 0.3)
        assert RunRecord(*values) == self.record()
        assert self.record().reward == 1.0 and self.record().agent == "ib"
        # A record is a named tuple: it equals the plain tuple of its values.
        assert self.record() == values

    def test_records_are_immutable(self):
        record = self.record()
        with pytest.raises(AttributeError):
            record.reward = 0.0

    def test_header_matches_the_record_contract(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([self.record()], path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert header == (
            "experiment,agent,seed,episode,step,action,reward,exp_regret,"
            "cum_regret,cum_exp_regret"
        )

    def test_floats_use_six_decimals(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv([self.record(reward=0.1234567)], path)
        line = path.read_text().splitlines()[1]
        assert line.endswith(",0.123457,0.300000,0.700000,0.300000")

    def test_emit_is_byte_deterministic(self, tmp_path):
        records = [self.record(step=i, reward=float(i % 2)) for i in range(5)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(records, p1)
        emit_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")

    def test_rows_match_the_csv_writer_byte_for_byte(self, tmp_path):
        """Names that need quoting, under one and under several pairs, and
        floats that round, are negative zero, huge or exact."""
        names = [("ku-bandit", "ib"), ("a,b", 'say "hi"'), ("line\nbreak", ""), ("a,b", "ib")]
        floats = [0.1234565, -0.0, 1e300, 2.5, -1e-7, 123456.7890125]
        records = [
            self.record(
                experiment=names[i % 4][0], agent=names[i % 4][1], seed=i, step=i * 7, action=i % 3,
                reward=floats[i % 6], exp_regret=floats[(i + 1) % 6],
                cum_regret=floats[(i + 2) % 6], cum_exp_regret=float(i),
            )
            for i in range(24)
        ]
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in records:
                writer.writerow((*r[:6], *(f"{x:.6f}" for x in r[6:])))
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        assert read_records(path)[1].agent == 'say "hi"'

    def test_round_trip_preserves_every_field(self, tmp_path):
        records = [self.record(step=i, reward=float(i % 2), exp_regret=0.25) for i in range(4)]
        path = tmp_path / "out.csv"
        emit_csv(records, path)
        back = read_records(path)
        assert back == [
            self.record(step=i, reward=float(i % 2), exp_regret=0.25) for i in range(4)
        ]

    def test_bad_header_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="header"):
            read_records(path)

    def test_malformed_row_reports_the_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        good = "ku-bandit,ib,42,0,0,1,1.000000,0.300000,0.700000,0.300000"
        path.write_text(",".join(CSV_COLUMNS) + "\n" + good + "\nshort,row\n")
        with pytest.raises(ConfigError, match="line 3"):
            read_records(path)


class TestStreams:
    def test_derived_streams_are_reproducible(self):
        a = derive_stream(42, 3, 0).random(4)
        b = derive_stream(42, 3, 0).random(4)
        np.testing.assert_array_equal(a, b)

    def test_different_roles_decorrelate(self):
        a = derive_stream(42, 3, 0).random(4)
        b = derive_stream(42, 3, 1).random(4)
        assert not np.array_equal(a, b)


class TestRunners:
    def test_records_come_back_sorted_and_complete(self):
        cfg = ExperimentConfig(
            "ku-bandit", seed=5, settings={"runs": 2, "steps": 3, "agents": "ib"}
        )
        records = run_experiment(cfg)
        assert len(records) == 6
        keys = [(r.agent, r.episode, r.step) for r in records]
        assert keys == sorted(keys)
        assert all(r.experiment == "ku-bandit" and r.seed == 5 for r in records)

    def test_cumulative_columns_accumulate(self):
        cfg = ExperimentConfig(
            "ku-bandit", seed=5, settings={"runs": 1, "steps" : 4, "agents": "ib"}
        )
        records = run_experiment(cfg)
        np.testing.assert_allclose(
            records[-1].cum_exp_regret, sum(r.exp_regret for r in records)
        )

    def test_newcomb_with_negative_rewards_selects_the_analytic_best(self):
        """Newcomb conditioning banks nothing, so a negative matrix entry
        must not be read as a negative off-branch return."""
        settings = {"episodes": 5, "env.alpha": 0.9, "matrix.onebox": (10.0, -5.0)}
        records, cells = run_newcomb_sweep(ExperimentConfig("newcomb", seed=42, settings=settings))
        model = NewcombModel(reward_matrix=((10.0, -5.0), (11.0, 1.0)), accuracy=0.9)
        values = {
            p.action_probs[0]: newcomb_expected_reward(p.action_probs[0], model)
            for p in policy_grid(2, 0.1).policies
        }
        best = max(values, key=values.get)
        assert len(records) == 5 and len(cells) == 1
        assert cells[0].selected_one_box_rate == best
        assert cells[0].mean_policy_value == values[best]

    def test_runs_are_reproducible(self):
        cfg = ExperimentConfig("trap-bandit", seed=9, settings={"env.runs": 2, "env.horizon": 5})
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_seeds_change_the_trajectories(self):
        base = {"runs": 2, "steps": 10, "env.mode": "per_step_random"}
        a = run_experiment(ExperimentConfig("ku-bandit", seed=1, settings=dict(base)))
        b = run_experiment(ExperimentConfig("ku-bandit", seed=2, settings=dict(base)))
        assert [r.reward for r in a] != [r.reward for r in b]

    def test_ku_corner_order(self):
        corners = ku_corners(((0.3, 0.7), (0.4, 0.8)))
        assert corners == ((0.3, 0.4), (0.3, 0.8), (0.7, 0.4), (0.7, 0.8))

    def test_final_regret_extraction(self):
        cfg = ExperimentConfig("ku-bandit", seed=5, settings={"runs": 3, "steps": 2, "agents": "ib"})
        finals = final_cumulative_regrets(run_experiment(cfg))
        assert set(finals) == {"ib"}
        assert finals["ib"].shape == (3,)

    @staticmethod
    def _sure_episode(run, agent, fail_at=None, where="", pulled=None):
        """An episode whose two points say the one arm always pays; a
        failure at step ``fail_at`` refutes every point there. Each step
        appends ``run`` to ``pulled``, if given."""
        model = BernoulliArmsModel(1)
        sure = classical_belief(model, model.point_measure((1.0,)))
        belief = mix_knightian([sure, sure])
        state = make_agent(belief, derive_stream(run, agent), "ib_maximin", np.array([[0.0, 1.0]]))
        rewards = iter([0.0 if t == fail_at else 1.0 for t in range(5)])

        def env_step(policy, action):
            if pulled is not None:
                pulled.append(run)
            reward = next(rewards)
            return reward, 0.0, 1.0 - reward

        return run, state, env_step, (run, agent), where

    def test_degenerate_update_names_the_step(self):
        """The failure at step 2 stops its episode only; the other episode of
        the block runs all five steps, and the error says where it happened."""
        cfg = ExperimentConfig("ku-bandit", seed=3)
        pulled = []
        block = [
            self._sure_episode(4, 0, fail_at=2, where=", world W", pulled=pulled),
            self._sure_episode(5, 0, pulled=pulled),
        ]
        expected = r"^ku-bandit: agent 'ib', episode 4, step 2, world W: every point"
        with pytest.raises(DegenerateUpdateError, match=expected):
            _run_blocks(cfg, [("ib", block)], deterministic_grid(1), 5)
        assert pulled == [4, 5, 4, 5, 4, 5, 5, 5]

    def test_the_failure_the_sequential_loop_reaches_first_is_raised(self):
        """Agent 'a' fails in run 1 at step 1 and agent 'b' in run 0 at step
        3. Block 'a' runs, and fails, first, but the loop over runs, then
        agents, reaches (run 0, 'b') first, so that failure is raised."""
        cfg = ExperimentConfig("ku-bandit", seed=3)
        blocks = [
            ("a", [self._sure_episode(0, 0), self._sure_episode(1, 0, fail_at=1)]),
            ("b", [self._sure_episode(0, 1, fail_at=3), self._sure_episode(1, 1)]),
        ]
        expected = r"^ku-bandit: agent 'b', episode 0, step 3: every point"
        with pytest.raises(DegenerateUpdateError, match=expected) as raised:
            _run_blocks(cfg, blocks, deterministic_grid(1), 5)
        assert isinstance(raised.value.__cause__, DegenerateUpdateError)

    @pytest.mark.parametrize(
        "cfg",
        [
            ExperimentConfig("trap-bandit", seed=42, settings={"env.runs": 3}),
            ExperimentConfig(
                "ku-bandit", seed=7, settings={"agents": ("ib", "corners"), "env.mode": "per_step_random"}
            ),
            ExperimentConfig("validate-classical", seed=3, settings={"runs": 2, "steps": 60}),
            # Corner (1, 0.4) is refuted at step 5 while the other blocks run on.
            ExperimentConfig(
                "ku-bandit",
                seed=5,
                settings={
                    "agents": ("ib", "corners"),
                    "env.mode": "per_step_random",
                    "env.arm1": (0.5, 1.0),
                    "env.arm2": (0.4, 0.8),
                },
            ),
        ],
        ids=["trap", "ku", "validate-classical", "ku-refuted-corner"],
    )
    def test_blocks_stepped_together_equal_each_block_alone(self, cfg, monkeypatch):
        """The driver steps every block of a config in lockstep. No two blocks
        that step more than once share a stream object, so this gives the
        records, or raises the failure, of running each block alone."""

        def outcome():
            try:
                return run_experiment(cfg)
            except DegenerateUpdateError as exc:
                return str(exc)

        together = outcome()
        alone = []

        def one_block_per_call(cfg, blocks, *args):
            records, failure = [], None
            for block in blocks:
                alone.append(block[0])
                try:
                    records += _run_blocks(cfg, [block], *args)
                except DegenerateUpdateError as exc:
                    failure = failure or exc
            if failure is not None:
                raise failure
            return records

        monkeypatch.setattr("ibrl.harness.runner._run_blocks", one_block_per_call)
        assert outcome() == together
        assert len(alone) > 1

    @pytest.mark.parametrize(
        "arm1, arm2, seed, agent, step",
        [
            ((0.5, 1.0), (0.4, 0.8), 5, "bayes_corner_1_0.4", 5),
            ((0.0, 0.5), (0.0, 0.5), 6, "bayes_corner_0_0", 6),
        ],
    )
    def test_a_refuted_corner_names_its_step(self, arm1, arm2, seed, agent, step):
        """A corner agent whose ``p == 1`` arm fails, or whose ``p == 0`` arm
        succeeds, is refuted at its next selection, which reads the point
        measure's warm action-value memo; the error names that step."""
        settings = {"env.mode": "per_step_random", "env.arm1": arm1, "env.arm2": arm2}
        settings["agents"] = "corners"

        def run(steps):
            cfg = ExperimentConfig("ku-bandit", seed, settings={**settings, "steps": steps})
            return run_experiment(cfg)

        expected = (
            f"^ku-bandit: agent '{agent}', episode 0, step {step}: "
            "history is impossible under every component of this arm$"
        )
        for _ in range(2):
            with pytest.raises(DegenerateUpdateError, match=expected):
                run(step + 1)
        assert run(step)

    def test_regret_column_is_the_gap_to_the_best_arm_bit_for_bit(self):
        """Trap and validate-classical read each step's expected regret from
        a table built once per run, and ku computes it in plain floats; every
        entry must equal ``max(rewards) - rewards[action]`` taken in numpy
        exactly, and every arm is read somewhere."""
        trap = ExperimentConfig("trap-bandit", seed=11, settings={"env.runs": 4, "env.horizon": 30})
        env = TrapWorldConfig(runs=4, horizon=30)

        def trap_rewards(episode):
            world = trap_sample_world(env, derive_stream(11, episode, ENV_STREAM))
            return trap_expected_rewards(world, env)

        validate = ExperimentConfig("validate-classical", seed=11, settings={"runs": 2, "steps": 40})

        def validate_rewards(episode):
            return np.asarray(DEFAULT_VALIDATE_PAIRS[episode // 2], dtype=float)

        for cfg, rewards_of in ((trap, trap_rewards), (validate, validate_rewards)):
            arms = set()
            for rec in run_experiment(cfg):
                rewards = rewards_of(rec.episode)
                assert rec.exp_regret == float(rewards.max() - rewards[rec.action])
                arms.add(rec.action)
            assert arms == {0, 1}

        ku = ExperimentConfig(
            "ku-bandit", seed=11, settings={"steps": 60, "env.mode": "per_step_random"}
        )
        env = KUBanditConfig(mode="per_step_random")
        rngs, arms = {}, set()
        for rec in run_experiment(ku):
            rng = rngs.setdefault(rec.agent, derive_stream(11, 0, ENV_STREAM))
            reward, probs = ku_step(env, rec.action, rng)
            rewards = np.asarray(probs)
            exp_regret = float(rewards.max() - rewards[rec.action])
            assert (rec.reward, rec.exp_regret) == (reward, exp_regret)
            arms.add(rec.action)
        assert len(rngs) == 5 and arms == {0, 1}

    def test_records_hold_plain_python_values(self):
        """The CSV writer passes the six leading fields through as stored,
        so every runner must store names as ``str`` and counts as ``int``
        (and the four regret and reward columns as ``float``)."""
        plain = (str, str, int, int, int, int, float, float, float, float)
        for cfg in (
            ExperimentConfig("validate-classical", seed=3, settings={"runs": 1, "steps": 20}),
            ExperimentConfig("ku-bandit", seed=3, settings={"steps": 20}),
            ExperimentConfig("newcomb", seed=3, settings={"episodes": 5}),
            ExperimentConfig("trap-bandit", seed=3, settings={"env.runs": 3, "env.horizon": 20}),
        ):
            for rec in run_experiment(cfg):
                assert tuple(type(v) for v in rec) == plain

    def test_newcomb_policy_step_is_checked_before_the_alpha_range(self):
        settings = {"policy.step": 0.0, "alpha.min": 0.9, "alpha.max": 0.5}
        with pytest.raises(ConfigError, match="grid step"):
            run_newcomb_sweep(ExperimentConfig("newcomb", seed=1, settings=settings))

    @pytest.mark.parametrize("alpha", [0.7559108123501284, 0.75])
    def test_equal_newcomb_bounds_run_their_one_cell(self, alpha):
        """``alpha.min == alpha.max`` gives one cell at the bound rounded to
        10 decimals, even when that rounds up past ``alpha.max``."""
        settings = {"episodes": 2, "alpha.min": alpha, "alpha.max": alpha}
        records, cells = run_newcomb_sweep(ExperimentConfig("newcomb", seed=1, settings=settings))
        assert [cell.alpha for cell in cells] == [round(alpha, 10)]
        label = f"ib_alpha{alpha:.2f}"
        assert [(rec.agent, rec.episode) for rec in records] == [(label, 0), (label, 1)]

    def test_catastrophe_rates_count_negative_reward_episodes(self):
        records = [
            RunRecord("trap-bandit", "x", 1, e, s, 0, r, 0.0, 0.0, 0.0)
            for e, s, r in [(0, 0, 1.0), (0, 1, -1000.0), (1, 0, 0.0), (1, 1, 1.0)]
        ]
        rates = catastrophe_rates(records)
        np.testing.assert_allclose(rates["x"], 0.5)


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            [
                "run",
                "--experiment",
                "ku-bandit",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_config_file_drives_the_run(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = ku-bandit\nseed = 11\nsteps = 4\nruns = 2\nagents = ib\n"
        )
        out = tmp_path / "r.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 8
        assert rows[1].split(",")[2] == "11"

    def test_command_line_seed_beats_config_and_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IBRL_SEED", "77")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = ku-bandit\nseed = 11\nsteps = 2\nruns = 1\nagents = ib\n")
        out = tmp_path / "r.csv"
        assert main(["run", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].split(",")[2] == "5"

    def test_environment_seed_fills_the_gap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IBRL_SEED", "77")
        out = tmp_path / "r.csv"
        args = ["run", "--experiment", "ku-bandit", "--out", str(out)]
        code = main(args)
        assert code == 0
        assert out.read_text().splitlines()[1].split(",")[2] == "77"

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = ku-bandit\nnot a pair\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_setting_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = ku-bandit\nwibble = 3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert "wibble" in capsys.readouterr().err

    def test_missing_experiment_exits_two(self, capsys):
        assert main(["run"]) == 2

    @pytest.mark.parametrize(
        "experiment, key, value",
        [
            ("newcomb", "alpha.min", "nan"),
            ("newcomb", "alpha.step", "inf"),
            ("trap-bandit", "env.catastrophe_reward", "nan"),
            ("trap-bandit", "env.catastrophe_reward", "-inf"),
        ],
    )
    def test_non_finite_setting_exits_two(self, tmp_path, capsys, experiment, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = {experiment}\n{key} = {value}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert f"field {key!r}: must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, lines, key",
        [
            ("ku-bandit", "env.point = 0.9, 0.9", "env.point"),
            ("ku-bandit", "env.mode = fixed_point", "env.point"),
            ("ku-bandit", "env.mode = fixed_point\nenv.point = 0.1, 0.5", "env.point"),
            ("ku-bandit", "env.arm1 = 0.3, inf", "env.arm1"),
            ("ku-bandit", "env.arm2 = 0.8, 0.4", "env.arm2"),
            ("newcomb", "matrix.onebox = nan, 0", "matrix.onebox"),
            ("newcomb", "matrix.twobox = 11, -inf", "matrix.twobox"),
            ("newcomb", "alpha.min = 0.4", "alpha.min"),
            ("newcomb", "alpha.max = 1.5", "alpha.max"),
            ("newcomb", "env.alpha = 1.5", "env.alpha"),
            ("newcomb", "policy.step = 0", "policy.step"),
            ("newcomb", "alpha.max = 0.51\nalpha.step = 0.005", "alpha.step"),
            ("trap-bandit", "env.p_cat = 2", "env.p_cat"),
            ("trap-bandit", "env.p_cat = 0.5", "env.p_cat"),
            ("trap-bandit", "env.alpha_dgp = 1.5", "env.alpha_dgp"),
            ("trap-bandit", "env.pair.1 = 0.3, 1.2", "env.pair.1"),
            ("trap-bandit", "env.catastrophe_reward = 5", "env.catastrophe_reward"),
            ("validate-classical", "setting.2 = -0.1, 0.5", "setting.2"),
        ],
        ids=["point-off-mode", "point-missing", "point-outside", "arm1-inf", "arm2-unordered",
             "onebox-nan", "twobox-inf", "alpha-min-low", "alpha-max-high", "alpha-high",
             "policy-step-zero", "alpha-step-shared-label", "p-cat-high", "p-cat-plus-arm",
             "alpha-dgp-high", "pair-high", "catastrophe-positive", "setting-negative"],
    )
    def test_environment_errors_name_their_field(self, tmp_path, capsys, experiment, lines, key):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = {experiment}\n{lines}\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert f"config error: field {key!r}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["greedy_prior2", "thompson_prior1.5"])
    def test_an_out_of_range_trap_prior_names_its_entry(self, name):
        cfg = ExperimentConfig("trap-bandit", seed=1, settings={"agents": ("ib", name)})
        expected = f"field 'agents': trap agent '{name}': prior risky-world probability must lie in [0, 1]"
        with pytest.raises(ConfigError, match=f"^{re.escape(expected)}$"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "experiment, first, second",
        [("validate-classical", "setting.1", "setting.01"), ("trap-bandit", "env.pair.2", "env.pair.002")],
    )
    def test_numbered_keys_of_one_number_are_rejected(self, tmp_path, capsys, experiment, first, second):
        """Both keys would be read as the same entry, and one silently dropped."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"experiment = {experiment}\n{first} = 0.3, 0.7\n{second} = 0.9, 0.1\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.csv")]) == 2
        assert f"config error: fields {first!r} and {second!r} have the same number" in capsys.readouterr().err

    def test_report_summarizes_an_output_file(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        main(
            [
                "run",
                "--experiment",
                "ku-bandit",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        code = main(
            ["report", "--in", str(out), "--percentiles", "50,95", "--bootstrap", "200"]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "ib p50" in text
        assert "p95" in text

    def test_report_p100_is_one_line_per_agent(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("experiment = ku-bandit\nseed = 3\nsteps = 5\nruns = 3\n")
        out = tmp_path / "r.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        finals = final_cumulative_regrets(read_records(out))
        capsys.readouterr()
        code = main(["report", "--in", str(out), "--percentiles", "100", "--bootstrap", "50"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(finals) > 1
        # p100 is the sample maximum.
        assert [line.split()[:3] for line in lines] == [
            [agent, "p100", f"{max(finals[agent]):.2f}"] for agent in sorted(finals)
        ]

    def test_report_rejects_bad_percentiles(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        out.write_text(",".join(CSV_COLUMNS) + "\n")
        assert main(["report", "--in", str(out), "--percentiles", "0"]) == 2

    def test_sweep_rejects_other_experiments(self, capsys):
        assert main(["sweep", "--experiment", "ku-bandit"]) == 2

    def test_sweep_prints_cells_and_writes_records(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(
            [
                "sweep",
                "--seed",
                "3",
                "--alpha-min",
                "0.5",
                "--alpha-max",
                "0.55",
                "--alpha-step",
                "0.05",
                "--out",
                str(out),
                "--config",
                str(_sweep_config(tmp_path)),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "alpha=0.50" in text and "alpha=0.55" in text
        assert out.exists()

    def test_sweep_flags_beat_the_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            "experiment = newcomb\nepisodes = 5\nalpha.min = 0.6\nalpha.max = 0.6\n"
            "alpha.step = 0.05\n"
        )
        out = tmp_path / "s.csv"
        args = ["sweep", "--config", str(cfg), "--alpha-min", "0.55", "--out", str(out)]
        assert main(args) == 0
        cells = [line for line in capsys.readouterr().out.splitlines() if line.startswith("alpha=")]
        assert [line.split()[0] for line in cells] == ["alpha=0.55", "alpha=0.60"]

    def test_run_and_sweep_write_the_same_bytes(self, tmp_path, capsys):
        """``sweep`` emits its records unsorted and ``run`` sorts them, so the
        two agree only while the sweep's cell order is the canonical one."""
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("experiment = newcomb\nepisodes = 5\nalpha.min = 0.5\nalpha.max = 0.6\nalpha.step = 0.01\n")
        run_out, sweep_out = tmp_path / "run.csv", tmp_path / "sweep.csv"
        assert main(["run", "--config", str(cfg), "--seed", "4", "--out", str(run_out)]) == 0
        assert main(["sweep", "--config", str(cfg), "--seed", "4", "--out", str(sweep_out)]) == 0
        assert capsys.readouterr().out.count("alpha=") == 11
        assert run_out.read_bytes() == sweep_out.read_bytes()

    CHECKS = [
        "check_classical_recovery",
        "check_conditioning_oracle",
        "check_ku_geometry",
        "check_newcomb_curve",
        "check_trap_bandit",
        "check_algebra_properties",
    ]

    def test_validate_prints_each_criterion_with_its_time(self, monkeypatch, capsys):
        """The six checks are stubbed, so this covers only the reporting."""
        names = self.CHECKS
        for number, name in enumerate(names, start=1):
            passed = number != 4
            result = acceptance.CriterionResult(number, name, passed, "stub")
            monkeypatch.setattr(acceptance, name, lambda seed, result=result: result)
        assert main(["validate", "--seed", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6
        for number, (line, name) in enumerate(zip(lines, names), start=1):
            status = "FAIL" if number == 4 else "PASS"
            assert re.fullmatch(
                rf"criterion {number} \({name}\): {status} \(\d+\.\d s\) - stub", line
            ), line


    def test_validate_over_a_seed_range_counts_passes(self, monkeypatch, capsys):
        """The six checks are stubbed: criterion 4 fails at seeds 2 and 5,
        so ``--seeds 1..6`` counts 4 of 6 there and exits 1."""
        for number in range(1, 7):
            name = f"check_{number}"

            def check(seed, number=number, name=name):
                return acceptance.CriterionResult(number, name, number != 4 or seed % 3 != 2, "stub")

            monkeypatch.setattr(acceptance, self.CHECKS[number - 1], check)
        assert main(["validate", "--seeds", "1..6"]) == 1
        lines = capsys.readouterr().out.splitlines()
        expected = [f"criterion {n}: 6/6" for n in range(1, 7)]
        expected[3] = "criterion 4: 4/6 (failed at 2, 5)"
        assert lines == expected
        assert main(["validate", "--seeds", "3..4"]) == 0
        assert capsys.readouterr().out.splitlines() == [f"criterion {n}: 2/2" for n in range(1, 7)]

    @pytest.mark.parametrize("seeds", ["5..1", "1-5", "a..b", "-1..2", "0..2"])
    def test_a_malformed_seed_range_exits_two(self, capsys, seeds):
        assert main(["validate", f"--seeds={seeds}"]) == 2
        assert "field 'seeds': expected A..B" in capsys.readouterr().err

    def test_seed_and_seeds_exclude_each_other(self, capsys):
        assert main(["validate", "--seed", "1", "--seeds", "1..2"]) == 2


def test_classical_recovery_catches_a_selection_rule_both_agents_share(monkeypatch):
    """Both agents select through ``select_policy``, so they agree even on a
    wrong rule; criterion 1 also replays the Bayes agent against greedy
    Bayes written out in the check, and that replay fails."""
    assert acceptance.check_classical_recovery(runs=1, steps=50).passed
    monkeypatch.setattr(
        "ibrl.harness.runner.select_policy", lambda state, grid: grid.policies[-1]
    )
    result = acceptance.check_classical_recovery(runs=1, steps=50)
    assert result.detail == "the Bayes agent leaves the greedy Bayes rule on 4 runs"


def _sweep_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment = newcomb\nepisodes = 20\n")
    return cfg

"""Tests for the experiment harness: config parsing, statistics, CSV
records, serialization, runners, and the command line."""

import re

import numpy as np
import pytest

from ibrl import (
    AMeasure,
    BernoulliArmsModel,
    ConfigError,
    DegenerateUpdateError,
    Infradistribution,
    NewcombModel,
    deterministic_grid,
    make_agent,
    mix_knightian,
    newcomb_expected_reward,
    policy_grid,
)
from ibrl.harness import (
    CSV_COLUMNS,
    DEFAULT_SEED,
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
    serialize_infradistribution,
)
from ibrl.harness import acceptance
from ibrl.harness.cli import main
from ibrl.harness.runner import _rollout


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
        with pytest.raises(ConfigError):
            config_from_mapping({"experiment": "newcomb", "seed": 0})
        with pytest.raises(ConfigError):
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


class TestSerialization:
    def test_flat_text_form_of_a_classical_belief(self):
        model = BernoulliArmsModel(2)
        belief = Infradistribution.singleton(
            AMeasure(1.0, model.point_measure([0.3, 0.7]), 0.0, model), model.initial_history()
        )
        expected = (
            "model.kind = 'BernoulliArmsModel'\n"
            "model.params.arm_count = 2\n"
            "history.pulls.len = 2\n"
            "history.pulls.0 = 0\n"
            "history.pulls.1 = 0\n"
            "history.successes.len = 2\n"
            "history.successes.0 = 0\n"
            "history.successes.1 = 0\n"
            "points = 1\n"
            "point.0.scale = 1.0\n"
            "point.0.offset = 0.0\n"
            "point.0.measure.arms.len = 2\n"
            "point.0.measure.arms.0.len = 1\n"
            "point.0.measure.arms.0.0.len = 2\n"
            "point.0.measure.arms.0.0.0 = 1.0\n"
            "point.0.measure.arms.0.0.1 = 0.3\n"
            "point.0.measure.arms.1.len = 1\n"
            "point.0.measure.arms.1.0.len = 2\n"
            "point.0.measure.arms.1.0.0 = 1.0\n"
            "point.0.measure.arms.1.0.1 = 0.7\n"
        )
        assert serialize_infradistribution(belief) == expected


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

    def test_degenerate_update_names_the_step(self):
        """Both points say the arm always pays; the failure at step 2
        refutes every point, and the error says where it happened."""
        model = BernoulliArmsModel(1)
        values = np.array([[0.0, 1.0]])
        sure = classical_belief(model, model.point_measure((1.0,)))
        state = make_agent(mix_knightian([sure, sure]), derive_stream(1), "ib_maximin", values)
        rewards = iter([1.0, 1.0, 0.0])

        def env_step(policy, action):
            reward = next(rewards)
            return reward, 0.0, 1.0 - reward

        cfg = ExperimentConfig("ku-bandit", seed=3)
        expected = r"^ku-bandit: agent 'ib', episode 4, step 2, world W: every point"
        with pytest.raises(DegenerateUpdateError, match=expected):
            _rollout(cfg, "ib", 4, state, deterministic_grid(1), env_step, 5, ", world W")

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

    def test_validate_prints_each_criterion_with_its_time(self, monkeypatch, capsys):
        """The six checks are stubbed, so this covers only the reporting."""
        names = [
            "check_classical_recovery",
            "check_conditioning_oracle",
            "check_ku_geometry",
            "check_newcomb_curve",
            "check_trap_bandit",
            "check_algebra_properties",
        ]
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


def _sweep_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("experiment = newcomb\nepisodes = 20\n")
    return cfg

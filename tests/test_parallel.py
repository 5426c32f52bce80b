"""Worker-count invariance and the throughput benchmark."""

import pytest

from cardtable.agents import RandomAgent, cfr_train
from cardtable.env import EnvConfig, make, serialize_trajectories
from cardtable.errors import InvalidParam, WorkerFailure
from cardtable.parallel import BenchReport, RolloutSpec, bench, build_agent, rollout_parallel


def spec_for(game_id, n_games, n_workers, seed=5):
    config = EnvConfig(game_id=game_id, seed=seed)
    return RolloutSpec(
        env_config=config,
        agents=("random",) * config.num_players,
        n_games=n_games,
        n_workers=n_workers,
    )


class TestRollout:
    def test_matches_sequential_env_runs(self):
        config = EnvConfig("leduc", seed=5)
        env = make(config)
        env.set_agents([RandomAgent(), RandomAgent()])
        want_payoffs = []
        want_logs = []
        for i in range(30):
            trajectories, payoffs = env.run()
            want_payoffs.append(tuple(payoffs))
            want_logs.append(serialize_trajectories("leduc", 5, i, trajectories, payoffs))

        result = rollout_parallel(spec_for("leduc", 30, 1), collect_logs=True)
        assert list(result.per_game_payoffs) == want_payoffs
        assert list(result.logs) == want_logs
        assert result.total_steps == env.timesteps

    def test_worker_count_invariance(self):
        solo = rollout_parallel(spec_for("doudizhu", 24, 1), collect_logs=True)
        quad = rollout_parallel(spec_for("doudizhu", 24, 4), collect_logs=True)
        assert solo.per_game_payoffs == quad.per_game_payoffs
        assert solo.logs == quad.logs
        assert solo.total_steps == quad.total_steps
        assert solo.mean_payoffs == quad.mean_payoffs

    @pytest.mark.parametrize("game_id", ["leduc", "uno"])
    def test_workers_across_seed_blocks_match_one(self, game_id):
        # 131 games span three 64-game fan-out blocks, each worker seeking into all of them
        solo = rollout_parallel(spec_for(game_id, 131, 1), collect_logs=True)
        duo = rollout_parallel(spec_for(game_id, 131, 2), collect_logs=True)
        assert solo == duo

    def test_more_workers_than_games(self):
        few = rollout_parallel(spec_for("blackjack", 3, 8))
        one = rollout_parallel(spec_for("blackjack", 3, 1))
        assert few.per_game_payoffs == one.per_game_payoffs

    def test_zero_games(self):
        result = rollout_parallel(spec_for("uno", 0, 4), collect_logs=True)
        assert result.per_game_payoffs == ()
        assert result.mean_payoffs == (0.0, 0.0)
        assert result.total_steps == 0
        assert result.logs == ()

    def test_mean_is_per_game_average(self):
        result = rollout_parallel(spec_for("leduc", 40, 2))
        for s in range(2):
            total = sum(p[s] for p in result.per_game_payoffs)
            assert result.mean_payoffs[s] == pytest.approx(total / 40)

    def test_logs_none_when_not_collected(self):
        assert rollout_parallel(spec_for("leduc", 4, 2)).logs is None

    def test_validation(self):
        with pytest.raises(InvalidParam):
            rollout_parallel(spec_for("leduc", 10, 0))
        with pytest.raises(InvalidParam):
            rollout_parallel(spec_for("leduc", -1, 1))
        config = EnvConfig("leduc", seed=1)
        with pytest.raises(InvalidParam):
            rollout_parallel(RolloutSpec(config, ("random",), 5, 1))

    def test_bad_param_value_fails_before_any_game(self):
        config = EnvConfig("uno", seed=1, game_params={"hand_size": "abc"})
        for workers in (1, 2):
            with pytest.raises(InvalidParam, match=r"^hand_size must be an integer in 1\.\.12, got 'abc'$"):
                rollout_parallel(RolloutSpec(config, ("random", "random"), 3, workers))

    def test_setup_failure_carries_game_index(self):
        config = EnvConfig("leduc", seed=1)
        bad = RolloutSpec(config, ("random", "/nonexistent/policy.tsv"), 5, 1)
        with pytest.raises(WorkerFailure) as info:
            rollout_parallel(bad)
        assert info.value.game_index == 0
        assert "FileNotFoundError" in str(info.value)

    @staticmethod
    def leduc_policy_playing(path, action_id):
        """A policy file that plays action_id at every seat-0 info set of leduc."""
        from cardtable.agents import PolicyTable
        from cardtable.trees import LeducTree

        tree = LeducTree()
        table = PolicyTable()
        stack = [tree.root()]
        while stack:
            node = stack.pop()
            if tree.is_terminal(node):
                continue
            if tree.is_chance(node):
                stack.extend(child for child, _ in tree.chance_outcomes(node))
                continue
            if tree.player(node) == 0:
                table.set(tree.info_key(node), (action_id,), (1.0,))
            stack.extend(tree.child(node, a) for a in tree.actions(node))
        table.save(path)
        return str(path)

    def test_mid_game_failure_carries_game_index(self, tmp_path):
        # a policy whose ids are all in range but that calls (0) with nothing bet
        path = self.leduc_policy_playing(tmp_path / "poisoned.tsv", 0)
        config = EnvConfig("leduc", seed=1)
        for workers in (1, 2):
            bad = RolloutSpec(config, (path, "random"), 6, workers)
            with pytest.raises(WorkerFailure) as info:
                rollout_parallel(bad)
            assert info.value.game_index == 0
            assert "IllegalAction" in str(info.value)

    def test_out_of_range_policy_id_fails_before_any_worker(self, tmp_path):
        from cardtable.errors import InvalidPolicy

        path = self.leduc_policy_playing(tmp_path / "out_of_range.tsv", 9)
        config = EnvConfig("leduc", seed=1)
        for workers in (1, 2):
            bad = RolloutSpec(config, (path, "random"), 6, workers)
            with pytest.raises(InvalidPolicy, match=r"line \d+: '.+' holds action id 9, outside 0\.\.3"):
                rollout_parallel(bad)


class TestBuildAgent:
    def test_random_descriptor(self):
        assert isinstance(build_agent("random"), RandomAgent)

    def test_game_id_checks_action_ids_at_load(self, tmp_path):
        from cardtable.agents import PolicyTable
        from cardtable.errors import InvalidPolicy

        path = tmp_path / "p.tsv"
        table = PolicyTable()
        table.set("B|12h|n2|u10", (0, 2), (1.0, 1.0))
        table.save(path)
        with pytest.raises(InvalidPolicy, match=r"'B\|12h\|n2\|u10' holds action id 2, outside 0..1"):
            build_agent(str(path), "blackjack")
        assert len(build_agent(str(path), "leduc").table) == 1
        assert len(build_agent(str(path)).table) == 1  # no game: loaded as before

    def test_policy_path_descriptor(self, tmp_path):
        path = tmp_path / "p.tsv"
        cfr_train("leduc", 5).save(path)
        agent = build_agent(str(path))
        assert len(agent.table) == 288


class TestBench:
    def test_report_accounting(self):
        report = bench("uno", n_games=10, n_workers=1, repeats=2, seed=3)
        assert report.games == 20
        assert report.steps > 0
        assert report.total_s > 0
        assert report.per_step_s == pytest.approx(report.total_s / report.steps)
        assert report.repeats == 2

    def test_csv_shape(self):
        report = bench("blackjack", n_games=5, n_workers=1, repeats=1, seed=0)
        assert BenchReport.csv_header() == "game,n_workers,games,steps,total_s,per_step_s"
        fields = report.csv_row().split(",")
        assert fields[0] == "blackjack"
        assert fields[1] == "1"
        assert fields[2] == "5"
        assert int(fields[3]) == report.steps

    def test_step_counts_are_seeded(self):
        a = bench("leduc", n_games=20, n_workers=1, repeats=2, seed=9)
        b = bench("leduc", n_games=20, n_workers=1, repeats=2, seed=9)
        assert a.steps == b.steps  # timing differs, work does not

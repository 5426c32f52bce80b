"""Env wrapper: seeding, run/tree/single-agent modes, serialization."""

import gc
import pickle
import weakref
from dataclasses import replace
from operator import itemgetter

import pytest

from cardtable.agents import RandomAgent
from cardtable.core.rng import Rng, split_seed
from cardtable.env import (
    GAME_IDS,
    EnvConfig,
    Observation,
    make,
    make_single_agent,
    serialize_trajectories,
    state_hash,
)
from cardtable.errors import (
    AgentsNotSet,
    GameOver,
    IllegalAction,
    InvalidParam,
    NotSingleAgentMode,
    UnknownGame,
)


def run_games(config, n):
    env = make(config)
    env.set_agents([RandomAgent() for _ in range(env.num_players)])
    out = []
    for _ in range(n):
        trajectories, payoffs = env.run()
        out.append((trajectories, payoffs, env.game_index))
    return env, out


class TestConfig:
    def test_game_ids(self):
        assert GAME_IDS == ("blackjack", "leduc", "limit_holdem", "uno", "doudizhu", "mini_doudizhu")
        for gid in GAME_IDS:
            env = make(EnvConfig(gid, seed=1))
            assert env.num_actions > 0

    def test_unknown_game(self):
        with pytest.raises(UnknownGame):
            make(EnvConfig("bridge"))

    def test_options_are_checked_when_the_config_is_built(self):
        with pytest.raises(UnknownGame):
            EnvConfig("bridge")
        with pytest.raises(InvalidParam, match="bridge"):  # UnknownGame is an InvalidParam
            EnvConfig("bridge")
        with pytest.raises(InvalidParam, match="num_players"):
            EnvConfig("leduc", num_players="abc")
        with pytest.raises(InvalidParam, match="bogus"):
            EnvConfig("leduc", game_params={"bogus": 1})
        with pytest.raises(InvalidParam, match="num_players"):
            replace(EnvConfig("uno"), num_players=9)

    @pytest.mark.parametrize("seed", [1.5, "7", None, True])
    def test_seed_is_checked_when_the_config_is_built(self, seed):
        with pytest.raises(InvalidParam, match=r"^seed must be an integer, got "):
            EnvConfig("leduc", seed=seed)

    def test_num_players_resolves_to_the_game_default(self):
        assert EnvConfig("uno").num_players == 2
        assert EnvConfig("doudizhu").num_players == 3
        assert EnvConfig("uno", num_players=4).num_players == 4
        config = EnvConfig("limit_holdem", seed=3, game_params={"fixed_raise": 2})
        assert pickle.loads(pickle.dumps(config)) == config

    def test_player_range_enforced(self):
        with pytest.raises(InvalidParam):
            make(EnvConfig("leduc", num_players=3))
        with pytest.raises(InvalidParam):
            make(EnvConfig("uno", num_players=5))
        assert make(EnvConfig("uno", num_players=4)).num_players == 4
        assert make(EnvConfig("uno")).num_players == 2

    def test_unknown_game_param(self):
        with pytest.raises(InvalidParam):
            make(EnvConfig("leduc", game_params={"hand_size": 3}))
        with pytest.raises(InvalidParam):
            make(EnvConfig("uno", game_params={"fixed_raise": 2}))

    @pytest.mark.parametrize(
        "game_id, params",
        [
            ("uno", {"hand_size": 7.5}),  # `--param hand_size=7.5` coerces to a float
            ("uno", {"hand_size": "x"}),
            ("uno", {"hand_size": True}),
            ("limit_holdem", {"fixed_raise": True}),
            ("doudizhu", {"landlord": True}),
            ("mini_doudizhu", {"landlord": 1.0}),
        ],
        ids=lambda v: "-".join(f"{k}={x!r}" for k, x in v.items()) if isinstance(v, dict) else v,
    )
    def test_wrongly_typed_game_param_fails_at_make(self, game_id, params):
        (name,) = params
        with pytest.raises(InvalidParam, match=name):
            make(EnvConfig(game_id, game_params=params))

    @pytest.mark.parametrize("game_id, n", [("blackjack", True), ("leduc", 2.0), ("limit_holdem", 2.5)])
    def test_wrongly_typed_player_count_fails_at_make(self, game_id, n):
        with pytest.raises(InvalidParam, match="players"):
            make(EnvConfig(game_id, num_players=n))

    def test_game_params_reach_engine(self):
        env = make(EnvConfig("uno", game_params={"hand_size": 3}))
        env.new_game()
        assert [sum(h) for h in env.game.hands] == [3, 3]
        env = make(EnvConfig("limit_holdem", game_params={"fixed_raise": 3}))
        assert env.game.fixed_raise == 3


class TestRunMode:
    def test_needs_agents(self):
        env = make(EnvConfig("leduc"))
        with pytest.raises(AgentsNotSet):
            env.run()
        with pytest.raises(AgentsNotSet):
            env.set_agents([RandomAgent()])

    def test_trajectories_chain(self):
        for gid in ("leduc", "uno", "doudizhu", "blackjack"):
            _, games = run_games(EnvConfig(gid, seed=11), 8)
            for trajectories, payoffs, _ in games:
                for seat, steps in enumerate(trajectories):
                    for i, t in enumerate(steps):
                        assert t.state.player_id == seat
                        assert t.action in t.state.legal_action_ids
                        last = i == len(steps) - 1
                        assert t.done is last
                        assert t.reward == (payoffs[seat] if last else 0.0)
                        if not last:
                            assert t.next_state == steps[i + 1].state
                    if steps:
                        assert not steps[-1].next_state.legal_action_ids

    def test_same_seed_same_games(self):
        _, first = run_games(EnvConfig("doudizhu", seed=40), 5)
        _, second = run_games(EnvConfig("doudizhu", seed=40), 5)
        for (ta, pa, _), (tb, pb, _) in zip(first, second):
            assert pa == pb
            assert ta == tb

    def test_games_differ_across_indices(self):
        _, games = run_games(EnvConfig("leduc", seed=2), 6)
        keys = {g[0][0][0].state.info_key for g in games}
        assert len(keys) > 1

    def test_seek_jumps_the_seed_sequence(self):
        _, games = run_games(EnvConfig("uno", seed=9), 4)
        env = make(EnvConfig("uno", seed=9))
        env.set_agents([RandomAgent(), RandomAgent()])
        env.seek(3)
        trajectories, payoffs = env.run()
        assert env.game_index == 3
        assert payoffs == games[3][1]
        assert trajectories == games[3][0]
        with pytest.raises(InvalidParam):
            env.seek(-1)

    @pytest.mark.parametrize("index", [2.5, True, "1"])
    def test_seek_refuses_an_index_that_is_not_an_int(self, index):
        """seek checks the index itself, so a float or bool fails there, not inside the next run()."""
        env = make(EnvConfig("uno", seed=9))
        with pytest.raises(InvalidParam, match="^game_index must be an integer"):
            env.seek(index)
        assert env.game_index == -1

    def test_seek_across_block_edges_matches_a_fresh_env(self):
        for config in (EnvConfig("leduc", seed=13), EnvConfig("limit_holdem", seed=-4, num_players=3)):
            _, games = run_games(config, 131)
            env = make(config)
            env.set_agents([RandomAgent() for _ in range(env.num_players)])
            for index in (63, 64, 130, 0, 65):
                env.seek(index)
                trajectories, payoffs = env.run()
                assert (trajectories, payoffs, env.game_index) == games[index]

    def test_a_dropped_env_is_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            env = make(EnvConfig("leduc", seed=1))
            env.set_agents([RandomAgent(), RandomAgent()])
            env.run()
            dropped = weakref.ref(env)
            del env
            assert dropped() is None
        finally:
            gc.enable()

    def test_timesteps_count_decisions(self):
        env, games = run_games(EnvConfig("leduc", seed=5), 3)
        want = sum(len(t) for g in games for t in g[0])
        assert env.timesteps == want


class TestTreeMode:
    def test_walk_and_undo(self):
        rng = Rng(8)
        config = EnvConfig("doudizhu", seed=3)
        env = make(config)
        obs, seat = env.new_game()
        trace = [(obs, seat)]
        actions = []
        for _ in range(12):
            action = rng.choice(obs.legal_action_ids)
            actions.append(action)
            obs, seat = env.step(action)
            trace.append((obs, seat))
        for _ in range(12):
            assert env.step_back()
        assert not env.step_back()
        # replay gives the same observations back
        obs, seat = env.extract_state(env.current_player()), env.current_player()
        assert (obs, seat) == trace[0]
        for i, action in enumerate(actions):
            obs, seat = env.step(action)
            assert (obs, seat) == trace[i + 1]

    def test_rejected_step_and_new_deal_leave_nothing_to_undo(self):
        env = make(EnvConfig("uno", seed=4))
        obs, _ = env.new_game()
        start = env.game.snapshot()
        with pytest.raises(IllegalAction):
            env.step(999)
        assert not env.step_back()
        env.step(obs.legal_action_ids[0])
        with pytest.raises(IllegalAction):
            env.step(999)
        assert env.step_back()  # undoes the legal step, the one the stack holds
        assert env.game.snapshot() == start
        assert not env.step_back()
        env.step(obs.legal_action_ids[0])
        env.new_game()
        assert not env.step_back()

    def test_undo_needs_no_switch(self):
        env = make(EnvConfig("uno", seed=4))
        obs, _ = env.new_game()
        before = env.game.snapshot()
        env.step(obs.legal_action_ids[0])
        assert env.game.snapshot() != before
        assert env.step_back()
        assert env.game.snapshot() == before
        assert not env.step_back()

    def test_terminal_obs_and_payoffs(self):
        env = make(EnvConfig("leduc", seed=1))
        obs, seat = env.new_game()
        rng = Rng(0)
        while not env.is_over():
            obs, seat = env.step(rng.choice(obs.legal_action_ids))
        assert not obs.legal_action_ids
        payoffs = env.get_payoffs()
        assert sum(payoffs) == 0.0
        with pytest.raises(GameOver):
            env.step(0)

    def test_illegal_action_rejected(self):
        env = make(EnvConfig("leduc", seed=1))
        obs, _ = env.new_game()
        bad = next(a for a in range(env.num_actions) if a not in obs.legal_action_ids)
        with pytest.raises(IllegalAction):
            env.step(bad)


class TestSingleAgentMode:
    def test_mode_guard(self):
        env = make(EnvConfig("leduc"))
        with pytest.raises(NotSingleAgentMode):
            env.reset()
        with pytest.raises(NotSingleAgentMode):
            env.sa_step(0)
        with pytest.raises(NotSingleAgentMode):
            env.learner_rng

    def test_opponent_count_checked(self):
        with pytest.raises(AgentsNotSet):
            make_single_agent(EnvConfig("doudizhu"), [RandomAgent()])
        with pytest.raises(InvalidParam):
            make_single_agent(EnvConfig("leduc"), [RandomAgent()], learner_seat=2)

    @pytest.mark.parametrize("seat", [1.0, "1", True], ids=["float", "str", "bool"])
    def test_learner_seat_must_be_an_int(self, seat):
        with pytest.raises(InvalidParam, match="learner_seat"):
            make_single_agent(EnvConfig("leduc"), [RandomAgent()], learner_seat=seat)

    def test_matches_run_mode_payoffs(self):
        # the same seats, streams, and uniform play in both modes
        config = EnvConfig("leduc", seed=77)
        _, games = run_games(config, 20)
        want = [payoffs[0] for _, payoffs, _ in games]

        env = make_single_agent(config, [RandomAgent()], learner_seat=0)
        got = []
        for _ in range(20):
            obs = env.reset()
            done = False
            while not done:
                action = env.learner_rng.choice(obs.legal_action_ids)
                obs, reward, done = env.sa_step(action)
            got.append(reward)
        assert got == want

    def test_rewards_zero_until_done(self):
        env = make_single_agent(EnvConfig("blackjack", seed=5), [])
        for _ in range(30):
            obs = env.reset()
            done = False
            while not done:
                obs, reward, done = env.sa_step(env.learner_rng.choice(obs.legal_action_ids))
                if not done:
                    assert reward == 0.0
            assert reward in (-1.0, 0.0, 1.0)


RAW_KEY = (itemgetter(0), itemgetter(1))  # render_raw, render_key of a (raw, key) view


class TestObservation:
    def test_equality_ignores_planes(self):
        a = Observation(0, (1, 2), ({"x": 1}, "k"), (*RAW_KEY, lambda raw: [1]))
        b = Observation(0, (1, 2), ({"x": 1}, "k"), (*RAW_KEY, lambda raw: [2]))
        assert a == b
        assert hash(a) == hash(b)
        assert a.planes == [1] and b.planes == [2]

    def test_inequality(self):
        a = Observation(0, (1, 2), ({}, "k"), (*RAW_KEY, lambda raw: None))
        assert a != Observation(1, (1, 2), ({}, "k"), (*RAW_KEY, lambda raw: None))
        assert a != Observation(0, (1,), ({}, "k"), (*RAW_KEY, lambda raw: None))
        assert (a == object()) is False

    def test_hooks_replaceable(self):
        env = make(EnvConfig("leduc", seed=3))
        base_extract = env.extract_state

        def tagged(seat):
            obs = base_extract(seat)
            obs.raw["tag"] = True
            return obs

        env.extract_state = tagged
        env.set_agents([RandomAgent(), RandomAgent()])
        trajectories, _ = env.run()
        assert all(t.state.raw["tag"] for traj in trajectories for t in traj)


class TestSerialization:
    def test_layout(self):
        config = EnvConfig("leduc", seed=6)
        env = make(config)
        env.set_agents([RandomAgent(), RandomAgent()])
        trajectories, payoffs = env.run()
        text = serialize_trajectories("leduc", 6, 0, trajectories, payoffs)
        lines = text.splitlines()
        assert text.endswith("\n")
        assert lines[0].startswith("# game=leduc seed=6 index=0 payoffs=")
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 9
            assert fields[0] == "leduc"
            assert len(fields[5]) == 16

    def test_byte_stable(self):
        blocks = []
        for _ in range(2):
            env = make(EnvConfig("uno", seed=12))
            env.set_agents([RandomAgent(), RandomAgent()])
            trajectories, payoffs = env.run()
            blocks.append(serialize_trajectories("uno", 12, 0, trajectories, payoffs))
        assert blocks[0] == blocks[1]

    def test_state_hash_frozen(self):
        assert state_hash("x") == "2d711642b726b044"
        assert len(state_hash("anything")) == 16


class TestSeeding:
    def test_deal_stream_is_game_seed_stream_zero(self):
        config = EnvConfig("leduc", seed=31)
        env = make(config)
        obs, _ = env.new_game()
        game_seed = split_seed(31, 0)
        twin = make(EnvConfig("leduc", seed=split_seed(game_seed, 0)))
        # the twin's construction rng is replaced on new_game, so drive
        # the engine directly with the derived stream instead
        twin.game.rng = Rng(split_seed(game_seed, 0))
        twin.game.reset()
        assert twin.game.hands[0] == env.game.hands[0]
        assert twin.game.hands[1] == env.game.hands[1]

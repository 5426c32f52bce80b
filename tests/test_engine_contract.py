"""Engine boundaries on every game id: illegal ids, full-state undo,
payoffs only at the end, and deals that always ask for a decision."""

import copy
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardtable.agents import Agent, RandomAgent
from cardtable.core.rng import Rng
from cardtable.env import GAME_IDS, REGISTRY, EnvConfig, make, make_single_agent, serialize_trajectories
from cardtable.errors import GameNotOver, GameOver, IllegalAction, IllegalMove, InvalidParam
from cardtable.games import blackjack, doudizhu, leduc, limit_holdem, uno

ENGINES = (blackjack.BlackjackGame, leduc.LeducGame, limit_holdem.LimitHoldemGame, uno.UnoGame, doudizhu.DoudizhuGame)


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_out_of_range_ids_are_illegal_moves(game_id):
    env = make(EnvConfig(game_id, seed=2))
    env.new_game()
    before = env.game.snapshot()
    for bad in (env.num_actions, 999):
        with pytest.raises(IllegalMove, match=str(bad)):
            env.game.step(bad)
    assert env.game.snapshot() == before


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_rejected_move_leaves_nothing_to_undo(game_id):
    env = make(EnvConfig(game_id, seed=2))
    env.new_game()
    with pytest.raises(IllegalAction):
        env.step(999)
    assert not env.step_back()


def some_illegal_id(num_actions, legal):
    return next(a for a in range(num_actions + 1) if a not in legal)


def frozen(env):
    return env.game.snapshot(), env.timesteps


class IllegalAgent(Agent):
    """Chooses an id outside the legal set, noting the state it was asked in."""

    def __init__(self):
        self.env = None
        self.asked_at = None

    def eval_step(self, obs, rng):
        self.asked_at = frozen(self.env)
        return some_illegal_id(self.env.num_actions, obs.legal_action_ids)


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_env_reports_illegal_ids_as_illegal_actions(game_id):
    """run, step and sa_step name the chooser and leave the game and the count alone."""
    env = make(EnvConfig(game_id, seed=5))
    agent = IllegalAgent()
    agent.env = env
    env.set_agents([agent] * env.num_players)
    with pytest.raises(IllegalAction, match="agent at seat"):
        env.run()
    assert frozen(env) == agent.asked_at

    obs, _ = env.new_game()
    before = frozen(env)
    with pytest.raises(IllegalAction, match="player at seat"):
        env.step(some_illegal_id(env.num_actions, obs.legal_action_ids))
    assert frozen(env) == before

    others = [RandomAgent()] * (env.num_players - 1)
    env = make_single_agent(EnvConfig(game_id, seed=5), others)
    obs = env.reset()
    before = frozen(env)
    with pytest.raises(IllegalAction, match="learner at seat 0"):
        env.sa_step(some_illegal_id(env.num_actions, obs.legal_action_ids))
    assert frozen(env) == before


class CastAgent(Agent):
    """Plays cast(a) for the first legal id a with cast(a) == a (for bool only 0
    and 1 qualify), else the first legal id as an int. Notes the state it was asked in."""

    def __init__(self, env, cast):
        self.env = env
        self.cast = cast
        self.asked_at = None

    def eval_step(self, obs, rng):
        self.asked_at = frozen(self.env)
        return next((self.cast(a) for a in obs.legal_action_ids if self.cast(a) == a), obs.legal_action_ids[0])


@pytest.mark.parametrize("cast", [float, np.float64, bool])
@pytest.mark.parametrize("game_id", GAME_IDS)
def test_non_integer_ids_are_illegal_actions(game_id, cast):
    """A float or a bool equal to a legal id is still no action id: IllegalAction, nothing played."""
    env = make(EnvConfig(game_id, seed=5))
    agent = CastAgent(env, cast)
    env.set_agents([agent] * env.num_players)
    with pytest.raises(IllegalAction, match="agent at seat"):
        for _ in range(20):
            env.run()
    assert frozen(env) == agent.asked_at


class Int64Agent(RandomAgent):
    def eval_step(self, obs, rng):
        return np.int64(super().eval_step(obs, rng))


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_numpy_int_ids_play_and_log_as_ints(game_id):
    logs = []
    for agent in (RandomAgent(), Int64Agent()):
        env = make(EnvConfig(game_id, seed=8))
        env.set_agents([agent] * env.num_players)
        logs.append("".join(serialize_trajectories(game_id, 8, i, *env.run()) for i in range(10)))
    assert logs[0] == logs[1]


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_numpy_int_agents_leave_int_actions_in_their_transitions(game_id):
    """Transition.action is the int the engine played, whatever integer type the agent returned."""
    env = make(EnvConfig(game_id, seed=8))
    env.set_agents([Int64Agent()] * env.num_players)
    for _ in range(5):
        trajectories, _ = env.run()
        assert all(type(t.action) is int for transitions in trajectories for t in transitions)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
def test_an_engine_checks_its_seat_count_against_its_seats(engine):
    """No seat count means the fewest; one outside SEATS is InvalidParam naming num_players."""
    lo, hi = engine.SEATS
    assert engine(Rng(0)).num_players == lo
    assert engine(Rng(0), hi).num_players == hi
    for n in (lo - 1, hi + 1):
        with pytest.raises(InvalidParam, match="num_players"):
            engine(Rng(0), n)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda engine: engine.__name__)
def test_params_are_the_constructor_keywords_after_the_seat_count(engine):
    """PARAMS plus the registry's fixed arguments are every constructor keyword after (rng, num_players)."""
    names = list(inspect.signature(engine).parameters)
    fixed = {key for spec in REGISTRY.values() if spec.engine is engine for key in spec.fixed}
    assert names[:2] == ["rng", "num_players"]
    assert set(names[2:]) == set(engine.PARAMS) | fixed
    assert not fixed & set(engine.PARAMS)


@pytest.mark.parametrize("game_id", [g for g in GAME_IDS if REGISTRY[g].player_range[0] > 1])
def test_single_agent_opponents_choosing_illegal_ids(game_id):
    """Blackjack has no opponent seat, so it is not listed."""
    agent = IllegalAgent()
    players = REGISTRY[game_id].player_range[0]
    env = make_single_agent(EnvConfig(game_id, seed=5), [agent] * (players - 1), learner_seat=players - 1)
    agent.env = env
    with pytest.raises(IllegalAction, match="opponent at seat"):
        obs = env.reset()  # the opponents move first unless the learner opens
        env.sa_step(obs.legal_action_ids[0])
    assert frozen(env) == agent.asked_at


def full_state(game):
    """A deep copy of every engine field except the move cache, plus the generator state."""
    fields = {k: v for k, v in vars(game).items() if k not in ("_legal", "rng")}
    return copy.deepcopy(fields), game.rng.getstate()


@pytest.mark.parametrize("game_id", GAME_IDS)
@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    players=st.integers(0, 8),
    choices=st.lists(st.integers(0, 400), max_size=80),
)
def test_step_back_restores_every_field(game_id, seed, players, choices):
    """Walk forward, then undo each step: every field comes back, not only what snapshot() holds."""
    lo, hi = REGISTRY[game_id].player_range
    env = make(EnvConfig(game_id, seed=seed, num_players=lo + players % (hi - lo + 1)))
    env.new_game()
    game = env.game
    states = []
    for choice in choices:
        if game.is_over():
            break
        states.append(full_state(game))
        legal = game.legal_moves()
        env.step(legal[choice % len(legal)])
    while states:
        assert env.step_back()
        assert full_state(game) == states.pop()
    assert not env.step_back()


@pytest.mark.parametrize("game_id", GAME_IDS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), players=st.integers(0, 8))
def test_restore_puts_back_every_field(game_id, seed, players):
    """At every state of a random game, step one to three moves and restore: every field comes back.

    Comparing snapshot() with snapshot() cannot see a field the snapshot leaves out; this can.
    """
    lo, hi = REGISTRY[game_id].player_range
    env = make(EnvConfig(game_id, seed=seed, num_players=lo + players % (hi - lo + 1)))
    env.new_game()
    game = env.game
    rng = Rng(seed)
    while not game.is_over():
        snap, before = game.snapshot(), full_state(game)
        for _ in range(rng.choice((1, 2, 3))):
            if game.is_over():
                break
            game.step(rng.choice(game.legal_moves()))
        game.restore(snap)
        assert full_state(game) == before
        game.step(rng.choice(game.legal_moves()))


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_restore_drops_the_cached_legal_moves(game_id):
    """restore called directly, not through step_back, reads the restored state's moves.

    Walking back, each restore replaces a state whose moves are cached, so
    a stale cache shows wherever two neighbouring states differ in moves.
    Blackjack's moves never change; every other walk must see two move sets.
    """
    env = make(EnvConfig(game_id, seed=2))
    env.new_game()
    game = env.game
    rng = Rng(2)
    seen = []
    while not game.is_over():
        seen.append((game.snapshot(), game.legal_moves()))
        game.step(rng.choice(game.legal_moves()))
    assert game_id == "blackjack" or len({moves for _, moves in seen}) > 1
    for snap, moves in reversed(seen):
        game.restore(snap)
        assert game.legal_moves() == moves


def check_final_payoffs(game_id, payoffs, landlord):
    if game_id == "blackjack":
        assert payoffs in ([-1.0], [0.0], [1.0])
    elif game_id in ("leduc", "limit_holdem"):
        assert sum(payoffs) == 0.0
    elif game_id == "uno":  # the first empty hand scores 1, everyone else 0
        assert sorted(payoffs) == [0.0] * (len(payoffs) - 1) + [1.0]
    else:  # dou dizhu pays win indicators: the landlord alone, or both peasants
        peasants = [p for seat, p in enumerate(payoffs) if seat != landlord]
        assert peasants in ([0.0, 0.0], [1.0, 1.0])
        assert payoffs[landlord] == 1.0 - peasants[0]


@pytest.mark.parametrize("game_id", GAME_IDS)
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), players=st.integers(0, 8))
def test_payoffs_only_at_the_end(game_id, seed, players):
    """Random games: payoffs raise GameNotOver at every state before the end."""
    lo, hi = REGISTRY[game_id].player_range
    env = make(EnvConfig(game_id, seed=seed, num_players=lo + players % (hi - lo + 1)))
    env.new_game()
    game = env.game
    rng = Rng(seed)
    while not game.is_over():
        with pytest.raises(GameNotOver):
            game.payoffs()
        with pytest.raises(GameNotOver):
            env.get_payoffs()
        env.step(rng.choice(game.legal_moves()))
    payoffs = env.get_payoffs()
    assert payoffs == game.payoffs()
    assert len(payoffs) == env.num_players
    check_final_payoffs(game_id, payoffs, getattr(game, "landlord", None))


@pytest.mark.parametrize("players", ["fewest", "most"])
@pytest.mark.parametrize("game_id", GAME_IDS)
def test_every_deal_asks_for_a_decision(game_id, players):
    """The Env follows the seat reset returns without asking is_over(): no deal may end a game."""
    lo, hi = REGISTRY[game_id].player_range
    env = make(EnvConfig(game_id, seed=11, num_players=lo if players == "fewest" else hi))
    for _ in range(300):
        _, seat = env.new_game()
        assert type(seat) is int
        assert seat == env.game.current_player()
        assert not env.game.is_over()


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_the_engine_seats_as_many_players_as_the_config(game_id):
    for n in REGISTRY[game_id].player_range:
        config = EnvConfig(game_id, num_players=n)
        assert make(config).game.num_players == config.num_players


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_the_engine_raises_what_the_env_no_longer_checks(game_id):
    env = make(EnvConfig(game_id, seed=4))
    obs, _ = env.new_game()
    with pytest.raises(GameNotOver):
        env.get_payoffs()
    rng = Rng(4)
    while obs.legal_action_ids:
        obs, _ = env.step(rng.choice(obs.legal_action_ids))
    assert env.is_over()
    with pytest.raises(GameOver):
        env.step(0)
    assert env.step_back()  # undoes the last legal move: the refused step pushed no snapshot
    assert not env.is_over()


def test_a_running_blackjack_hand_shows_one_dealer_card():
    """Every view of a running hand, lazy or eager, hides the hole card; the ended hand shows it."""
    env = make(EnvConfig("blackjack", seed=3))
    rng = Rng(3)
    for _ in range(200):
        obs, seat = env.new_game()
        while obs.legal_action_ids:
            game = env.game
            raw, _, key = blackjack.observe(game, seat)
            _, view = blackjack.capture(game, seat)
            assert len(obs.raw["dealer_cards"]) == len(raw["dealer_cards"]) == len(view[4]) == 1
            assert obs.info_key == key
            obs, seat = env.step(rng.choice(obs.legal_action_ids))
        assert len(obs.raw["dealer_cards"]) >= 2

"""Lazily rendered observations and the per-state legal-move cache, on every game id."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardtable.core.rng import Rng
from cardtable.env import GAME_IDS, EnvConfig, make
from cardtable.errors import IllegalAction, IllegalMove


def tree_env(game_id, seed=3):
    env = make(EnvConfig(game_id, seed=seed))
    env.new_game()
    return env


def eager(env, seat):
    return env.spec.module.observe(env.game, seat)


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_non_acting_seats_have_no_legal_ids(game_id):
    env = tree_env(game_id, seed=8)
    rng = Rng(8)
    while not env.is_over():
        acting = env.current_player()
        for seat in range(env.num_players):
            _, legal, _ = eager(env, seat)
            want = tuple(env.game.legal_moves()) if seat == acting else ()
            assert legal == want
            assert env.extract_state(seat).legal_action_ids == want
        env.step(rng.choice(env.game.legal_moves()))


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_views_are_those_at_capture_time(game_id):
    env = tree_env(game_id, seed=5)
    rng = Rng(5)
    taken = []  # (lazy observation, eager observe at the same moment)
    for step in range(40):
        if env.is_over() or step % 5 == 4:
            env.step_back()
            continue
        seat = env.current_player()
        taken.append((env.extract_state(seat), eager(env, seat)))
        env.step(rng.choice(env.game.legal_moves()))
    assert len(taken) >= 5
    for obs, (raw, legal, key) in taken:  # read only now, after the game moved on
        assert obs.info_key == key
        assert obs.raw == raw
        assert repr(obs.raw) == repr(raw)
        assert obs.legal_action_ids == legal


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_observation_survives_pickle_and_deepcopy(game_id):
    env = tree_env(game_id)
    obs = env.extract_state(env.current_player())
    raw, legal, key = eager(env, env.current_player())
    for twin in (pickle.loads(pickle.dumps(obs)), copy.deepcopy(obs)):
        assert twin == obs
        assert (twin.raw, twin.legal_action_ids, twin.info_key) == (raw, legal, key)
        assert twin.planes.tobytes() == obs.planes.tobytes()
    rendered = pickle.loads(pickle.dumps(obs))  # after obs rendered every view
    assert rendered == obs and rendered.planes.tobytes() == obs.planes.tobytes()


def test_raw_renders_once():
    env = tree_env("uno")
    obs = env.extract_state(env.current_player())
    assert obs.raw is obs.raw
    assert obs.info_key is obs.info_key


@pytest.mark.parametrize("game_id", GAME_IDS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), walk=st.lists(st.integers(0, 7), min_size=1, max_size=60))
def test_cached_legal_moves_match_the_engine(game_id, seed, walk):
    """Random step/step_back walks: the cached list always equals a fresh computation."""
    env = make(EnvConfig(game_id, seed=seed))
    env.new_game()
    game = env.game
    for choice in walk:
        if not game.is_over():
            assert game.legal_moves() == game._legal_moves()
            assert game.legal_moves() is game.legal_moves()
        if choice == 0 or game.is_over():
            env.step_back()
        else:
            legal = game.legal_moves()
            env.step(legal[choice % len(legal)])


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_illegal_ids_are_rejected(game_id):
    env = tree_env(game_id)
    legal = env.game.legal_moves()
    illegal = next(a for a in range(env.num_actions + 1) if a not in legal)
    before = legal
    with pytest.raises(IllegalAction):
        env.step(illegal)
    with pytest.raises(IllegalMove):
        env.game.step(illegal)
    assert env.game.legal_moves() == before

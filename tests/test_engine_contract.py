"""Engine boundaries on every game id: illegal ids and payoffs only at the end."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardtable.core.rng import Rng
from cardtable.env import GAME_IDS, REGISTRY, EnvConfig, make
from cardtable.errors import GameNotOver, IllegalMove


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
    env = make(EnvConfig(game_id, seed=2, allow_step_back=True))
    env.new_game()
    with pytest.raises(IllegalMove):
        env.game.step(999)
    assert not env.game.step_back()


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

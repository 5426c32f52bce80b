"""When a poker betting round closes, checked against the rule itself.

A round closes once every live seat has acted since the last raise.
The engines count that down in one integer; these tests keep the set of
seats that have acted instead and compare after every move of random
leduc and limit hold'em games.
"""

import random

import pytest

from cardtable.core.rng import Rng
from cardtable.games.leduc import LeducGame
from cardtable.games.limit_holdem import CALL, CHECK, FOLD, RAISE, LimitHoldemGame


def _play_checking_the_close(game, picker: random.Random) -> int:
    """Play one random hand; returns how many rounds closed."""
    live = set(range(game.num_players))
    acted: set[int] = set()
    closed = 0
    game.reset()
    while not game.is_over():
        seat, before = game.current_player(), game.round_index
        move = picker.choice(game.legal_moves())
        game.step(move)
        if move == RAISE:
            acted = {seat}
        elif move == FOLD:
            live.discard(seat)
            acted.discard(seat)
        else:
            acted.add(seat)
        if len(live) == 1:
            assert game.is_over(), "the last live seat wins at once"
            break
        advanced = game.is_over() or game.round_index != before
        assert advanced == (live <= acted), (game.history, sorted(live), sorted(acted))
        if advanced:
            acted = set()
            closed += 1
    return closed


@pytest.mark.parametrize("seats", range(2, 11))
@pytest.mark.parametrize("fixed_raise", (1, 2))
def test_holdem_rounds_close_when_every_live_seat_has_acted_since_the_last_raise(seats, fixed_raise):
    picker = random.Random(seats * 10 + fixed_raise)
    closed = 0
    for seed in range(60):
        game = LimitHoldemGame(Rng(seed), num_players=seats, fixed_raise=fixed_raise)
        closed += _play_checking_the_close(game, picker)
    assert closed  # the check ran on rounds that closed, not only on folds


def test_leduc_rounds_close_when_both_seats_have_acted_since_the_last_raise():
    picker = random.Random(5)
    closed = 0
    for seed in range(400):
        closed += _play_checking_the_close(LeducGame(Rng(seed)), picker)
    assert closed


def test_holdem_big_blind_keeps_its_option_after_the_small_blind_calls():
    game = LimitHoldemGame(Rng(1))
    game.reset()
    game.step(CALL)  # the small blind, seat 0, completes
    assert (game.round_index, game.current_player()) == (0, 1)
    assert game.legal_moves() == (RAISE, FOLD, CHECK)
    game.step(CHECK)
    assert game.round_index == 1
    assert len(game.board) == 3


def test_holdem_three_seats_fold_call_check_reach_the_flop_with_seat_0_to_act():
    game = LimitHoldemGame(Rng(2), num_players=3)
    game.reset()
    assert game.current_player() == 2
    for move in (FOLD, CALL, CHECK):
        assert game.round_index == 0
        game.step(move)
    assert (game.round_index, game.current_player()) == (1, 0)
    assert game.history == "fck/"

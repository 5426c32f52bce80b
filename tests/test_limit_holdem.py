"""Limit hold'em betting structure and the seven-card evaluator.

The evaluator oracle below is written naively on purpose: classify
every 5-card combination from scratch and take the best of the 21,
then require the production evaluator to order sampled hands the same
way.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from cardtable.core.rng import Rng
from cardtable.errors import IllegalMove, InvalidParam
from cardtable.games.hand_rank import evaluate_seven
from cardtable.games.limit_holdem import (
    BIG_BLIND,
    CALL,
    CHECK,
    FOLD,
    RAISE,
    SMALL_BLIND,
    LimitHoldemGame,
    observe,
)

from conftest import step_back

# ---------------------------------------------------------------------------
# oracle: rank one 5-card hand from first principles


def _rank5(cards) -> tuple:
    ranks = sorted((c % 13 for c in cards), reverse=True)
    suits = [c // 13 for c in cards]
    counts = Counter(ranks)
    by_count = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)
    flush = len(set(suits)) == 1
    distinct = sorted(set(ranks), reverse=True)
    straight_top = -1
    if len(distinct) == 5:
        if distinct[0] - distinct[4] == 4:
            straight_top = distinct[0]
        elif distinct == [12, 3, 2, 1, 0]:  # wheel: ace plays low
            straight_top = 3
    if flush and straight_top >= 0:
        return (8, straight_top)
    if by_count[0][1] == 4:
        return (7, by_count[0][0], by_count[1][0])
    if by_count[0][1] == 3 and by_count[1][1] == 2:
        return (6, by_count[0][0], by_count[1][0])
    if flush:
        return (5, *ranks)
    if straight_top >= 0:
        return (4, straight_top)
    if by_count[0][1] == 3:
        kick = [r for r in ranks if r != by_count[0][0]]
        return (3, by_count[0][0], *kick)
    if by_count[0][1] == 2 and by_count[1][1] == 2:
        hi, lo = max(by_count[0][0], by_count[1][0]), min(by_count[0][0], by_count[1][0])
        kick = [r for r in ranks if counts[r] == 1]
        return (2, hi, lo, *kick)
    if by_count[0][1] == 2:
        kick = [r for r in ranks if r != by_count[0][0]]
        return (1, by_count[0][0], *kick)
    return (0, *ranks)


def _best7(cards) -> tuple:
    return max(_rank5(combo) for combo in combinations(cards, 5))


class TestEvaluator:
    def test_known_hands(self):
        # club ids 0..12 are 2..A of clubs; 13.. diamonds, etc.
        wheel = [12, 0, 1, 2, 16, 30, 44]  # A 2 3 4 with offsuit 5, junk
        assert evaluate_seven(wheel)[0] == 4
        steel = [12, 0, 1, 2, 3, 30, 44]  # A2345 of clubs
        assert evaluate_seven(steel)[0] == 8
        assert evaluate_seven(steel)[1] == 3  # wheel tops at the five
        quads = [5, 18, 31, 44, 7, 20, 9]
        assert evaluate_seven(quads)[0] == 7
        boat = [5, 18, 31, 7, 20, 9, 22]
        assert evaluate_seven(boat)[0] == 6

    def test_suits_never_break_ties(self):

        club_flush = [0, 2, 4, 6, 8, 23, 37]
        spade_flush = [39, 41, 43, 45, 47, 10, 24]
        assert evaluate_seven(club_flush) == evaluate_seven(spade_flush)

    def test_matches_bruteforce_order(self):
        rng = Rng(20240)
        deck = list(range(52))
        for trial in range(2500):
            rng.shuffle(deck)
            a, b = deck[:7], deck[7:14]
            fast_a, fast_b = evaluate_seven(a), evaluate_seven(b)
            slow_a, slow_b = _best7(a), _best7(b)
            assert fast_a[0] == slow_a[0], (a, fast_a, slow_a)
            assert fast_b[0] == slow_b[0]
            fast_order = (fast_a > fast_b) - (fast_a < fast_b)
            slow_order = (slow_a > slow_b) - (slow_a < slow_b)
            assert fast_order == slow_order, (a, b)


class TestBetting:
    def test_blinds_posted(self):
        game = LimitHoldemGame(Rng(0))
        game.reset()
        assert sorted(game.chips) == sorted([SMALL_BLIND, BIG_BLIND])

    def test_raise_cap(self):
        game = LimitHoldemGame(Rng(1))
        game.reset()
        raises = 0
        while RAISE in game.legal_moves():
            game.step(RAISE)
            raises += 1
        assert raises == LimitHoldemGame.MAX_RAISES

    def test_fold_ends_heads_up(self):
        game = LimitHoldemGame(Rng(2))
        game.reset()
        game.step(FOLD)
        assert game.is_over()
        assert sum(game.payoffs()) == 0.0

    def test_num_players_range(self):
        with pytest.raises(InvalidParam):
            LimitHoldemGame(Rng(0), num_players=1)
        with pytest.raises(InvalidParam):
            LimitHoldemGame(Rng(0), num_players=11)
        with pytest.raises(InvalidParam):
            LimitHoldemGame(Rng(0), fixed_raise=0)

    def test_fixed_raise_scales_bets(self):
        game = LimitHoldemGame(Rng(3), fixed_raise=2)
        game.reset()
        pot_before = sum(game.chips)
        seat = game.current_player()
        owed = max(game.chips) - game.chips[seat]
        game.step(RAISE)
        # a raise adds the owed amount plus fixed_raise big blinds (in half-bb)
        assert sum(game.chips) - pot_before == owed + 2 * BIG_BLIND

    def test_raise_doubles_on_turn_and_river(self):
        game = LimitHoldemGame(Rng(4))
        game.reset()
        # preflop: call, check; flop: check, check -> turn
        game.step(CALL)
        game.step(CHECK)
        game.step(CHECK)
        game.step(CHECK)
        assert game.round_index == 2
        pot_before = sum(game.chips)
        game.step(RAISE)
        assert sum(game.chips) - pot_before == 2 * BIG_BLIND

    def test_zero_sum_exact_random_play(self):
        rng = Rng(99)
        for players in (2, 3, 4, 6):
            for seed in range(200):
                game = LimitHoldemGame(Rng(seed), num_players=players)
                game.reset()
                while not game.is_over():
                    game.step(rng.choice(game.legal_moves()))
                # settlement is integer/Fraction arithmetic, so exact
                assert sum(map(Fraction, game._results)) == 0, (players, seed)
                payoffs = game.payoffs()
                if players == 2:
                    assert sum(payoffs) == 0.0, seed
                else:
                    assert abs(sum(payoffs)) < 1e-9, (players, seed)

    def test_chip_conservation(self):
        rng = Rng(7)
        for seed in range(300):
            game = LimitHoldemGame(Rng(seed), num_players=3)
            game.reset()
            while not game.is_over():
                game.step(rng.choice(game.legal_moves()))
            # winners collect exactly what losers paid
            total_contributed = sum(game.chips)
            results = game._results
            gains = sum(r for r in results if r > 0)
            losses = -sum(r for r in results if r < 0)
            assert gains == losses
            assert losses <= total_contributed

    def test_split_pot_appears_and_is_fractional_fair(self):
        # search a little seed space for a showdown chop
        rng = Rng(11)
        found_split = False
        for seed in range(4000):
            game = LimitHoldemGame(Rng(seed), num_players=2)
            game.reset()
            while not game.is_over():
                moves = game.legal_moves()
                move = CALL if CALL in moves else (CHECK if CHECK in moves else moves[0])
                game.step(move)
            payoffs = game.payoffs()
            assert sum(payoffs) == 0.0
            if payoffs == [0.0, 0.0] and game.board:
                found_split = True
                break
        assert found_split

    def test_showdown_chop_splits_exactly(self):
        game = LimitHoldemGame(Rng(0), num_players=3)
        game.reset()
        # the board plays for everyone: ace-high straight flush in clubs
        game.board = (8, 9, 10, 11, 12)
        game.hands = ((13, 14), (15, 16), (17, 18))
        game.folded = (False, False, False)
        game.chips = (3, 3, 3)
        game._settle(game._showdown_winners())
        assert game._results == (0, 0, 0)

        game.folded = (False, False, True)
        game.chips = (3, 3, 1)
        game._results = None
        game._settle(game._showdown_winners())
        assert game._results == (Fraction(1, 2), Fraction(1, 2), -1)
        assert game.payoffs() == [0.25, 0.25, -0.5]

    def test_step_back_round_trip(self):
        rng = Rng(13)
        game = LimitHoldemGame(Rng(21), num_players=4)
        game.reset()
        snaps = [game.snapshot()]
        undo = []
        for _ in range(6):
            if game.is_over():
                break
            undo.append(game.snapshot())
            game.step(rng.choice(game.legal_moves()))
            snaps.append(game.snapshot())
        while step_back(game, undo):
            snaps.pop()
            assert game.snapshot() == snaps[-1]


class TestObserve:
    def test_key_and_legal(self):
        game = LimitHoldemGame(Rng(5))
        game.reset()
        seat = game.current_player()
        raw, legal, key = observe(game, seat)
        assert key.startswith(f"H{seat}|")
        assert legal == tuple(game.legal_moves())
        assert raw["my_chips"] == game.chips[seat] / 2  # half-bb to bb

    def test_planes_shape(self):
        from cardtable.games.limit_holdem import encode_planes

        game = LimitHoldemGame(Rng(5))
        game.reset()
        raw, _, _ = observe(game, game.current_player())
        assert encode_planes(raw).shape == (107,)

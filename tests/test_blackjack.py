"""Blackjack engine rules, observations, and census enumeration."""

import pytest

from cardtable.core.rng import Rng
from cardtable.errors import GameNotOver, IllegalMove
from cardtable.games.blackjack import (
    HIT,
    STAND,
    BlackjackGame,
    hand_value,
    observe,
    settle,
)
from cardtable.trees import blackjack_info_sets

from conftest import step_back


class TestHandValue:
    def test_rank_scores(self):
        # french ranks: 0..8 are 2..10, 9 J, 10 Q, 11 K, 12 A
        assert hand_value([0]) == (2, False)
        assert hand_value([8]) == (10, False)
        assert hand_value([9]) == (10, False)
        assert hand_value([12]) == (11, True)

    def test_soft_and_hard_aces(self):
        assert hand_value([12, 5]) == (18, True)  # A + 7
        assert hand_value([12, 12]) == (12, True)  # one ace promoted
        assert hand_value([12, 12, 8, 7]) == (21, False)  # A A 10 9
        assert hand_value([12, 4, 8]) == (17, False)  # A 6 10 is hard 17

    def test_bust_boundary(self):
        assert hand_value([8, 7, 3])[0] == 24
        assert hand_value([8, 7, 12])[0] == 20

    def test_settle(self):
        assert settle([8, 7, 3], [8, 5]) == -1  # player bust loses even if dealer would
        assert settle([8, 8], [8, 7]) == 1
        assert settle([8, 5], [8, 8]) == -1
        assert settle([8, 7], [8, 7]) == 0  # push at equal totals
        assert settle([5, 5], [8, 7, 8]) == 1  # dealer bust


class TestGamePlay:
    def test_deal_shape(self):
        game = BlackjackGame(Rng(1))
        game.reset()
        assert len(game.hand) == 2
        assert len(game.dealer_hand) == 2
        assert game.current_player() == 0
        assert game.legal_moves() == (HIT, STAND)

    def test_stand_plays_out_dealer_to_17(self):
        for seed in range(60):
            game = BlackjackGame(Rng(seed))
            game.reset()
            game.step(STAND)
            assert game.is_over()
            assert hand_value(game.dealer_hand)[0] >= 17

    def test_hit_until_bust_loses(self):
        for seed in range(40):
            game = BlackjackGame(Rng(seed))
            game.reset()
            while not game.is_over():
                game.step(HIT)
            assert hand_value(game.hand)[0] > 21
            assert game.payoffs() == [-1.0]

    def test_payoff_guard(self):
        game = BlackjackGame(Rng(3))
        game.reset()
        with pytest.raises(GameNotOver):
            game.payoffs()

    def test_illegal_move_rejected(self):
        game = BlackjackGame(Rng(3))
        game.reset()
        with pytest.raises(IllegalMove):
            game.step(7)

    def test_same_seed_same_hand(self):
        g1, g2 = BlackjackGame(Rng(9)), BlackjackGame(Rng(9))
        g1.reset()
        g2.reset()
        assert g1.hand == g2.hand
        assert g1.dealer_hand == g2.dealer_hand

    def test_step_back_restores_everything(self):
        game = BlackjackGame(Rng(5))
        game.reset()
        before = game.snapshot()
        snaps = [game.snapshot()]
        game.step(HIT)
        assert step_back(game, snaps)
        assert game.snapshot() == before
        assert not step_back(game, snaps)  # at root


class TestObserve:
    def test_key_fields(self):
        game = BlackjackGame(Rng(2))
        game.reset()
        raw, legal, key = observe(game, 0)
        score, soft = hand_value(game.hand)
        assert key == f"B|{score}{'s' if soft else 'h'}|n2|u{raw['dealer_visible']}"
        assert legal == (HIT, STAND)
        assert raw["score"] == score

    def test_upcard_is_first_dealer_card(self):
        game = BlackjackGame(Rng(2))
        game.reset()
        raw, _, _ = observe(game, 0)
        up = game.dealer_hand[0]
        assert raw["dealer_visible"] == (11 if up == 12 else min(up + 2, 10))


class TestCensus:
    def test_key_count_frozen(self):
        # full enumeration over 52-card compositions; value frozen after first run
        keys, _ = blackjack_info_sets()
        assert len(keys) == 1373

    def test_census_consistency(self):
        keys, n_states = blackjack_info_sets()
        assert len(keys) == 1373
        assert n_states == 409172  # (hand multiset, upcard, hole rank) triples

    def test_every_played_key_is_enumerated(self):
        keys, _ = blackjack_info_sets()
        rng = Rng(123)
        for seed in range(200):
            game = BlackjackGame(Rng(seed))
            game.reset()
            while not game.is_over():
                _, _, key = observe(game, 0)
                assert key in keys
                game.step(HIT if rng.random() < 0.5 else STAND)

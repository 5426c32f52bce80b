"""UNO rules: playability, action cards, forced draws, reshuffles."""

from collections import Counter

import pytest

from cardtable.core.cards import UNO_COLORS
from cardtable.core.rng import Rng
from cardtable.errors import IllegalMove, InvalidParam
from cardtable.games.uno import (
    DRAW2,
    DRAW_ACTION,
    NUM_TYPES,
    PASS_ACTION,
    REVERSE,
    SKIP,
    WD4,
    WILD,
    UnoGame,
    encode_planes,
    observe,
    play_action_ids,
    type_literal,
)

from conftest import step_back
from walk_uno import EagerUnoGame

RED, GREEN, BLUE, YELLOW = (UNO_COLORS.index(c) for c in "rgby")


def fresh_game(seed=0, players=2, **kw):
    game = UnoGame(Rng(seed), num_players=players, **kw)
    game.reset()
    return game


def give_hand(game, seat, types):
    hand = [0] * NUM_TYPES
    for t in types:
        hand[t] += 1
    game.hands = game.hands[:seat] + (tuple(hand),) + game.hands[seat + 1 :]
    game.sizes = game.sizes[:seat] + (len(types),) + game.sizes[seat + 1 :]


def total_cards(game):
    return sum(map(sum, game.hands)) + len(game.pile) + len(game.bottom) + len(game.discard)


class TestSetup:
    def test_deal_sizes_and_opening_card(self):
        for seed in range(100):
            game = fresh_game(seed, players=3)
            assert [sum(h) for h in game.hands] == [7, 7, 7]
            top = game.discard[0]
            assert top < 52 and top % 13 <= 9  # number card opens
            assert total_cards(game) == 108

    def test_param_validation(self):
        with pytest.raises(InvalidParam):
            UnoGame(Rng(0), num_players=1)
        with pytest.raises(InvalidParam):
            UnoGame(Rng(0), num_players=5)
        with pytest.raises(InvalidParam):
            UnoGame(Rng(0), hand_size=0)
        with pytest.raises(InvalidParam):
            UnoGame(Rng(0), hand_size=13)

    def test_hand_size_param(self):
        game = fresh_game(3, players=2, hand_size=3)
        assert [sum(h) for h in game.hands] == [3, 3]

    def test_literals(self):
        assert type_literal(RED * 13 + 7) == "r-7"
        assert type_literal(GREEN * 13 + SKIP) == "g-skip"
        assert type_literal(WILD, BLUE) == "wild+b"
        assert type_literal(WD4, YELLOW) == "wild-d4+y"


class TestPlayability:
    def test_draw_only_when_stuck(self):
        rng = Rng(42)
        for seed in range(60):
            game = fresh_game(seed, players=3)
            steps = 0
            while not game.is_over() and steps < 3000:
                legal = game.legal_moves()
                if game.pending is None:
                    hand = game.hands[game.turn]
                    playable = [t for t in range(NUM_TYPES) if hand[t] and game.playable(t)]
                    if playable:
                        assert DRAW_ACTION not in legal
                        want = sorted(a for t in playable for a in play_action_ids(t))
                        assert sorted(legal) == want
                    else:
                        assert legal == (DRAW_ACTION,)
                assert PASS_ACTION in legal or game.pending is None
                game.step(rng.choice(legal))
                assert total_cards(game) == 108
                assert game.sizes == tuple(map(sum, game.hands))
                steps += 1

    def test_color_and_symbol_matching(self):
        game = fresh_game(1)
        game.discard = (RED * 13 + 5,)
        game.declared = None
        assert game.playable(RED * 13 + 9)  # color match
        assert game.playable(BLUE * 13 + 5)  # symbol match
        assert game.playable(WILD)
        assert game.playable(WD4)
        assert not game.playable(BLUE * 13 + 9)

    def test_playable_agrees_with_the_legal_moves_of_a_full_hand(self):
        """Every top, every declared colour on a wild top: playable(t) iff t's plays are legal."""
        for top in range(NUM_TYPES):
            for declared in range(4) if top >= 52 else (None,):
                game = fresh_game(3)
                game.discard, game.declared = (top,), declared
                give_hand(game, game.turn, range(NUM_TYPES))
                legal = game.legal_moves()
                for t in range(NUM_TYPES):
                    assert game.playable(t) == (play_action_ids(t)[0] in legal), (top, declared, t)

    def test_wild_color_declaration(self):
        game = fresh_game(2)
        game.turn = 0
        give_hand(game, 0, [WILD, RED * 13 + 3])
        game.step(52 + GREEN)
        assert game.declared == GREEN
        assert game.active_color() == GREEN
        assert game.playable(GREEN * 13 + 9)
        assert not game.playable(RED * 13 + 9)

    def test_illegal_moves_raise(self):
        game = fresh_game(4)
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, game.turn, [BLUE * 13 + 9, RED * 13 + 1])
        with pytest.raises(IllegalMove):
            game.step(BLUE * 13 + 9)  # held but not playable
        with pytest.raises(IllegalMove):
            game.step(RED * 13 + 2)  # playable type but not held
        with pytest.raises(IllegalMove):
            game.step(PASS_ACTION)  # nothing pending


class TestActionCards:
    def test_skip_jumps_a_seat(self):
        game = fresh_game(5, players=3)
        game.turn = 0
        game.direction = 1
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, 0, [RED * 13 + SKIP, BLUE * 13 + 1])
        game.step(RED * 13 + SKIP)
        assert game.turn == 2

    def test_reverse_flips_direction(self):
        game = fresh_game(6, players=3)
        game.turn = 1
        game.direction = 1
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, 1, [RED * 13 + REVERSE, BLUE * 13 + 1])
        game.step(RED * 13 + REVERSE)
        assert game.direction == -1
        assert game.turn == 0

    def test_reverse_acts_as_skip_heads_up(self):
        game = fresh_game(7, players=2)
        game.turn = 0
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, 0, [RED * 13 + REVERSE, BLUE * 13 + 1])
        game.step(RED * 13 + REVERSE)
        assert game.turn == 0  # same player moves again

    def test_draw_two_feeds_and_skips_victim(self):
        game = fresh_game(8, players=3)
        game.turn = 0
        game.direction = 1
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, 0, [RED * 13 + DRAW2, BLUE * 13 + 1])
        before = sum(game.hands[1])
        game.step(RED * 13 + DRAW2)
        assert sum(game.hands[1]) == before + 2
        assert game.turn == 2

    def test_wild_draw_four_feeds_and_skips_victim(self):
        game = fresh_game(9, players=3)
        game.turn = 0
        game.direction = 1
        give_hand(game, 0, [WD4, BLUE * 13 + 1])
        before = sum(game.hands[1])
        game.step(56 + YELLOW)
        assert sum(game.hands[1]) == before + 4
        assert game.declared == YELLOW
        assert game.turn == 2


class TestDrawing:
    def test_drawn_playable_card_may_be_replayed_or_passed(self):
        game = fresh_game(10)
        game.turn = 0
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, 0, [BLUE * 13 + 9])  # stuck
        game.pile = [RED * 13 + 7]  # will draw a playable card
        assert game.legal_moves() == (DRAW_ACTION,)
        game.step(DRAW_ACTION)
        assert game.pending == RED * 13 + 7
        assert game.turn == 0
        assert sorted(game.legal_moves()) == [RED * 13 + 7, PASS_ACTION]
        game.step(PASS_ACTION)
        assert game.pending is None
        assert game.turn == 1
        assert game.hands[0][RED * 13 + 7] == 1  # kept the drawn card

    def test_drawn_playable_card_replay(self):
        game = fresh_game(11)
        game.turn = 0
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, 0, [BLUE * 13 + 9])
        game.pile = [RED * 13 + 7]
        game.step(DRAW_ACTION)
        game.step(RED * 13 + 7)
        assert game.top() == RED * 13 + 7
        assert game.hands[0][RED * 13 + 7] == 0

    def test_drawn_unplayable_card_passes_turn(self):
        game = fresh_game(12)
        game.turn = 0
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, 0, [BLUE * 13 + 9])
        game.pile = [GREEN * 13 + 9]  # not playable on r-5
        game.step(DRAW_ACTION)
        assert game.pending is None
        assert game.turn == 1
        assert game.hands[0][GREEN * 13 + 9] == 1

    def test_empty_pile_reshuffles_discard(self):
        game = fresh_game(13)
        game.turn = 0
        game.discard = (BLUE * 13 + 1, GREEN * 13 + 2, RED * 13 + 5)
        game.declared = None
        give_hand(game, 0, [BLUE * 13 + 9])
        game.pile = []
        game.bottom = ()
        game.step(DRAW_ACTION)
        # top kept, the two buried cards became the new pile, one was drawn
        assert game.discard == (RED * 13 + 5,)
        assert len(game.pile) == 1
        assert sum(game.hands[0]) == 2

    def test_bare_draw_acts_like_pass_when_nothing_left(self):
        game = fresh_game(14)
        game.turn = 0
        game.discard = (RED * 13 + 5,)
        game.declared = None
        give_hand(game, 0, [BLUE * 13 + 9])
        game.pile = []
        game.bottom = ()
        game.step(DRAW_ACTION)
        assert game.turn == 1
        assert sum(game.hands[0]) == 1


def recorded_draws(game):
    """Route game's draws through a recorder; returns the list of drawn-card lists."""
    drawn = []
    draw_cards = game._draw_cards

    def record(seat, n):
        got = draw_cards(seat, n)
        drawn.append(got)
        return got

    game._draw_cards = record
    return drawn


def lockstep(seed, players, hand_size, choose, paths):
    """Play UnoGame and the eager oracle side by side, checking them after every
    step; counts in paths the games that take each deal path."""
    lazy = UnoGame(Rng(seed), num_players=players, hand_size=hand_size)
    eager = EagerUnoGame(Rng(seed), num_players=players, hand_size=hand_size)
    lazy.reset()
    eager.reset()
    lazy_draws, eager_draws = recorded_draws(lazy), recorded_draws(eager)
    taken = {"opening to bottom"} if lazy.bottom else set()
    while True:
        assert lazy.hands == eager.hands and lazy.discard == eager.discard, seed
        assert lazy.sizes == tuple(map(sum, lazy.hands))
        assert sorted(lazy.pile + list(lazy.bottom)) == sorted(eager.pile)
        assert lazy_draws == eager_draws
        assert lazy.is_over() == eager.is_over()
        if lazy.is_over():
            break
        legal = lazy.legal_moves()
        assert legal == eager.legal_moves()
        bottom, discard = len(lazy.bottom), len(lazy.discard)
        action = choose(legal)
        lazy.step(action)
        eager.step(action)
        if bottom >= 2 and len(lazy.bottom) < bottom:
            taken.add("drawn from a bottom of two or more")
        if len(lazy.discard) < discard:
            taken.add("reshuffle")
    assert lazy.payoffs() == eager.payoffs()
    paths.update(taken)


class TestLazyDeal:
    def test_lockstep_with_the_eager_deal(self):
        """The lazy deal gives every card the eagerly shuffled pile gave, and the
        match table the moves of the 54-type scan (tests/walk_uno.py)."""
        paths = Counter()
        chooser = Rng(8)
        for seed in range(300):
            lockstep(seed, 2 + seed % 3, 1 + seed % 12, chooser.choice, paths)
        # openings that put two or more action cards under the pile, on the
        # fullest table, played by the highest id (a wild-draw-four when held)
        # so that the pile runs out: the bottom comes back in the order it went
        for seed in range(600):
            game = UnoGame(Rng(seed), num_players=4, hand_size=12)
            game.reset()
            if len(game.bottom) >= 2:
                lockstep(seed, 4, 12, lambda legal: legal[-1], paths)
        assert len(paths) == 3 and min(paths.values()) >= 5, paths


class TestFullGames:
    def test_random_games_terminate_with_single_winner(self):
        rng = Rng(77)
        for seed in range(80):
            players = 2 + seed % 3
            game = fresh_game(seed, players=players)
            steps = 0
            while not game.is_over():
                game.step(rng.choice(game.legal_moves()))
                steps += 1
                assert steps < 5000, seed
            payoffs = game.payoffs()
            assert sorted(payoffs) == [0.0] * (players - 1) + [1.0]
            winner = game.sizes.index(0)
            assert payoffs[winner] == 1.0
            assert sum(game.hands[winner]) == 0

    def test_same_seed_same_game(self):
        logs = []
        for _ in range(2):
            game = fresh_game(2024, players=4)
            rng = Rng(55)
            moves = []
            while not game.is_over():
                action = rng.choice(game.legal_moves())
                moves.append((game.current_player(), action))
                game.step(action)
            logs.append((tuple(moves), tuple(game.payoffs())))
        assert logs[0] == logs[1]

    def test_step_back_round_trip(self):
        game = UnoGame(Rng(31), num_players=3)
        game.reset()
        rng = Rng(90)
        start = game.snapshot()
        snaps = []
        moved = 0
        while moved < 25 and not game.is_over():
            snaps.append(game.snapshot())
            game.step(rng.choice(game.legal_moves()))
            moved += 1
        for _ in range(moved):
            assert step_back(game, snaps)
        assert not step_back(game, snaps)
        assert game.snapshot() == start


class TestObserve:
    def test_key_and_raw_fields(self):
        game = fresh_game(16, players=3)
        seat = game.turn
        raw, legal, key = observe(game, seat)
        assert key.startswith(f"U{seat}|h")
        assert legal == tuple(game.legal_moves())
        assert raw["hand_sizes"] == tuple(sum(h) for h in game.hands)
        assert raw["top"] == type_literal(game.top(), game.declared)
        other = (seat + 1) % 3
        _, other_legal, _ = observe(game, other)
        assert other_legal == ()

    def test_planes_shape_and_hand_row(self):
        game = fresh_game(17)
        raw, _, _ = observe(game, 0)
        planes = encode_planes(raw)
        assert planes.shape == (4, NUM_TYPES)
        assert tuple(planes[0]) == raw["hand_counts"]
        color = raw["active_color_index"]
        assert planes[1, color * 13 : color * 13 + 13].sum() == 13

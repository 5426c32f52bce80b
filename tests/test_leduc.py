"""Leduc engine rules and the exact tree's move-for-move equivalence."""

import copy

import pytest

from cardtable.core.rng import Rng
from cardtable.errors import IllegalMove
from cardtable.games.leduc import (
    CALL,
    CHECK,
    FOLD,
    RAISE,
    LeducGame,
    info_key,
    observe,
    round_legal_moves,
    showdown_winner,
)
from cardtable.trees import LeducTree, compiled_tree


class TestRules:
    def test_round_legal_moves(self):
        assert round_legal_moves(True, 0) == (CALL, RAISE, FOLD)
        assert round_legal_moves(False, 0) == (RAISE, FOLD, CHECK)
        assert round_legal_moves(True, 2) == (CALL, FOLD)  # raise cap

    def test_showdown_pairs_beat_high_card(self):
        assert showdown_winner(0, 2, 0) == 0  # J pairs the board J
        assert showdown_winner(2, 0, 0) == 1
        assert showdown_winner(2, 1, 0) == 0  # K over Q, no pairs
        assert showdown_winner(1, 1, 2) == -1  # same rank chops

    def test_fold_awards_folders_chips(self):
        game = LeducGame(Rng(0))
        game.reset()
        first = game.current_player()
        game.step(RAISE)
        game.step(FOLD)
        assert game.is_over()
        payoffs = game.payoffs()
        # the folder never matched the raise, so the winner nets one ante
        assert payoffs[first] == 1.0
        assert sum(payoffs) == 0.0

    def test_raise_sizes_double_across_rounds(self):
        game = LeducGame(Rng(1))
        game.reset()
        game.step(RAISE)
        assert game.chips == (3, 1)
        game.step(CALL)
        assert game.chips == (3, 3)
        game.step(RAISE)  # round 2 raise is 4
        assert game.chips == (7, 3)

    def test_check_check_advances_round(self):
        game = LeducGame(Rng(2))
        game.reset()
        assert game.public is None
        game.step(CHECK)
        game.step(CHECK)
        assert game.public is not None
        assert game.round_index == 1

    def test_illegal_check_facing_bet(self):
        game = LeducGame(Rng(3))
        game.reset()
        game.step(RAISE)
        with pytest.raises(IllegalMove):
            game.step(CHECK)

    def test_chip_conservation_and_zero_sum(self):
        rng = Rng(77)
        for seed in range(500):
            game = LeducGame(Rng(seed))
            game.reset()
            while not game.is_over():
                game.step(rng.choice(game.legal_moves()))
            payoffs = game.payoffs()
            assert sum(payoffs) == 0.0
            # the winner nets exactly what the loser put in
            assert payoffs[0] in (float(game.chips[1]), -float(game.chips[0]), 0.0)

    def test_step_back_round_trip(self):
        rng = Rng(5)
        game = LeducGame(Rng(12), allow_step_back=True)
        game.reset()
        snaps = [game.snapshot()]
        while not game.is_over():
            game.step(rng.choice(game.legal_moves()))
            snaps.append(game.snapshot())
        while game.step_back():
            snaps.pop()
            assert game.snapshot() == snaps[-1]
        assert len(snaps) == 1

    def test_snapshot_before_the_public_draw_survives_it(self):
        """Snapshots share the state by reference: the draw and later steps leave them be."""
        for seed in range(40):
            game = LeducGame(Rng(seed), allow_step_back=True)
            game.reset()
            game.step(RAISE)
            before = game.snapshot()
            kept = copy.deepcopy(before)
            state = (list(game.stock), game.public, game.chips, game.round_bets, game.rng.getstate())
            game.step(CALL)  # ends round one: the public card is drawn
            public = game.public
            assert public is not None and public not in game.stock
            game.step(RAISE)
            game.step(CALL)
            assert game.is_over()
            assert before == kept
            game.step_back()
            game.step_back()
            game.step_back()
            assert (game.stock, game.public, game.chips, game.round_bets, game.rng.getstate()) == state
            assert game.snapshot() == kept
            game.step(CALL)
            assert game.public == public


class TestObserve:
    def test_key_matches_view(self):
        game = LeducGame(Rng(4))
        game.reset()
        seat = game.current_player()
        raw, legal, key = observe(game, seat)
        assert key == info_key(seat, game.hands[seat] % 3, None, "")
        assert legal == tuple(game.legal_moves())
        assert raw["history"] == ""

    def test_opponent_card_hidden(self):
        game = LeducGame(Rng(4))
        game.reset()
        raw, _, _ = observe(game, 0)
        assert set(raw) == {
            "seat",
            "hand",
            "hand_card",
            "public",
            "public_card",
            "history",
            "my_chips",
            "opp_chips",
            "round",
        }


def held_state(node):
    """The engine state a ("play", snap) or ("pub", snap) tree node holds."""
    game = LeducGame(Rng(0))
    game.restore(node[1])
    return game


class TestTreeMatchesEngine:
    """Random engine lines, followed through the tree, must agree everywhere."""

    def test_random_line_equivalence(self):
        tree = LeducTree()
        rng = Rng(2024)
        for trial in range(800):
            game = LeducGame(Rng(trial))
            game.reset()
            ranks = (game.hands[0] % 3, game.hands[1] % 3)
            # enter through the deal outcome with the engine's hand ranks
            matches = [
                c for c, _ in tree.chance_outcomes(tree.root())
                if tuple(card % 3 for card in held_state(c).hands) == ranks
            ]
            assert len(matches) == 1
            node = matches[0]
            while not game.is_over():
                assert not tree.is_terminal(node)
                seat = game.current_player()
                assert tree.player(node) == seat
                assert tuple(tree.actions(node)) == tuple(game.legal_moves())
                assert tree.info_key(node) == observe(game, seat)[2]
                move = rng.choice(game.legal_moves())
                before = game.public
                game.step(move)
                node = tree.child(node, move)
                assert (node[0] == "pub") == (before is None and game.public is not None)
                if node[0] == "pub":
                    # the engine drew its public card; follow the same rank
                    pub_rank = game.public % 3
                    matches = [c for c, _ in tree.chance_outcomes(node) if held_state(c).public % 3 == pub_rank]
                    assert len(matches) == 1
                    node = matches[0]
            assert tree.is_terminal(node)
            assert list(tree.payoffs(node)) == game.payoffs()

    def test_reads_do_not_depend_on_order(self):
        """Each read restores its own node, so reading another node in between changes nothing."""
        tree = LeducTree()
        start = tree.chance_outcomes(tree.root())[0][0]
        raised = tree.child(start, RAISE)
        assert tree.actions(start) == (RAISE, FOLD, CHECK)
        assert tree.actions(raised) == (CALL, RAISE, FOLD)
        assert tree.actions(start) == (RAISE, FOLD, CHECK)
        assert tree.child(raised, CALL)[0] == "pub"

    def test_node_and_key_counts(self):
        assert compiled_tree(LeducTree()).num_nodes == 2194
        keys = set(compiled_tree("leduc").keys)
        assert len(keys) == 288
        assert len({k for k in keys if k.startswith("L0")}) == 144

    def test_chance_probabilities_sum_to_one(self):
        tree = LeducTree()
        deal = tree.chance_outcomes(tree.root())
        assert abs(sum(p for _, p in deal) - 1.0) < 1e-12
        for child, _ in deal:
            node = tree.child(tree.child(child, CHECK), CHECK)
            assert node[0] == "pub"
            probs = [p for _, p in tree.chance_outcomes(node)]
            assert abs(sum(probs) - 1.0) < 1e-12

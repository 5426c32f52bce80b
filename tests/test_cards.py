"""Deck compositions, card id layout, shuffling, and drawing from the end."""

from collections import Counter

from cardtable.core import DECKS, Rng
from cardtable.core.cards import FRENCH_RANKS, FRENCH_SUITS
from cardtable.games.blackjack import BlackjackGame
from cardtable.games.doudizhu_patterns import DD_RANK_NAMES, french_to_dd_rank
from cardtable.games.leduc import FOLD as LEDUC_FOLD
from cardtable.games.leduc import LeducGame
from cardtable.games.limit_holdem import FOLD as HOLDEM_FOLD
from cardtable.games.limit_holdem import LimitHoldemGame, card_name

from conftest import load_ints


def shuffled(kind: str, seed: int) -> list[int]:
    order = list(DECKS[kind])
    Rng(seed).shuffle(order)
    return order


class TestCompositions:
    def test_sizes(self):
        sizes = {
            "standard52": 52,
            "leduc6": 6,
            "uno108": 108,
            "doudizhu54": 54,
            "mini_doudizhu": 28,
        }
        assert {kind: len(ids) for kind, ids in DECKS.items()} == sizes

    def test_uno_composition(self):
        comp = Counter(DECKS["uno108"])
        per_color = Counter()
        for color in range(4):
            assert comp[color * 13 + 0] == 1  # one zero per color
            for sym in range(1, 13):
                assert comp[color * 13 + sym] == 2
            per_color[color] = sum(comp[color * 13 + sym] for sym in range(13))
        assert list(per_color.values()) == [25, 25, 25, 25]
        assert comp[52] == 4 and comp[53] == 4  # wild, wild-draw-four

    def test_mini_doudizhu_keeps_8_through_ace(self):
        ids = DECKS["mini_doudizhu"]
        # french ranks 6..12 are 8, 9, T, J, Q, K, A
        assert Counter(cid % 13 for cid in ids) == Counter({r: 4 for r in range(6, 13)})
        assert all(cid // 13 < 4 for cid in ids)

    def test_leduc_two_suits_three_ranks(self):
        assert Counter(cid % 3 for cid in DECKS["leduc6"]) == Counter({0: 2, 1: 2, 2: 2})

    def test_every_kind_constructs(self):
        # canonical form: ascending ids, so duplicates sit next to each other
        for ids in DECKS.values():
            assert isinstance(ids, tuple)
            assert list(ids) == sorted(ids)


class TestCardIds:
    def test_id_formula(self):
        for suit in range(4):
            for rank in range(13):
                assert card_name(suit * 13 + rank) == FRENCH_RANKS[rank] + FRENCH_SUITS[suit]
        assert DECKS["leduc6"] == tuple(suit * 3 + rank for suit in range(2) for rank in range(3))

    def test_ids_bijective_over_distinct_cards(self):
        for kind, ids in DECKS.items():
            assert all(0 <= cid < 54 for cid in ids)
            if kind != "uno108":  # the only kind with duplicate copies
                assert len(set(ids)) == len(ids)
        assert len({card_name(cid) for cid in DECKS["standard52"]}) == 52

    def test_jokers(self):
        ids = DECKS["doudizhu54"]
        assert ids[52] == 52 and ids[53] == 53
        names = [DD_RANK_NAMES[french_to_dd_rank(cid // 13, cid % 13)] for cid in ids]
        assert names.count("B") == 1 and names.count("R") == 1
        assert names[52:] == ["B", "R"]


class TestShuffleDeal:
    def test_shuffle_preserves_multiset(self):
        for kind in ("standard52", "uno108", "leduc6"):
            base = Counter(DECKS[kind])
            for seed in range(1000):
                assert Counter(shuffled(kind, seed)) == base

    def test_shuffle_matches_frozen_orders(self):
        assert shuffled("standard52", 3) == load_ints("shuffle_standard52_seed3.txt")
        assert shuffled("leduc6", 11) == load_ints("shuffle_leduc6_seed11.txt")
        assert shuffled("uno108", 5) == load_ints("shuffle_uno108_seed5.txt")

    def test_shuffle_deterministic(self):
        assert shuffled("standard52", 99) == shuffled("standard52", 99)

    def test_draw_all_is_shuffle_read_from_the_end(self):
        for kind, ids in DECKS.items():
            for seed in range(200):
                stock, rng = list(ids), Rng(seed)
                drawn = [rng.draw(stock) for _ in ids]
                assert drawn == shuffled(kind, seed)[::-1]
                assert stock == []

    def test_draw_matches_frozen_orders_backwards(self):
        for kind, seed, name in (
            ("standard52", 3, "shuffle_standard52_seed3.txt"),
            ("leduc6", 11, "shuffle_leduc6_seed11.txt"),
        ):
            stock, rng = list(DECKS[kind]), Rng(seed)
            assert [rng.draw(stock) for _ in DECKS[kind]] == load_ints(name)[::-1]

    def test_first_k_draws_are_a_shuffle_prefix(self):
        # after k draws the stock and the rng are where a full shuffle is after
        # its first k steps: shuffling the rest completes the same order
        for kind in ("standard52", "leduc6", "uno108", "mini_doudizhu"):
            n = len(DECKS[kind])
            for seed in range(5):
                order = shuffled(kind, seed)
                for k in range(n + 1):
                    stock, rng = list(DECKS[kind]), Rng(seed)
                    drawn = [rng.draw(stock) for _ in range(k)]
                    assert drawn == order[::-1][:k]
                    rng.shuffle(stock)
                    assert stock == order[: n - k]

    def test_deal_draws_from_top(self):
        # every card a whole hand deals, in deal order, is the shuffled deck
        # read from its end; moves come from a separate stream
        for seed in range(200):
            picker = Rng(10_000 + seed)

            game = LeducGame(Rng(seed))
            game.reset()
            while not game.is_over():  # never fold, so the public card is dealt
                game.step(picker.choice([m for m in game.legal_moves() if m != LEDUC_FOLD]))
            top = shuffled("leduc6", seed)[::-1]
            assert [*game.hands, *game.board] == top[:3]

            game = LimitHoldemGame(Rng(seed), num_players=3)
            game.reset()
            while not game.is_over():  # never fold, so the whole board is dealt
                game.step(picker.choice([m for m in game.legal_moves() if m != HOLDEM_FOLD]))
            top = shuffled("standard52", seed)[::-1]
            assert game.hands == (tuple(sorted(top[0:2])), tuple(sorted(top[2:4])), tuple(sorted(top[4:6])))
            assert game.board == tuple(top[6:11])

            game = BlackjackGame(Rng(seed))
            game.reset()
            while not game.is_over():
                game.step(picker.choice(game.legal_moves()))
            top = [cid % 13 for cid in shuffled("standard52", seed)[::-1]]
            player, dealer = game.hand, game.dealer_hand
            dealt = [player[0], dealer[0], player[1], dealer[1], *player[2:], *dealer[2:]]
            assert dealt == top[: len(dealt)]


def test_replay_determinism_over_op_sequences():
    # identical seeds drive identical op sequences to identical results
    def trace(seed: int) -> list:
        rng = Rng(seed)
        stock = list(DECKS["uno108"])
        rng.shuffle(stock)
        out = []
        for _ in range(20):
            n = rng.randbelow(4) + 1
            out.extend(stock.pop() for _ in range(n))
            if rng.random() < 0.3:
                rng.shuffle(stock)
        return out

    assert trace(2024) == trace(2024)
    assert trace(2024) != trace(2025)

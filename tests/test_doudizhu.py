"""Dou dizhu move grammar and the three-seat engine.

The oracle below re-derives the playable move set of a hand by direct
counting, with no shared code or tables, and the grammar tests require
the production enumerator to agree triple for triple on random hands.
Two more oracles work on concrete moves: legal_patterns enumerates every
kicker choice of each legal id, and parse classifies a rank multiset, so
each emitted move must parse back to itself.
"""

import copy
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardtable.agents import RandomAgent
from cardtable.core.rng import Rng
from cardtable.env import EnvConfig, make
from cardtable.errors import IllegalMove, InvalidParam, NoConcreteMove
from cardtable.games.doudizhu import DoudizhuGame, capture, decode_action, encode_planes, hand_literal, observe
from cardtable.games.doudizhu_patterns import (
    ABSTRACT_ACTIONS,
    ACTION_INDEX,
    CHAIN_TOP,
    NUM_ACTIONS,
    NUM_RANKS,
    PASS_ID,
    CardPattern,
    abstract_id,
    decode,
    matching_abstract_ids,
)

PASS = CardPattern("pass", 0, 0)
ROCKET = CardPattern("rocket", 13)

# ---------------------------------------------------------------------------
# oracle: enumerate playable (category, primal, length) triples by counting


def _spans(cnt, per_rank, min_len, max_len):
    for length in range(min_len, max_len + 1):
        for lo in range(0, 11 - length + 2):  # chains stop at the ace
            if all(cnt[r] >= per_rank for r in range(lo, lo + length)):
                yield lo, length


def _solo_kickers(cnt, lo, hi):
    return sum(1 for k in range(15) if not lo <= k < hi and cnt[k] >= 1)


def _pair_kickers(cnt, lo, hi):
    return sum(1 for k in range(13) if not lo <= k < hi and cnt[k] >= 2)


def oracle_lead_triples(cnt):
    out = set()
    for r in range(15):
        if cnt[r] >= 1:
            out.add(("solo", r, 1))
    for r in range(13):
        if cnt[r] >= 2:
            out.add(("pair", r, 1))
        if cnt[r] >= 3:
            out.add(("trio", r, 1))
            if _solo_kickers(cnt, r, r + 1) >= 1:
                out.add(("trio_single", r, 1))
            if _pair_kickers(cnt, r, r + 1) >= 1:
                out.add(("trio_pair", r, 1))
        if cnt[r] == 4:
            out.add(("bomb", r, 1))
            if _solo_kickers(cnt, r, r + 1) >= 2:
                out.add(("quad_two_solo", r, 1))
            if _pair_kickers(cnt, r, r + 1) >= 2:
                out.add(("quad_two_pair", r, 1))
    if cnt[13] and cnt[14]:
        out.add(("rocket", 13, 1))
    for lo, n in _spans(cnt, 1, 5, 12):
        out.add(("solo_chain", lo, n))
    for lo, n in _spans(cnt, 2, 3, 10):
        out.add(("pair_chain", lo, n))
    for lo, n in _spans(cnt, 3, 2, 6):
        out.add(("plane", lo, n))
    for lo, n in _spans(cnt, 3, 2, 5):
        if _solo_kickers(cnt, lo, lo + n) >= n:
            out.add(("plane_solo", lo, n))
    for lo, n in _spans(cnt, 3, 2, 4):
        if _pair_kickers(cnt, lo, lo + n) >= n:
            out.add(("plane_pair", lo, n))
    return out


def oracle_triples(cnt, to_beat):
    """Playable triples against a lead triple (None when leading)."""
    lead = oracle_lead_triples(cnt)
    if to_beat is None:
        return lead
    cat, primal, length = to_beat
    out = {("pass", 0, 0)}
    for triple in lead:
        tcat, tprimal, tlength = triple
        if tcat == "rocket":
            if cat != "rocket":
                out.add(triple)
        elif tcat == "bomb":
            if cat != "rocket" and (cat != "bomb" or tprimal > primal):
                out.add(triple)
        elif cat not in ("bomb", "rocket"):
            if tcat == cat and tlength == length and tprimal > primal:
                out.add(triple)
    return out


def random_deal_hand(rng):
    deck = [r for r in range(13) for _ in range(4)] + [13, 14]
    rng.shuffle(deck)
    cnt = [0] * 15
    for r in deck[: rng.choice((17, 20))]:
        cnt[r] += 1
    return cnt


def random_sparse_hand(rng):
    cnt = [0] * 15
    for r in range(13):
        cnt[r] = max(0, rng.randbelow(8) - 3)  # skew toward empty slots
    cnt[13] = rng.randbelow(2)
    cnt[14] = rng.randbelow(2)
    if sum(cnt) == 0:
        cnt[rng.randbelow(15)] = 1
    return cnt


def production_triples(cnt, to_beat_pattern):
    return {ABSTRACT_ACTIONS[i] for i in matching_abstract_ids(cnt, to_beat_pattern)}


# ---------------------------------------------------------------------------
# oracles on concrete moves

# kicker categories: (kicker cards per kicker rank, kicker ranks per primal rank)
KICKERS = {
    "trio_single": (1, 1), "trio_pair": (2, 1),
    "plane_solo": (1, 1), "plane_pair": (2, 1),
    "quad_two_solo": (1, 2), "quad_two_pair": (2, 2),
}


def legal_patterns(cnt, to_beat):
    """Every concrete pattern playable from a count vector, kickers enumerated."""
    out = []
    for aid in matching_abstract_ids(cnt, to_beat):
        cat, primal, length = ABSTRACT_ACTIONS[aid]
        if cat not in KICKERS:
            out.append(CardPattern(cat, primal, length))
            continue
        need, per_rank = KICKERS[cat]
        top = 13 if need == 2 else 15  # pair kickers stop at the 2
        pool = [k for k in range(top) if cnt[k] >= need and not primal <= k < primal + length]
        for combo in combinations(pool, per_rank * length):
            kick = tuple(sorted(k for k in combo for _ in range(need)))
            out.append(CardPattern(cat, primal, length, kick))
    return out


def parse(ranks):
    """Classify a rank multiset as one move, None if it is not a pattern."""
    n = len(ranks)
    if n == 0:
        return PASS
    cnt = [0] * NUM_RANKS
    for r in ranks:
        cnt[r] += 1
    if cnt[13] > 1 or cnt[14] > 1:
        return None
    if n == 2 and cnt[13] == 1 and cnt[14] == 1:
        return ROCKET

    quads = [r for r in range(13) if cnt[r] == 4]
    trios = [r for r in range(13) if cnt[r] == 3]
    pairs = [r for r in range(13) if cnt[r] == 2]
    singles = [r for r in range(NUM_RANKS) if cnt[r] == 1]

    def consecutive(rs):
        return bool(rs) and rs[-1] <= CHAIN_TOP and rs[-1] - rs[0] + 1 == len(rs)

    if n == 1:
        return CardPattern("solo", ranks[0])
    if n == 2:
        return CardPattern("pair", pairs[0]) if pairs else None
    if n == 3:
        return CardPattern("trio", trios[0]) if trios else None
    if n == 4:
        if quads:
            return CardPattern("bomb", quads[0])
        if trios and len(singles) == 1:
            return CardPattern("trio_single", trios[0], 1, (singles[0],))
        return None
    if quads:
        if len(quads) == 1 and not trios:
            q = quads[0]
            if n == 6 and len(singles) == 2:
                return CardPattern("quad_two_solo", q, 1, tuple(singles))
            if n == 8 and len(pairs) == 2:
                return CardPattern("quad_two_pair", q, 1, (pairs[0], pairs[0], pairs[1], pairs[1]))
        return None
    if trios:
        if n == 5 and len(trios) == 1 and len(pairs) == 1:
            return CardPattern("trio_pair", trios[0], 1, (pairs[0],) * 2)
        span = len(trios)
        if not consecutive(trios):
            return None
        if n == 3 * span and 2 <= span <= 6:
            return CardPattern("plane", trios[0], span)
        if n == 4 * span and 2 <= span <= 5 and len(singles) == span:
            return CardPattern("plane_solo", trios[0], span, tuple(singles))
        if n == 5 * span and 2 <= span <= 4 and len(pairs) == span:
            kick = tuple(sorted(p for p in pairs for _ in range(2)))
            return CardPattern("plane_pair", trios[0], span, kick)
        return None
    if len(singles) == n and consecutive(singles) and n >= 5:
        return CardPattern("solo_chain", singles[0], n)
    if 2 * len(pairs) == n and consecutive(pairs) and len(pairs) >= 3:
        return CardPattern("pair_chain", pairs[0], len(pairs))
    return None


class TestActionTable:
    def test_census_by_category(self):
        want = {
            "pass": 1, "solo": 15, "pair": 13, "trio": 13,
            "trio_single": 13, "trio_pair": 13,
            "solo_chain": sum(11 - n + 2 for n in range(5, 13)),
            "pair_chain": sum(11 - n + 2 for n in range(3, 11)),
            "plane": sum(11 - n + 2 for n in range(2, 7)),
            "plane_solo": sum(11 - n + 2 for n in range(2, 6)),
            "plane_pair": sum(11 - n + 2 for n in range(2, 5)),
            "quad_two_solo": 13, "quad_two_pair": 13, "bomb": 13, "rocket": 1,
        }
        got = Counter(cat for cat, _, _ in ABSTRACT_ACTIONS)
        assert dict(got) == want
        assert sum(want.values()) == 309
        assert NUM_ACTIONS == 309
        assert len(set(ABSTRACT_ACTIONS)) == 309
        assert ABSTRACT_ACTIONS[PASS_ID] == ("pass", 0, 0)

    def test_ids_round_trip_through_index(self):
        for i, triple in enumerate(ABSTRACT_ACTIONS):
            assert ACTION_INDEX[triple] == i


def beats(a, b):
    """Does kicker-free move a beat b? Asked of the enumerator with a hand holding exactly a's cards."""
    cnt = [0] * NUM_RANKS
    for r in a.rank_multiset():
        cnt[r] += 1
    return abstract_id(a) in matching_abstract_ids(cnt, b)


class TestBeats:
    def test_rocket_beats_everything(self):
        assert beats(ROCKET, CardPattern("bomb", 12))
        assert beats(ROCKET, CardPattern("solo", 14))
        assert not beats(CardPattern("bomb", 12), ROCKET)

    def test_bomb_ordering(self):
        low, high = CardPattern("bomb", 2), CardPattern("bomb", 9)
        assert beats(high, low)
        assert not beats(low, high)
        assert beats(low, CardPattern("solo_chain", 0, 12))

    def test_same_category_needs_same_length_and_higher_primal(self):
        assert beats(CardPattern("pair_chain", 4, 3), CardPattern("pair_chain", 3, 3))
        assert not beats(CardPattern("pair_chain", 4, 4), CardPattern("pair_chain", 3, 3))
        assert not beats(CardPattern("solo", 5), CardPattern("pair", 3))
        assert not beats(CardPattern("trio", 5), CardPattern("trio", 5))


class TestGrammarAgainstOracle:
    def test_lead_sets_match_on_dealt_hands(self):
        rng = Rng(808)
        for _ in range(400):
            cnt = random_deal_hand(rng)
            assert production_triples(cnt, None) == oracle_triples(cnt, None)

    def test_lead_sets_match_on_sparse_hands(self):
        rng = Rng(809)
        for _ in range(600):
            cnt = random_sparse_hand(rng)
            assert production_triples(cnt, None) == oracle_triples(cnt, None)

    def test_follow_sets_match(self):
        rng = Rng(810)
        checked = 0
        while checked < 1000:
            cnt = random_sparse_hand(rng) if checked % 2 else random_deal_hand(rng)
            opp = random_deal_hand(rng)
            leads = [p for p in legal_patterns(opp, None) if p.category != "pass"]
            to_beat = rng.choice(leads)
            triple = (to_beat.category, to_beat.primal, to_beat.length)
            assert production_triples(cnt, to_beat) == oracle_triples(cnt, triple), (cnt, to_beat)
            checked += 1

    def test_follow_bomb_and_rocket_leads(self):
        rng = Rng(811)
        for _ in range(200):
            cnt = random_deal_hand(rng)
            for to_beat in (CardPattern("bomb", rng.randbelow(13)), ROCKET):
                triple = (to_beat.category, to_beat.primal, to_beat.length)
                assert production_triples(cnt, to_beat) == oracle_triples(cnt, triple)

    def test_ids_sorted_and_unique(self):
        rng = Rng(812)
        for _ in range(100):
            cnt = random_deal_hand(rng)
            ids = matching_abstract_ids(cnt, None)
            assert ids == sorted(set(ids))

    def test_pass_to_beat_rejected(self):
        with pytest.raises(ValueError):
            matching_abstract_ids([1] * 15, PASS)


class TestConcretePatterns:
    def test_legal_patterns_cover_matching_ids_exactly(self):
        rng = Rng(813)
        for trial in range(300):
            cnt = random_deal_hand(rng)
            to_beat = None
            if trial % 2:
                opp = random_deal_hand(rng)
                leads = [p for p in legal_patterns(opp, None) if p.category != "pass"]
                to_beat = rng.choice(leads)
            pats = legal_patterns(cnt, to_beat)
            assert {abstract_id(p) for p in pats} == set(matching_abstract_ids(cnt, to_beat))
            for p in pats:
                if p.category == "pass":
                    continue
                ms = p.rank_multiset()
                for r in set(ms):
                    assert ms.count(r) <= cnt[r], (p, cnt)

    def test_parse_emit_identity(self):
        rng = Rng(814)
        seen = set()
        for _ in range(250):
            cnt = random_deal_hand(rng)
            for p in legal_patterns(cnt, None):
                if p.category == "pass":
                    continue
                back = parse(p.rank_multiset())
                assert back == p, p
                seen.add(p.category)
        assert "plane_solo" in seen and "quad_two_solo" in seen

    def test_parse_rejects_non_patterns(self):
        assert parse((0, 1)) is None  # two cards of different ranks
        assert parse((0, 1, 2, 3)) is None  # four-card straight
        assert parse((0, 0, 0, 1, 1)) is not None  # trio_pair
        assert parse((0, 0, 0, 0, 1, 1)) is None  # quad kickers must differ
        assert parse((8, 9, 10, 11, 12)) is None  # chain through the 2
        assert parse((13, 13)) is None  # only one of each joker exists
        assert parse(()) == PASS
        assert parse((13, 14)) == ROCKET

    def test_parse_plane_shapes(self):
        assert parse((0, 0, 0, 1, 1, 1)) == CardPattern("plane", 0, 2)
        assert parse((0, 0, 0, 1, 1, 1, 5, 9)) == CardPattern("plane_solo", 0, 2, (5, 9))
        assert parse((0, 0, 0, 1, 1, 1, 5, 5, 9, 9)) == CardPattern(
            "plane_pair", 0, 2, (5, 5, 9, 9)
        )


class TestDecode:
    def test_lowest_kicker_preferred(self):
        # hand J J J 4 4 9: the pair of fours is not protected, so the
        # trio takes a four, not the nine
        cnt = [0] * 15
        cnt[8], cnt[1], cnt[6] = 3, 2, 1
        got = decode(ACTION_INDEX[("trio_single", 8, 1)], cnt, None)
        assert got.kickers == (1,)

    def test_kickers_spare_bombs(self):
        cnt = [0] * 15
        cnt[0], cnt[2], cnt[8] = 4, 1, 3  # 3333 5 JJJ
        got = decode(ACTION_INDEX[("trio_single", 8, 1)], cnt, None)
        assert got.kickers == (2,)

    def test_kickers_break_bomb_only_when_forced(self):
        cnt = [0] * 15
        cnt[0], cnt[8] = 4, 3  # 3333 JJJ
        got = decode(ACTION_INDEX[("trio_single", 8, 1)], cnt, None)
        assert got.kickers == (0,)

    def test_kickers_spare_rocket(self):
        cnt = [0] * 15
        cnt[8], cnt[13], cnt[14], cnt[6] = 3, 1, 1, 1  # JJJ B R 9
        got = decode(ACTION_INDEX[("trio_single", 8, 1)], cnt, None)
        assert got.kickers == (6,)
        cnt[6] = 0  # forced: lowest joker goes
        got = decode(ACTION_INDEX[("trio_single", 8, 1)], cnt, None)
        assert got.kickers == (13,)

    def test_decode_failures(self):
        cnt = [0] * 15
        cnt[0] = 3
        with pytest.raises(NoConcreteMove):
            decode(ACTION_INDEX[("trio_single", 0, 1)], cnt, None)  # no kicker at all
        with pytest.raises(NoConcreteMove):
            decode(ACTION_INDEX[("pass", 0, 0)], cnt, None)  # leader cannot pass
        with pytest.raises(NoConcreteMove):
            decode(ACTION_INDEX[("trio", 0, 1)], cnt, CardPattern("trio", 5))  # too low
        with pytest.raises(NoConcreteMove):
            decode(-1, cnt, None)

    def test_decode_agrees_with_legal_set(self):
        """decode succeeds on exactly the listed ids, leading and responding, and plays held cards."""
        rng = Rng(815)
        for trial in range(300):
            cnt = random_sparse_hand(rng) if trial % 4 == 3 else random_deal_hand(rng)
            to_beat = None
            if trial % 2:
                to_beat = rng.choice(legal_patterns(random_deal_hand(rng), None))
            legal = set(matching_abstract_ids(cnt, to_beat))
            for aid in range(-1, NUM_ACTIONS + 1):
                if aid not in legal:
                    with pytest.raises(NoConcreteMove):
                        decode(aid, cnt, to_beat)
                    continue
                got = decode(aid, cnt, to_beat)
                assert abstract_id(got) == aid
                ms = got.rank_multiset()
                assert all(ms.count(r) <= cnt[r] for r in set(ms)), (got, cnt)

    def test_decode_action_accepts_exactly_the_legal_moves(self):
        rng = Rng(816)
        for seed in range(4):
            game = DoudizhuGame(Rng(seed), variant=("full", "mini")[seed % 2])
            game.reset()
            while not game.is_over():
                legal = game.legal_moves()
                for aid in range(-1, NUM_ACTIONS + 1):
                    if aid in legal:
                        assert decode_action(game, aid) == decode(aid, game.counts[game.turn], game.to_beat)
                    else:
                        with pytest.raises(NoConcreteMove):
                            decode_action(game, aid)
                game.step(rng.choice(legal))


class TestEngine:
    def test_deal_shape_full(self):
        for landlord in (0, 1, 2):
            game = DoudizhuGame(Rng(5), landlord=landlord)
            game.reset()
            sizes = [sum(c) for c in game.counts]
            assert sizes[landlord] == 20
            assert sorted(sizes) == [17, 17, 20]
            assert game.turn == landlord
            total = [0] * 15
            for c in game.counts:
                for r in range(15):
                    total[r] += c[r]
            assert total == [4] * 13 + [1, 1]

    def test_deal_shape_mini(self):
        game = DoudizhuGame(Rng(6), variant="mini")
        game.reset()
        sizes = [sum(c) for c in game.counts]
        assert sizes == [10, 9, 9]
        total = [0] * 15
        for c in game.counts:
            for r in range(15):
                total[r] += c[r]
        # ranks 8..A in four suits, nothing else
        assert total == [0] * 5 + [4] * 7 + [0, 0, 0]

    def test_random_landlord_is_seeded(self):
        picks = {DoudizhuGame(Rng(seed), landlord="random").reset() for seed in range(30)}
        assert picks == {0, 1, 2}
        again = DoudizhuGame(Rng(3), landlord="random")
        assert again.reset() == DoudizhuGame(Rng(3), landlord="random").reset()

    def test_param_validation(self):
        with pytest.raises(InvalidParam):
            DoudizhuGame(Rng(0), landlord=3)
        with pytest.raises(InvalidParam):
            DoudizhuGame(Rng(0), variant="micro")

    def test_leader_cannot_pass_and_trick_resets_after_two_passes(self):
        rng = Rng(44)
        game = DoudizhuGame(Rng(21))
        game.reset()
        resets = 0
        while not game.is_over():
            legal = game.legal_moves()
            if game.to_beat is None:
                assert PASS_ID not in legal
            else:
                assert PASS_ID in legal
            before_owner = game.trick_owner
            game.step(rng.choice(legal))
            if not game.is_over() and game.to_beat is None and before_owner is not None:
                # two passes just closed the trick; the owner leads fresh
                assert game.turn == before_owner
                resets += 1
        assert resets > 0

    def test_payoffs_are_team_indicators(self):
        rng = Rng(9)
        seen_landlord_win = seen_peasant_win = False
        for seed in range(40):
            game = DoudizhuGame(Rng(seed), landlord=seed % 3)
            game.reset()
            while not game.is_over():
                game.step(rng.choice(game.legal_moves()))
            payoffs = game.payoffs()
            if game.winner == game.landlord:
                seen_landlord_win = True
                assert payoffs[game.landlord] == 1.0 and sum(payoffs) == 1.0
            else:
                seen_peasant_win = True
                assert payoffs[game.landlord] == 0.0 and sum(payoffs) == 2.0
                assert payoffs[game.winner] == 1.0
        assert seen_landlord_win and seen_peasant_win

    def test_card_conservation_each_step(self):
        rng = Rng(10)
        game = DoudizhuGame(Rng(77))
        game.reset()
        while not game.is_over():
            game.step(rng.choice(game.legal_moves()))
            total = list(game.played)
            for c in game.counts:
                for r in range(15):
                    total[r] += c[r]
            assert total == [4] * 13 + [1, 1]

    def test_illegal_moves_raise(self):
        game = DoudizhuGame(Rng(30))
        game.reset()
        with pytest.raises(IllegalMove):
            game.step(PASS_ID)  # leading
        missing = next(
            ACTION_INDEX[("solo", r, 1)] for r in range(15) if game.counts[game.turn][r] == 0
        )
        with pytest.raises(IllegalMove):
            game.step(missing)
        with pytest.raises(IllegalMove):
            game.step(999)

    def test_step_back_round_trip(self):
        game = DoudizhuGame(Rng(31), allow_step_back=True)
        game.reset()
        rng = Rng(90)
        start = game.snapshot()
        moved = 0
        while moved < 30 and not game.is_over():
            game.step(rng.choice(game.legal_moves()))
            moved += 1
        for _ in range(moved):
            assert game.step_back()
        assert game.snapshot() == start

    @staticmethod
    def state(game):
        """A deep copy of every field a move can change."""
        return copy.deepcopy((
            game.counts, game.sizes, game.played, game.recent, game.last_moves,
            game.to_beat, game.trick_owner, game.pass_count, game.turn, game.winner,
        ))

    def test_capture_and_snapshot_are_not_aliased(self):
        for variant in ("full", "mini"):
            game = DoudizhuGame(Rng(32), allow_step_back=True, variant=variant)
            game.reset()
            rng = Rng(91)
            while not game.is_over():
                views = [capture(game, seat) for seat in range(3)]
                snap = game.snapshot()
                frozen = copy.deepcopy((views, snap))
                game.step(rng.choice(game.legal_moves()))
                assert (views, snap) == frozen
                assert game.sizes == tuple(sum(c) for c in game.counts)

    def test_step_back_past_the_winning_move_restores_everything(self):
        for seed in range(6):
            game = DoudizhuGame(Rng(seed), allow_step_back=True, variant=("full", "mini")[seed % 2])
            game.reset()
            rng = Rng(100 + seed)
            while True:
                before = self.state(game)
                game.step(rng.choice(game.legal_moves()))
                if game.is_over():
                    break
            assert game.sizes[game.winner] == 0 and sum(game.counts[game.winner]) == 0
            assert game.step_back()
            assert self.state(game) == before
            assert game.sizes == tuple(sum(c) for c in game.counts)
            assert not game.is_over()

    def test_same_seed_same_log(self):
        logs = []
        for _ in range(2):
            game = DoudizhuGame(Rng(123), landlord="random")
            game.reset()
            rng = Rng(55)
            moves = []
            while not game.is_over():
                action = rng.choice(game.legal_moves())
                moves.append((game.current_player(), action))
                game.step(action)
            logs.append((game.landlord, tuple(moves), tuple(game.payoffs())))
        assert logs[0] == logs[1]


class TestObserve:
    def test_key_and_legal_gating(self):
        game = DoudizhuGame(Rng(12), landlord=1)
        game.reset()
        raw, legal, key = observe(game, 1)
        assert key.startswith("D1|L1|")
        assert legal == tuple(game.legal_moves())
        assert raw["hand"] == hand_literal(game.counts[1])
        _, other_legal, _ = observe(game, 0)
        assert other_legal == ()

    def test_planes_shape_and_hand_row(self):
        game = DoudizhuGame(Rng(13))
        game.reset()
        raw, _, _ = observe(game, 0)
        planes = encode_planes(raw)
        assert planes.shape == (6, 5, 15)
        for r in range(15):
            assert planes[0, raw["hand_counts"][r], r] == 1
        assert planes.sum() == 6 * 15  # each column one-hot in every plane


def oracle_planes(raw):
    """The plane encoder as 90 scalar writes, frozen as the reference."""
    vecs = [raw["hand_counts"], raw["others_counts"], *raw["recent_counts"], raw["played_counts"]]
    planes = np.zeros((6, 5, NUM_RANKS), dtype=np.int8)
    for p, vec in enumerate(vecs):
        for r in range(NUM_RANKS):
            planes[p, min(vec[r], 4), r] = 1
    return planes


def assert_planes_match_oracle(raw):
    planes = encode_planes(raw)
    assert planes.dtype == np.int8 and planes.shape == (6, 5, NUM_RANKS)
    assert planes.flags.c_contiguous and planes.flags.writeable and planes.flags.owndata
    assert planes.tobytes() == oracle_planes(raw).tobytes()


_COUNTS = st.tuples(*[st.integers(0, 6)] * NUM_RANKS)  # past 4, so the clamp is exercised


class TestPlanesAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(hand=_COUNTS, others=_COUNTS, recent=st.tuples(_COUNTS, _COUNTS, _COUNTS), played=_COUNTS)
    def test_drawn_count_vectors(self, hand, others, recent, played):
        raw = {"hand_counts": hand, "others_counts": others, "recent_counts": recent, "played_counts": played}
        assert_planes_match_oracle(raw)

    @pytest.mark.parametrize("game_id", ["doudizhu", "mini_doudizhu"])
    def test_every_observation_of_seeded_games(self, game_id):
        env = make(EnvConfig(game_id, seed=7))
        env.set_agents([RandomAgent() for _ in range(3)])
        for _ in range(20):
            trajectories, _ = env.run()
            for trajectory in trajectories:
                for t in trajectory.transitions:
                    assert_planes_match_oracle(t.state.raw)
                    assert_planes_match_oracle(t.next_state.raw)

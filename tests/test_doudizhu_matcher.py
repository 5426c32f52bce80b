"""The table-driven dou dizhu matcher against a frozen copy of the matcher it replaced.

`matching_abstract_ids` below is the closure-based matcher verbatim, with
its two helpers, as it stood before the per-category id tables. The
production matcher must return the identical list (same ids, same order)
for random hands over the full and the mini rank sets, against a to_beat
from every category at every length, bombs, the rocket and None.

The same holds for every hand that leads or responds in seeded games of
both variants, and for hand-built hands on both sides of each gate: the
kicker counts, the plane kicker caps, the longest straight, 2s that
join no chain, and one joker against both.
"""

import pytest

from cardtable.core.rng import Rng
from cardtable.games import doudizhu_patterns
from cardtable.games.doudizhu import DoudizhuGame
from cardtable.games.doudizhu_patterns import (
    ABSTRACT_ACTIONS,
    ACTION_INDEX,
    CHAIN_TOP,
    PASS_ID,
    CardPattern,
)

# ---------------------------------------------------------------------------
# frozen reference: the replaced matcher, unchanged


def _chain_runs(cnt, need: int) -> list[int]:
    """run[s] = consecutive ranks from s (chain ranks only) holding at least `need` cards."""
    run = [0] * (CHAIN_TOP + 2)
    for s in range(CHAIN_TOP, -1, -1):
        run[s] = run[s + 1] + 1 if cnt[s] >= need else 0
    return run


def _kicker_ranks(cnt, primal_lo: int, primal_hi: int, need: int, pair_kicker: bool) -> list[int]:
    """Ranks eligible as kickers, ascending. The primal span is excluded."""
    top = 13 if pair_kicker else 15
    return [k for k in range(top) if cnt[k] >= need and not primal_lo <= k < primal_hi]


def matching_abstract_ids(cnt, to_beat: CardPattern | None) -> list[int]:
    """Sorted abstract ids playable from a count vector against to_beat (None = leading)."""
    out: list[int] = []
    lead = to_beat is None
    if not lead:
        if to_beat.category == "pass":
            raise ValueError("to_beat cannot be a pass")
        out.append(PASS_ID)

    # rocket and bombs answer anything except the rocket or a bigger bomb
    if lead or to_beat.category != "rocket":
        if cnt[13] and cnt[14]:
            out.append(ACTION_INDEX[("rocket", 13, 1)])
        bomb_floor = to_beat.primal if not lead and to_beat.category == "bomb" else -1
        for r in range(13):
            if cnt[r] == 4 and r > bomb_floor:
                out.append(ACTION_INDEX[("bomb", r, 1)])
    if not lead and to_beat.category in ("bomb", "rocket"):
        return sorted(set(out))

    def want(cat: str) -> bool:
        return lead or to_beat.category == cat

    def floor_of(cat: str) -> int:
        return to_beat.primal if not lead and to_beat.category == cat else -1

    if want("solo"):
        out += [ACTION_INDEX[("solo", r, 1)] for r in range(floor_of("solo") + 1, 15) if cnt[r] >= 1]
    if want("pair"):
        out += [ACTION_INDEX[("pair", r, 1)] for r in range(floor_of("pair") + 1, 13) if cnt[r] >= 2]
    if want("trio"):
        out += [ACTION_INDEX[("trio", r, 1)] for r in range(floor_of("trio") + 1, 13) if cnt[r] >= 3]
    for cat, need in (("trio_single", 1), ("trio_pair", 2)):
        if want(cat):
            for r in range(floor_of(cat) + 1, 13):
                if cnt[r] >= 3 and _kicker_ranks(cnt, r, r + 1, need, cat == "trio_pair"):
                    out.append(ACTION_INDEX[(cat, r, 1)])

    chain_specs = (
        ("solo_chain", 1, 0, 5, 12),
        ("pair_chain", 2, 0, 3, 10),
        ("plane", 3, 0, 2, 6),
        ("plane_solo", 3, 1, 2, 5),
        ("plane_pair", 3, 2, 2, 4),
    )
    for cat, per_rank, kick_need, lo_len, hi_len in chain_specs:
        if not want(cat):
            continue
        run = _chain_runs(cnt, per_rank)
        lens = range(lo_len, hi_len + 1) if lead else (to_beat.length,)
        for n in lens:
            for s in range(floor_of(cat) + 1, CHAIN_TOP - n + 2):
                if run[s] < n:
                    continue
                if kick_need and len(_kicker_ranks(cnt, s, s + n, kick_need, kick_need == 2)) < n:
                    continue
                out.append(ACTION_INDEX[(cat, s, n)])

    for cat, need in (("quad_two_solo", 1), ("quad_two_pair", 2)):
        if want(cat):
            for r in range(floor_of(cat) + 1, 13):
                if cnt[r] == 4 and len(_kicker_ranks(cnt, r, r + 1, need, cat == "quad_two_pair")) >= 2:
                    out.append(ACTION_INDEX[(cat, r, 1)])

    return sorted(set(out))


# ---------------------------------------------------------------------------

MINI_RANKS = range(5, 12)  # 8..A
# every non-pass abstract action as the move to beat; kickers play no part
TO_BEAT = [CardPattern(cat, primal, length) for cat, primal, length in ABSTRACT_ACTIONS[1:]]


def random_hand(rng, ranks, jokers):
    """Dealt-like hands of 1..20 cards, or per-rank counts skewed toward empty slots."""
    cnt = [0] * 15
    if rng.randbelow(2):
        deck = [r for r in ranks for _ in range(4)] + ([13, 14] if jokers else [])
        rng.shuffle(deck)
        for r in deck[: 1 + rng.randbelow(min(20, len(deck)))]:
            cnt[r] += 1
    else:
        for r in ranks:
            cnt[r] = max(0, rng.randbelow(9) - 4)
        if jokers:
            cnt[13], cnt[14] = rng.randbelow(2), rng.randbelow(2)
    return cnt


@pytest.mark.parametrize("ranks, jokers, seed", [(range(13), True, 71), (MINI_RANKS, False, 72)])
def test_matches_frozen_reference(ranks, jokers, seed):
    rng = Rng(seed)
    for i in range(10_000):
        cnt = random_hand(rng, ranks, jokers)
        for to_beat in (None, TO_BEAT[i % len(TO_BEAT)]):
            want = matching_abstract_ids(cnt, to_beat)
            assert doudizhu_patterns.matching_abstract_ids(cnt, to_beat) == want, (cnt, to_beat)
            assert doudizhu_patterns.matching_abstract_ids(tuple(cnt), to_beat) == want, (cnt, to_beat)


# ---------------------------------------------------------------------------
# every hand a seeded game leads or responds from


@pytest.mark.parametrize("variant", ["full", "mini"])  # game ids doudizhu and mini_doudizhu
def test_every_decision_of_seeded_games_matches_frozen_reference(variant):
    leads = responses = 0
    for seed in range(200):
        game = DoudizhuGame(Rng(seed), variant=variant)
        game.reset()
        rng = Rng(10_000 + seed)
        while not game.is_over():
            cnt, to_beat = game.counts[game.turn], game.to_beat
            legal = game.legal_moves()
            assert legal == tuple(matching_abstract_ids(cnt, to_beat)), (cnt, to_beat)
            leads += to_beat is None
            responses += to_beat is not None
            game.step(rng.choice(legal))
    assert leads >= 1000 and responses >= 3000, (leads, responses)


# ---------------------------------------------------------------------------
# hand-built hands on both sides of every gate


def hand(counts: dict[int, int]) -> list[int]:
    cnt = [0] * 15
    for rank, n in counts.items():
        cnt[rank] = n
    return cnt


def lead_triples(cnt) -> list[tuple[str, int, int]]:
    """The lead list as triples, after checking it and every response list against the reference."""
    for to_beat in (None, *TO_BEAT):
        want = matching_abstract_ids(cnt, to_beat)
        assert doudizhu_patterns.matching_abstract_ids(cnt, to_beat) == want, (cnt, to_beat)
    return [ABSTRACT_ACTIONS[i] for i in doudizhu_patterns.matching_abstract_ids(cnt, None)]


def longest(cnt, cat: str) -> int:
    """The longest length of cat that a leader may play, 0 if none."""
    return max((n for c, _, n in lead_triples(cnt) if c == cat), default=0)


@pytest.mark.parametrize(
    "cat, without, with_",
    [
        ("trio_single", {0: 3}, {0: 3, 5: 1}),  # 1 against 2 solo ranks
        ("trio_single", {0: 3}, {0: 3, 13: 1}),  # a joker is a solo kicker
        ("trio_pair", {0: 3, 5: 1}, {0: 3, 5: 2}),  # 1 against 2 pair ranks
        ("quad_two_solo", {0: 4, 5: 1}, {0: 4, 5: 1, 7: 1}),  # 2 against 3 solo ranks
        ("quad_two_solo", {0: 4, 12: 1}, {0: 4, 12: 1, 14: 1}),
        ("quad_two_pair", {0: 4, 5: 2}, {0: 4, 5: 2, 7: 2}),  # 2 against 3 pair ranks
        ("quad_two_pair", {0: 4, 5: 2, 13: 1, 14: 1}, {0: 4, 5: 2, 12: 2}),  # jokers make no pair
    ],
)
def test_kicker_gates(cat, without, with_):
    assert (cat, 0, 1) not in lead_triples(hand(without))
    assert (cat, 0, 1) in lead_triples(hand(with_))


@pytest.mark.parametrize("trios", range(2, 7))
def test_plane_kicker_caps(trios):
    """n consecutive trios list plane_solo up to n_solo // 2 trios and plane_pair up to n_pair // 2."""
    body = {r: 3 for r in range(trios)}
    assert longest(hand(body), "plane") == trios
    for extra in range(9):  # solo kicker ranks 9..2, then the jokers
        cap = min(5, trios, (trios + extra) // 2)
        cnt = hand({**body, **{7 + k: 1 for k in range(extra)}})
        assert longest(cnt, "plane_solo") == (cap if cap >= 2 else 0)
    for extra in range(7):  # pair kicker ranks 9..2
        cap = min(4, trios, (trios + extra) // 2)
        cnt = hand({**body, **{7 + k: 2 for k in range(extra)}})
        assert longest(cnt, "plane_pair") == (cap if cap >= 2 else 0)


def test_twelve_rank_straight():
    straight = {r: 1 for r in range(12)}  # 3..A
    chains = {(s, n) for c, s, n in lead_triples(hand(straight)) if c == "solo_chain"}
    assert chains == {(s, n) for n in range(5, 13) for s in range(13 - n)}
    assert len(chains) == 36
    assert {t for t in lead_triples(hand({**straight, 12: 1})) if t[0] == "solo_chain"} == {
        ("solo_chain", s, n) for s, n in chains
    }  # the 2 extends nothing
    assert longest(hand({r: 1 for r in range(1, 13)}), "solo_chain") == 11  # 4..2 is only 4..A


def test_four_twos_join_no_chain():
    triples = lead_triples(hand({10: 4, 11: 4, 12: 4}))  # KKKK AAAA 2222
    assert {t for t in triples if t[0] in ("plane", "pair_chain", "solo_chain")} == {("plane", 10, 2)}
    assert {("bomb", r, 1) for r in (10, 11, 12)} <= set(triples)
    assert ("quad_two_solo", 12, 1) in triples and ("quad_two_pair", 12, 1) in triples
    assert longest(hand({7: 1, 8: 1, 9: 1, 10: 1, 11: 1, 12: 4}), "solo_chain") == 5  # T..A, not J..2


def test_one_joker_against_both():
    one, both = hand({13: 1}), hand({13: 1, 14: 1})
    assert lead_triples(one) == [("solo", 13, 1)]
    assert lead_triples(both) == [("solo", 13, 1), ("solo", 14, 1), ("rocket", 13, 1)]
    bomb = CardPattern("bomb", 12)
    assert doudizhu_patterns.matching_abstract_ids(one, bomb) == [PASS_ID]
    assert doudizhu_patterns.matching_abstract_ids(both, bomb) == [PASS_ID, ACTION_INDEX[("rocket", 13, 1)]]
    for cnt in (one, both):
        assert doudizhu_patterns.matching_abstract_ids(cnt, CardPattern("rocket", 13)) == [PASS_ID]

"""The table-driven dou dizhu matcher against a frozen copy of the matcher it replaced.

`matching_abstract_ids` below is the closure-based matcher verbatim, with
its two helpers, as it stood before the per-category id tables. The
production matcher must return the identical list (same ids, same order)
for random hands over the full and the mini rank sets, against a to_beat
from every category at every length, bombs, the rocket and None.
"""

import pytest

from cardtable.core.rng import Rng
from cardtable.games import doudizhu_patterns
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


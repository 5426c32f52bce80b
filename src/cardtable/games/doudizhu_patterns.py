"""Dou dizhu move grammar and the 309-entry abstract action table.

Ranks are dou dizhu order 0..14: 3 4 5 6 7 8 9 T J Q K A 2, then black
joker (13) and red joker (14). Hands are 15-slot count vectors. Chains
never contain 2s or jokers, so chain ranks stop at 11 (the ace).

Categories and their shapes (length is the chain/plane span, 1 otherwise):

  pass                                          1 entry
  solo            one card, any rank           15
  pair            two of a rank 3..2           13
  trio            three of a rank              13
  trio_single     trio + one kicker card       13
  trio_pair       trio + one kicker pair       13
  solo_chain      5..12 consecutive singles    36
  pair_chain      3..10 consecutive pairs      52
  plane           2..6 consecutive trios       45
  plane_solo      2..5 trios + that many solo kickers   38
  plane_pair      2..4 trios + that many pair kickers   30
  quad_two_solo   four of a rank + two solo kickers     13
  quad_two_pair   four of a rank + two pair kickers     13
  bomb            four of a rank               13
  rocket          both jokers                   1
                                        total 309

An abstract action is (category, primal rank, length); kickers are
dropped. Where a move carries several kickers (plane_solo, plane_pair,
quad_two_solo, quad_two_pair) the kicker ranks must be pairwise
distinct, which keeps every emitted card multiset parseable back to
exactly one pattern. Kickers never reuse a primal rank. Solo kickers
may be 2s or jokers; pair kickers stop at rank 12. Playing a trio,
pair, or chain card out of a held bomb is allowed.

Legal ids come from per-category id tables built at import:
`_IDS[category, length][primal]` is the id of that triple. A matcher
walks the tables in table order, so its list comes out sorted with no
sort. Leading and responding take separate paths:

- a lead reads the hand once, into four 15-bit rank masks: bit r is
  set in the first, second and third when rank r holds at least one,
  two and three cards, and in the fourth when it holds all four. Two
  fixed tables give the ascending set bits of a mask's low 8 and high 7
  bits, so each category's ranks come without a scan of the hand. The
  bit counts of the first two masks are the eligible solo and pair
  kicker ranks. Every primal rank is itself an eligible kicker rank, so
  a span of n primal ranks leaves that count minus n, and a kicker
  category needs no per-rank scan.
- runs: cut a mask to the chain ranks and AND it with itself shifted
  down by 1, 2, ..., n-1; bit s of the result is set exactly when ranks
  s..s+n-1 are all in the mask, so it holds the starts of the n-long
  chains. Each length ANDs one more shift onto the last, and the first
  length with no start ends the search. The three plane categories
  share one run computation over the trio mask.
- a response reads the same masks and checks only to_beat's category
  at to_beat's length, above its primal (chains by the same runs), then
  the bombs (above the bomb to beat, if any) and the rocket.

Decoding an abstract action completes the kickers deterministically:
take the lowest eligible kicker ranks that do not break a bomb (a rank
held as all four) or the rocket (both jokers held); fall back to
breaking ranks, lowest first, only when nothing else remains. Within a
rank the engine discards the lowest card ids first. `complete` does this
for an id that `matching_abstract_ids` lists for the hand, and also
returns the cards taken per rank; it checks nothing, since Game.step is
the one legality check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul

DD_RANK_NAMES = ("3", "4", "5", "6", "7", "8", "9", "T", "J", "Q", "K", "A", "2", "B", "R")
NUM_RANKS = 15
CHAIN_TOP = 11  # highest rank allowed inside a chain (the ace)

PASS_ID = 0

_CARDS_PER_RANK = {
    "solo": 1, "solo_chain": 1,
    "pair": 2, "pair_chain": 2,
    "trio": 3, "trio_single": 3, "trio_pair": 3,
    "plane": 3, "plane_solo": 3, "plane_pair": 3,
    "quad_two_solo": 4, "quad_two_pair": 4, "bomb": 4,
}


def french_to_dd_rank(suit_or_color: int, rank: int) -> int:
    """Map a french_joker card to its dou dizhu rank index."""
    if suit_or_color == 4:
        return 13 + rank
    return 12 if rank == 0 else rank - 1


@dataclass(frozen=True, slots=True)
class CardPattern:
    category: str
    primal: int = 0
    length: int = 1
    kickers: tuple[int, ...] = field(default=())

    def literal(self) -> str:
        """Log form ("333A"): the id's body plus the kickers as counts, joined as hand_literal does; or "pass"."""
        if self.category == "pass":
            return "pass"
        counts = list(_BODIES[abstract_id(self)])
        for k in self.kickers:
            counts[k] += 1
        return hand_literal(counts)


def hand_literal(counts) -> str:
    """Rank characters of a count vector, ascending ("3344452BR")."""
    return "".join(map(mul, DD_RANK_NAMES, counts))


def _build_table() -> tuple[tuple[str, int, int], ...]:
    entries: list[tuple[str, int, int]] = [("pass", 0, 0)]
    entries += [("solo", r, 1) for r in range(15)]
    for cat in ("pair", "trio", "trio_single", "trio_pair"):
        entries += [(cat, r, 1) for r in range(13)]
    spans = (
        ("solo_chain", 5, 12),
        ("pair_chain", 3, 10),
        ("plane", 2, 6),
        ("plane_solo", 2, 5),
        ("plane_pair", 2, 4),
    )
    for cat, lo, hi in spans:
        entries += [(cat, s, n) for n in range(lo, hi + 1) for s in range(CHAIN_TOP - n + 2)]
    for cat in ("quad_two_solo", "quad_two_pair", "bomb"):
        entries += [(cat, r, 1) for r in range(13)]
    entries.append(("rocket", 13, 1))
    return tuple(entries)


ABSTRACT_ACTIONS = _build_table()
ACTION_INDEX = {triple: i for i, triple in enumerate(ABSTRACT_ACTIONS)}
NUM_ACTIONS = len(ABSTRACT_ACTIONS)
assert NUM_ACTIONS == 309, f"abstract action table has {NUM_ACTIONS} entries"
assert len(ACTION_INDEX) == 309, "abstract action triples must be unique"


def abstract_id(pattern: CardPattern) -> int:
    """Abstract action id of a concrete pattern (kickers dropped)."""
    if pattern.category == "pass":
        return PASS_ID
    return ACTION_INDEX[(pattern.category, pattern.primal, pattern.length)]


# Per-category id tables, built once: _IDS[cat, length][primal] is the id of
# (cat, primal, length). Primals of one (category, length) start at 0 and run
# up in table order, so an id list built by ascending primal is sorted.
def _build_id_tables() -> dict[tuple[str, int], tuple[int, ...]]:
    tables: dict[tuple[str, int], list[int]] = {}
    for i, (cat, primal, length) in enumerate(ABSTRACT_ACTIONS):
        if cat in ("pass", "rocket"):
            continue
        ids = tables.setdefault((cat, length), [])
        assert primal == len(ids), f"{cat} primals are not 0, 1, 2, ..."
        ids.append(i)
    return {key: tuple(ids) for key, ids in tables.items()}


_IDS = _build_id_tables()
_SOLO, _PAIR, _TRIO, _BOMB = (_IDS[cat, 1] for cat in ("solo", "pair", "trio", "bomb"))
_TRIO_SINGLE, _TRIO_PAIR = _IDS["trio_single", 1], _IDS["trio_pair", 1]
_QUAD_TWO_SOLO, _QUAD_TWO_PAIR = _IDS["quad_two_solo", 1], _IDS["quad_two_pair", 1]
ROCKET_ID = ACTION_INDEX[("rocket", 13, 1)]

# kicker categories: (kicker cards per kicker rank, kicker ranks per primal rank)
_KICKERS = {
    "trio_single": (1, 1), "trio_pair": (2, 1),
    "plane_solo": (1, 1), "plane_pair": (2, 1),
    "quad_two_solo": (1, 2), "quad_two_pair": (2, 2),
}

# A hand's rank masks, read in one pass: _SPREAD[r][c] puts rank r's bit in
# the 16-bit field of every level below its count c, so the sum over a hand
# holds the ranks with at least 1, 2, 3 and 4 cards in fields 0..3. Jokers
# come one of each, so their rows stop at count 1.
_FIELD = 0x7FFF
_SPREAD = tuple(
    tuple(sum(1 << 16 * level + r for level in range(c)) for c in range(2 if r >= 13 else 5))
    for r in range(NUM_RANKS)
)
_CHAIN_MASK = (1 << CHAIN_TOP + 1) - 1  # ranks 3..A
_ROCKET_MASK = 3 << 13
# the ascending set bits of a mask's low 8 and high 7 bits: a mask's ranks
# are _LOW_BITS[mask & 255] + _HIGH_BITS[mask >> 8]
_LOW_BITS = tuple(tuple(r for r in range(8) if m >> r & 1) for m in range(256))
_HIGH_BITS = tuple(tuple(r for r in range(8, NUM_RANKS) if m >> r - 8 & 1) for m in range(128))
# a chain category's id tables by length, shortest first
_SOLO_CHAINS, _PAIR_CHAINS, _PLANES, _PLANE_SOLOS, _PLANE_PAIRS = (
    tuple(ids for (c, _), ids in _IDS.items() if c == cat)
    for cat in ("solo_chain", "pair_chain", "plane", "plane_solo", "plane_pair")
)
# what a response to each (category, length) reads: (shift of the field
# its primal ranks need, shift of its kicker field or -1, eligible kicker
# ranks it needs counting its own primal span, its id table)
_RESPONSE = {
    (cat, length): (
        16 * _CARDS_PER_RANK[cat] - 16,
        16 * _KICKERS[cat][0] - 16 if cat in _KICKERS else -1,
        (_KICKERS[cat][1] + 1) * length if cat in _KICKERS else 0,
        ids,
    )
    for (cat, length), ids in _IDS.items()
}


def _masks(cnt) -> int:
    """A hand's four rank masks, one per 16-bit field (see _SPREAD)."""
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 = cnt
    s = _SPREAD
    # unrolled: on CPython 3.11 about two thirds the cost of sum(map(getitem, _SPREAD, cnt))
    return (
        s[0][c0] + s[1][c1] + s[2][c2] + s[3][c3] + s[4][c4] + s[5][c5] + s[6][c6] + s[7][c7]
        + s[8][c8] + s[9][c9] + s[10][c10] + s[11][c11] + s[12][c12] + s[13][c13] + s[14][c14]
    )


def _runs(mask: int, lo: int, hi: int) -> list[int]:
    """Per length n from lo, the starts of mask's n-long runs of set bits; up to hi or the first n with none."""
    runs = []
    run = mask
    for shift in range(1, hi):
        run &= mask >> shift
        if not run:
            break
        if shift >= lo - 1:
            runs.append(run)
    return runs


def _lead(cnt) -> list[int]:
    """Every id a leader can play, in table order."""
    m = _masks(cnt)
    solo, pair, trio, quad = m & _FIELD, m >> 16 & _FIELD, m >> 32 & _FIELD, m >> 48
    # a primal rank is itself an eligible kicker rank, so a span of n
    # ranks leaves the eligible count minus n
    n_solo, n_pair = solo.bit_count(), pair.bit_count()
    out = [_SOLO[r] for r in _LOW_BITS[solo & 255] + _HIGH_BITS[solo >> 8]]
    if pair:
        out += [_PAIR[r] for r in _LOW_BITS[pair & 255] + _HIGH_BITS[pair >> 8]]
    if trio:
        trios = _LOW_BITS[trio & 255] + _HIGH_BITS[trio >> 8]
        out += [_TRIO[r] for r in trios]
        if n_solo >= 2:
            out += [_TRIO_SINGLE[r] for r in trios]
        if n_pair >= 2:
            out += [_TRIO_PAIR[r] for r in trios]
    for ids, run in zip(_SOLO_CHAINS, _runs(solo & _CHAIN_MASK, 5, 12)):
        out += [ids[s] for s in _LOW_BITS[run & 255] + _HIGH_BITS[run >> 8]]
    for ids, run in zip(_PAIR_CHAINS, _runs(pair & _CHAIN_MASK, 3, 10)):
        out += [ids[s] for s in _LOW_BITS[run & 255] + _HIGH_BITS[run >> 8]]
    planes = _runs(trio & _CHAIN_MASK, 2, 6)
    if planes:
        # planes[i] is the (i + 2)-long runs; n trios need n kicker ranks
        # besides their own, and zip stops at each category's longest plane
        for by_length, runs in (
            (_PLANES, planes),
            (_PLANE_SOLOS, planes[: n_solo // 2 - 1]),
            (_PLANE_PAIRS, planes[: n_pair // 2 - 1]),
        ):
            for ids, run in zip(by_length, runs):
                out += [ids[s] for s in _LOW_BITS[run & 255] + _HIGH_BITS[run >> 8]]
    if quad:
        quads = _LOW_BITS[quad & 255] + _HIGH_BITS[quad >> 8]
        if n_solo >= 3:
            out += [_QUAD_TWO_SOLO[r] for r in quads]
        if n_pair >= 3:
            out += [_QUAD_TWO_PAIR[r] for r in quads]
        out += [_BOMB[r] for r in quads]
    if solo & _ROCKET_MASK == _ROCKET_MASK:
        out.append(ROCKET_ID)
    return out


def _respond(cnt, to_beat: CardPattern) -> list[int]:
    """Pass, then the ids of to_beat's category and length above it, then bombs and the rocket."""
    cat = to_beat.category
    out = [PASS_ID]
    if cat == "rocket":
        return out
    m = _masks(cnt)
    bomb_floor = 0
    if cat == "bomb":
        bomb_floor = to_beat.primal + 1
    else:
        length = to_beat.length
        shift, kicker_shift, kickers, ids = _RESPONSE[cat, length]
        # the kicker count includes the primal span (see _lead)
        if kicker_shift < 0 or (m >> kicker_shift & _FIELD).bit_count() >= kickers:
            run = m >> shift & _FIELD
            if length > 1:
                held = run = run & _CHAIN_MASK
                for k in range(1, length):
                    run &= held >> k
            floor = to_beat.primal + 1
            run = run >> floor << floor
            if run:
                out += [ids[s] for s in _LOW_BITS[run & 255] + _HIGH_BITS[run >> 8]]
    quad = m >> 48
    if quad:
        quad = quad >> bomb_floor << bomb_floor
        out += [_BOMB[r] for r in _LOW_BITS[quad & 255] + _HIGH_BITS[quad >> 8]]
    if m & _ROCKET_MASK == _ROCKET_MASK:
        out.append(ROCKET_ID)
    return out


def matching_abstract_ids(cnt, to_beat: CardPattern | None) -> list[int]:
    """Sorted abstract ids playable from a count vector against to_beat (None = leading)."""
    if to_beat is None:
        return _lead(cnt)
    if to_beat.category == "pass":
        raise ValueError("to_beat cannot be a pass")
    return _respond(cnt, to_beat)


def _build_bodies() -> tuple[tuple[int, ...], ...]:
    """Per id, the cards of the move without its kickers as a count vector."""
    bodies = []
    for cat, primal, length in ABSTRACT_ACTIONS:
        body = [0] * NUM_RANKS
        if cat == "rocket":
            body[13] = body[14] = 1
        elif cat != "pass":
            for r in range(primal, primal + length):
                body[r] = _CARDS_PER_RANK[cat]
        bodies.append(tuple(body))
    return tuple(bodies)


_BODIES = _build_bodies()
_PLAIN = tuple(  # the whole pattern of each id that carries no kickers
    None if cat in _KICKERS else CardPattern(cat, primal, length)
    for cat, primal, length in ABSTRACT_ACTIONS
)


def complete(action_id: int, cnt) -> tuple[CardPattern, tuple[int, ...]]:
    """(pattern, cards taken per rank) for an id, kickers completed by the documented rule.

    Nothing is checked: the caller knows matching_abstract_ids lists the
    id for this hand, so the kickers exist.
    """
    pattern = _PLAIN[action_id]
    if pattern is not None:
        return pattern, _BODIES[action_id]
    cat, primal, length = ABSTRACT_ACTIONS[action_id]
    need, per_rank = _KICKERS[cat]
    # the eligible ranks (pairs stop below the 2s) outside the primal span,
    # lowest first, those that break a bomb or the held rocket after the rest
    has_rocket = cnt[13] >= 1 and cnt[14] >= 1
    pool = [k for k in range(13 if need == 2 else 15) if cnt[k] >= need and not primal <= k < primal + length]
    pool.sort(key=lambda k: cnt[k] == 4 or (k >= 13 and has_rocket))  # stable: each group stays ascending
    chosen = pool[: per_rank * length]
    taken = list(_BODIES[action_id])
    for k in chosen:
        taken[k] += need
    kick = tuple(sorted(k for k in chosen for _ in range(need)))
    return CardPattern(cat, primal, length, kick), tuple(taken)

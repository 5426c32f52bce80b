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

- a lead reads the hand once: the ranks holding at least one, two,
  three and four cards, the maximal chain runs among the first three,
  and the count of eligible solo and pair kicker ranks. Every primal
  rank is itself an eligible kicker rank, so a span of n primal ranks
  leaves that count minus n, and a kicker category needs no per-rank
  scan. Chains of each length are slices of the runs.
- a response checks only to_beat's category at to_beat's length, above
  its primal, then the bombs (above the bomb to beat, if any) and the
  rocket.

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

    def rank_multiset(self) -> tuple[int, ...]:
        """Every card of the move as a sorted rank tuple."""
        body = _BODIES[abstract_id(self)]
        ranks = list(self.kickers)
        for r in range(NUM_RANKS):
            if body[r]:
                ranks += [r] * body[r]
        return tuple(sorted(ranks))

    def literal(self) -> str:
        """Log form: concatenated rank characters ("333A"), or "pass"."""
        if self.category == "pass":
            return "pass"
        return "".join(DD_RANK_NAMES[r] for r in self.rank_multiset())


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


def _chain_runs(ranks) -> list[list[int]]:
    """[start, stop) of each maximal run of consecutive chain ranks in `ranks` (ascending)."""
    runs: list[list[int]] = []
    for r in ranks:
        if r > CHAIN_TOP:
            break
        if runs and runs[-1][1] == r:
            runs[-1][1] = r + 1
        else:
            runs.append([r, r + 1])
    return runs


def _chain_ids(cat: str, n: int, runs) -> list[int]:
    """Ids of the n-rank chains of cat that fit in runs, by start rank."""
    ids = _IDS.get((cat, n), ())
    out: list[int] = []
    for start, stop in runs:
        if stop - start >= n:
            out += ids[start : stop - n + 1]
    return out


def _kicker_ranks(cnt, primal_lo: int, primal_hi: int, need: int) -> list[int]:
    """Ranks eligible as kickers of `need` cards each, ascending. The primal span is excluded."""
    top = 13 if need == 2 else 15
    return [k for k in range(top) if cnt[k] >= need and not primal_lo <= k < primal_hi]


def _lead(cnt) -> list[int]:
    """Every id a leader can play, in table order."""
    solos = [r for r in range(NUM_RANKS) if cnt[r] >= 1]
    pairs = [r for r in solos if r < 13 and cnt[r] >= 2]
    trios = [r for r in pairs if cnt[r] >= 3]
    quads = [r for r in trios if cnt[r] == 4]
    # a primal rank is itself an eligible kicker rank, so a span of n
    # ranks leaves the eligible count minus n
    n_solo, n_pair = len(solos), len(pairs)
    out = [_SOLO[r] for r in solos]
    out += [_PAIR[r] for r in pairs]
    out += [_TRIO[r] for r in trios]
    if n_solo >= 2:
        out += [_TRIO_SINGLE[r] for r in trios]
    if n_pair >= 2:
        out += [_TRIO_PAIR[r] for r in trios]
    runs1, runs2, runs3 = _chain_runs(solos), _chain_runs(pairs), _chain_runs(trios)
    for cat, runs, lo, hi in (
        ("solo_chain", runs1, 5, 12),
        ("pair_chain", runs2, 3, 10),
        ("plane", runs3, 2, 6),
        ("plane_solo", runs3, 2, min(5, n_solo // 2)),
        ("plane_pair", runs3, 2, min(4, n_pair // 2)),
    ):
        longest = max([stop - start for start, stop in runs], default=0)
        for n in range(lo, min(hi, longest) + 1):
            out += _chain_ids(cat, n, runs)
    if n_solo >= 3:
        out += [_QUAD_TWO_SOLO[r] for r in quads]
    if n_pair >= 3:
        out += [_QUAD_TWO_PAIR[r] for r in quads]
    out += [_BOMB[r] for r in quads]
    if cnt[13] and cnt[14]:
        out.append(ROCKET_ID)
    return out


def _respond(cnt, to_beat: CardPattern) -> list[int]:
    """Pass, then the ids of to_beat's category and length above it, then bombs and the rocket."""
    cat = to_beat.category
    out = [PASS_ID]
    if cat == "rocket":
        return out
    bomb_floor = 0
    if cat == "bomb":
        bomb_floor = to_beat.primal + 1
    else:
        length = to_beat.length
        need = _CARDS_PER_RANK[cat]
        kicker_need, per_rank = _KICKERS.get(cat, (0, 0))
        # the count below includes the primal span (see _lead)
        if not kicker_need or len(_kicker_ranks(cnt, 0, 0, kicker_need)) >= (per_rank + 1) * length:
            floor = to_beat.primal + 1
            if length > 1:
                held = [r for r in range(floor, CHAIN_TOP + 1) if cnt[r] >= need]
                out += _chain_ids(cat, length, _chain_runs(held))
            else:
                ids = _IDS[cat, 1]
                if need == 4:
                    out += [ids[r] for r in range(floor, len(ids)) if cnt[r] == 4]
                else:
                    out += [ids[r] for r in range(floor, len(ids)) if cnt[r] >= need]
    if 4 in cnt:
        out += [_BOMB[r] for r in range(bomb_floor, 13) if cnt[r] == 4]
    if cnt[13] and cnt[14]:
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
    n_kick = per_rank * length
    pool = _kicker_ranks(cnt, primal, primal + length, need)
    has_rocket = cnt[13] >= 1 and cnt[14] >= 1

    def breaks_protected(k: int) -> bool:
        return cnt[k] == 4 or (k >= 13 and has_rocket)

    safe = [k for k in pool if not breaks_protected(k)]
    risky = [k for k in pool if breaks_protected(k)]
    chosen = safe[:n_kick] + risky[: max(0, n_kick - len(safe))]
    taken = list(_BODIES[action_id])
    for k in chosen:
        taken[k] += need
    kick = tuple(sorted(k for k in chosen for _ in range(need)))
    return CardPattern(cat, primal, length, kick), tuple(taken)


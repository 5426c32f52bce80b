"""Seven-card poker hand ranking.

evaluate_seven maps seven card ids (french family, rank = id % 13 with
0..12 meaning 2..A, suit = id // 13) to a totally ordered tuple. Higher
tuples win. The first element is the category:

  8 straight flush, 7 four of a kind, 6 full house, 5 flush, 4 straight,
  3 three of a kind, 2 two pair, 1 one pair, 0 high card

and the remaining elements are the category's tiebreak ranks, best
first. Suits never break ties. The wheel (A 2 3 4 5) counts as a
straight with top card 5. Equal tuples mean a chopped pot.
"""

from __future__ import annotations

def _straight_top(present: int) -> int:
    """Best straight top rank in a rank bitmask, -1 if none. Wheel top is rank 3 (the five)."""
    run = 0b11111
    for top in range(12, 3, -1):
        if present & (run << (top - 4)) == run << (top - 4):
            return top
    if present & 0b1000000001111 == 0b1000000001111:  # A 2 3 4 5
        return 3
    return -1


def evaluate_seven(card_ids) -> tuple:
    """Rank of the best five-card hand among the seven cards."""
    counts = [0] * 13
    suit_ranks = ([], [], [], [])
    for cid in card_ids:
        counts[cid % 13] += 1
        suit_ranks[cid // 13].append(cid % 13)

    flush_ranks = None
    for ranks in suit_ranks:
        if len(ranks) >= 5:
            flush_ranks = ranks
            break

    if flush_ranks is not None:
        mask = 0
        for r in flush_ranks:
            mask |= 1 << r
        top = _straight_top(mask)
        if top >= 0:
            return (8, top)

    quads = [r for r in range(12, -1, -1) if counts[r] == 4]
    if quads:
        kicker = max(r for r in range(13) if counts[r] and r != quads[0])
        return (7, quads[0], kicker)

    trips = [r for r in range(12, -1, -1) if counts[r] == 3]
    pairs = [r for r in range(12, -1, -1) if counts[r] == 2]
    if trips and (pairs or len(trips) > 1):
        over = trips[1] if len(trips) > 1 else -1
        pair = max(over, pairs[0] if pairs else -1)
        return (6, trips[0], pair)

    if flush_ranks is not None:
        best = sorted(flush_ranks, reverse=True)[:5]
        return (5, *best)

    present = 0
    for r in range(13):
        if counts[r]:
            present |= 1 << r
    top = _straight_top(present)
    if top >= 0:
        return (4, top)

    singles = [r for r in range(12, -1, -1) if counts[r] == 1]
    if trips:
        return (3, trips[0], *singles[:2])
    if len(pairs) >= 2:
        kicker = max(r for r in range(13) if counts[r] and r not in pairs[:2])
        return (2, pairs[0], pairs[1], kicker)
    if pairs:
        return (1, pairs[0], *singles[:3])
    return (0, *singles[:5])

"""Integer card ids, name tables and deck compositions.

A card is a plain int. Ids are family-scoped: within a family, a card's
id is `suit_or_color * ranks_per_suit + rank`. Families:

  french        52 distinct cards; ranks 0..12 are 2..9, T, J, Q, K, A; suits 0..3 (s, h, d, c)
  french_joker  the french layout plus two jokers on pseudo-suit 4:
                id 52 is the black joker (rank 0), id 53 the red joker (rank 1)
  leduc         6 cards; ranks 0..2 are J, Q, K; suits 0..1
  uno           54 distinct symbols; colors 0..3 (r, g, b, y), symbol ranks 0..9 digits,
                10 skip, 11 reverse, 12 draw2; pseudo-color 4 holds wild (id 52)
                and wild-draw-four (id 53)

DECKS maps a deck kind to its canonical id tuple: ascending, duplicates
adjacent. uno108 holds duplicates (one 0, two of each 1..9/skip/reverse/
draw2 per color, four of each wild), so ids identify the printed card,
not the physical copy. Engines copy a tuple into a list and take cards
from its end: blackjack, leduc, limit hold'em and uno with Rng.draw,
which shuffles only the positions it deals, dou dizhu after a full
Rng.shuffle. Both give the same card sequence for the same stream.
"""

from __future__ import annotations

FRENCH_RANKS = "23456789TJQKA"
FRENCH_SUITS = "shdc"
LEDUC_RANKS = "JQK"
UNO_COLORS = "rgby"
UNO_SYMBOLS = tuple(str(d) for d in range(10)) + ("skip", "reverse", "draw2")

DECKS: dict[str, tuple[int, ...]] = {
    "standard52": tuple(range(52)),
    "leduc6": tuple(range(6)),
    "uno108": tuple(
        sorted([c * 13 for c in range(4)] + [c * 13 + s for c in range(4) for s in range(1, 13)] * 2 + [52, 53] * 4)
    ),
    "doudizhu54": tuple(range(54)),
    # the 28-card variant keeps 8, 9, T, J, Q, K, A in all four suits, no jokers
    "mini_doudizhu": tuple(s * 13 + r for s in range(4) for r in range(6, 13)),
}

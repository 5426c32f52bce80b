"""UNO with 2 to 4 seats over the 108-card deck.

Moves are 62 integer actions: 0..51 play the colored card with that
type id (color*13 + symbol), 52..55 play a wild declaring red, green,
blue, or yellow, 56..59 the same for wild-draw-four, 60 draw, 61 pass.
Pass is only available right after a draw, to decline replaying the
drawn card.

Rules: a card is playable when its color matches the active color, its
symbol matches a colored discard top, or it is a wild. Skip advances
two seats, reverse flips direction (and acts as a skip with two
players), draw-two and wild-draw-four make the next player draw and
lose their turn. A player with nothing playable must draw; when the
drawn card is playable they may immediately play it or pass, otherwise
the turn passes by itself. When the draw pile empties, the
discard pile minus its top is reshuffled with the game rng; if there
is still nothing to draw the draw simply yields fewer cards (a bare
draw then behaves like a pass). The opening discard is the first
number card from the top of the pile; action cards flipped before it
go to the bottom. Wild-draw-four may be played regardless of held
colors, and there are no challenges or UNO calls.

Cards are drawn lazily (`Rng.draw`): the pile is the unshuffled rest of
the deck, or of the discards after a reshuffle, and each draw runs the
one shuffle step that fixes the next card. The opening's action cards
wait in `bottom`, a tuple drawn first-in-first-out once the pile is
empty, so every card comes out as from the pile shuffled up front with
those cards beneath it. `sizes` holds each seat's card count, kept in
step with `hands`, so a view or a win check never sums a hand.

First to empty their hand wins: payoff 1, everyone else 0.

Log literals: "r-7", "g-skip", "wild+b", "wild-d4+y" (declared color
after the plus).
"""

from __future__ import annotations

import numpy as np

from cardtable.core.cards import DECKS, UNO_COLORS, UNO_SYMBOLS
from cardtable.core.contracts import Game, int_param

NUM_TYPES = 54
WILD, WD4 = 52, 53
SKIP, REVERSE, DRAW2 = 10, 11, 12
DRAW_ACTION, PASS_ACTION = 60, 61
NUM_ACTIONS = 62

MAX_HAND_SIZE = 12  # keeps at least one number card in the pile after any deal


def type_literal(type_id: int, declared: int | None = None) -> str:
    if type_id == WILD:
        base = "wild"
    elif type_id == WD4:
        base = "wild-d4"
    else:
        base = UNO_COLORS[type_id // 13] + "-" + UNO_SYMBOLS[type_id % 13]
    if declared is not None and type_id in (WILD, WD4):
        base += "+" + UNO_COLORS[declared]
    return base


# _PLAYED[action id]: (type played, color declared or None), for the play ids 0..59
_PLAYED = tuple((t, None) for t in range(52)) + tuple((w, c) for w in (WILD, WD4) for c in range(4))


def play_action_ids(type_id: int) -> list[int]:
    """Action ids that play one card of this type."""
    return [a for a, (t, _) in enumerate(_PLAYED) if t == type_id]


_PLAYS = tuple(tuple(play_action_ids(t)) for t in range(NUM_TYPES))
# _MATCH[color][symbol + 1]: the ascending types playable on a top of that
# active color and symbol; symbol -1 is a wild top, which matches by color only
_MATCH = tuple(
    tuple(
        tuple(t for t in range(NUM_TYPES) if t >= 52 or t // 13 == color or t % 13 == symbol)
        for symbol in range(-1, 13)
    )
    for color in range(4)
)


class UnoGame(Game):
    """hands: 54 type counts by seat; sizes: their totals. pile: the
    undrawn stock, drawn lazily from the end; bottom: the opening's action
    cards, drawn in order once the pile is empty. discard: played types,
    top last."""

    SEATS = (2, 4)
    PARAMS = ("hand_size",)

    def __init__(self, rng, num_players: int | None = None, hand_size: int = 7):
        super().__init__(rng, num_players)
        self.hand_size = int_param("hand_size", hand_size, 1, MAX_HAND_SIZE)

    def _start(self) -> int:
        self.pile = pile = list(DECKS["uno108"])
        draw = self.rng.draw
        hands = [[0] * NUM_TYPES for _ in range(self.num_players)]
        for hand in hands:
            for _ in range(self.hand_size):
                hand[draw(pile)] += 1
        self.hands = tuple(map(tuple, hands))
        self.sizes = (self.hand_size,) * self.num_players
        bottom = []
        while True:  # number card opens the game, action cards go to the bottom
            top = draw(pile)
            if top < 52 and top % 13 <= 9:
                break
            bottom.append(top)
        self.bottom = tuple(bottom)
        self.discard = (top,)
        self.declared: int | None = None
        self.direction = 1
        self.pending: int | None = None  # drawn type the player may replay
        return 0

    # rule helpers ---------------------------------------------------

    def top(self) -> int:
        return self.discard[-1]

    def active_color(self) -> int:
        top = self.top()
        return self.declared if top >= 52 else top // 13

    def _matching(self) -> tuple[int, ...]:
        """The ascending types playable on the top: its _MATCH row."""
        top = self.discard[-1]
        return _MATCH[self.declared][0] if top >= 52 else _MATCH[top // 13][top % 13 + 1]

    def playable(self, type_id: int) -> bool:
        return type_id in self._matching()

    def _add_cards(self, seat: int, types, delta: int) -> None:
        """Replace seat's hand with one holding delta more of each type in types."""
        hand = list(self.hands[seat])
        for t in types:
            hand[t] += delta
        hands = list(self.hands)
        hands[seat] = tuple(hand)
        self.hands = tuple(hands)
        sizes = list(self.sizes)
        sizes[seat] += delta * len(types)
        self.sizes = tuple(sizes)

    def _draw_cards(self, seat: int, n: int) -> list[int]:
        # earlier snapshots hold the old pile; draw from a copy
        self.pile = pile = list(self.pile)
        draw = self.rng.draw
        got = []
        for _ in range(n):
            if not pile:
                if self.bottom:
                    got.append(self.bottom[0])
                    self.bottom = self.bottom[1:]
                    continue
                if len(self.discard) == 1:
                    break
                self.pile = pile = list(self.discard[:-1])  # reshuffled draw by draw
                self.discard = self.discard[-1:]
            got.append(draw(pile))
        self._add_cards(seat, got, 1)
        return got

    def _advance(self, seats: int) -> None:
        self.turn = (self.turn + self.direction * seats) % self.num_players

    # game protocol --------------------------------------------------

    def _legal_moves(self) -> tuple[int, ...]:
        if self.pending is not None:
            return (*_PLAYS[self.pending], PASS_ACTION)
        hand = self.hands[self.turn]
        moves = [a for t in self._matching() if hand[t] for a in _PLAYS[t]]
        if not moves:  # stuck players draw, nobody draws voluntarily
            return (DRAW_ACTION,)
        return tuple(moves)

    def _apply(self, action_id: int) -> None:
        seat = self.turn
        if action_id == DRAW_ACTION:
            got = self._draw_cards(seat, 1)
            if got and self.playable(got[0]):
                self.pending = got[0]
            else:
                self._advance(1)
            return
        if action_id == PASS_ACTION:
            self.pending = None
            self._advance(1)
            return

        played, declared = _PLAYED[action_id]
        self.pending = None
        self._add_cards(seat, (played,), -1)
        self.discard += (played,)
        self.declared = declared
        if not self.sizes[seat]:
            self._results = tuple(int(i == seat) for i in range(self.num_players))
            return
        if played >= 52:
            if played == WD4:
                self._draw_cards((seat + self.direction) % self.num_players, 4)
                self._advance(2)
            else:
                self._advance(1)
            return
        symbol = played % 13
        if symbol == SKIP:
            self._advance(2)
        elif symbol == REVERSE:
            self.direction = -self.direction
            self._advance(2 if self.num_players == 2 else 1)
        elif symbol == DRAW2:
            self._draw_cards((seat + self.direction) % self.num_players, 2)
            self._advance(2)
        else:
            self._advance(1)

    def snapshot(self):
        return (
            self.hands,
            self.sizes,
            self.pile,
            self.bottom,
            self.discard,
            self.declared,
            self.direction,
            self.turn,
            self.pending,
            self._results,
            self.rng.getstate(),
        )

    def _restore(self, snap) -> None:
        (self.hands, self.sizes, self.pile, self.bottom, self.discard, self.declared, self.direction, self.turn,
         self.pending, self._results, rng_state) = snap
        self.rng.setstate(rng_state)


def capture(game: UnoGame, seat: int):
    """(legal ids, view): the seat's legal ids and the state its view reads."""
    legal = game.legal_ids_for(seat)
    view = (
        seat,
        game.hands[seat],
        game.sizes,
        game.discard,
        game.declared,
        game.active_color(),
        game.direction,
        game.pending,
    )
    return legal, view


def render_raw(view) -> dict:
    seat, hand, sizes, discard, declared, color, direction, pending = view
    top = discard[-1]
    discarded = [0] * NUM_TYPES
    for t in discard:
        discarded[t] += 1
    return {
        "seat": seat,
        "hand_counts": hand,
        "hand": tuple(type_literal(t) for t in range(NUM_TYPES) for _ in range(hand[t])),
        "top": type_literal(top, declared),
        "top_type": top,
        "active_color": UNO_COLORS[color],
        "active_color_index": color,
        "direction": direction,
        "hand_sizes": sizes,
        "discarded_counts": tuple(discarded),
        "pending": None if pending is None else type_literal(pending),
    }


def render_key(view) -> str:
    seat, hand, sizes, discard, declared, _, direction, pending = view
    pend = "-" if pending is None else str(pending)
    return (
        f"U{seat}|h{''.join(map(str, hand))}|t{type_literal(discard[-1], declared)}"
        f"|d{direction}|p{pend}|s{','.join(map(str, sizes))}"
    )


def observe(game: UnoGame, seat: int):
    legal, view = capture(game, seat)
    return render_raw(view), legal, render_key(view)


def encode_planes(raw: dict) -> np.ndarray:
    """Four rows of 54: hand counts, active color block, top-symbol
    slots across colors (zero when the top is a wild), discard counts."""
    planes = np.zeros((4, NUM_TYPES), dtype=np.int8)
    planes[0, :] = raw["hand_counts"]
    color = raw["active_color_index"]
    planes[1, color * 13 : color * 13 + 13] = 1
    top = raw["top_type"]
    if top < 52:
        planes[2, [c * 13 + top % 13 for c in range(4)]] = 1
    planes[3, :] = raw["discarded_counts"]
    return planes

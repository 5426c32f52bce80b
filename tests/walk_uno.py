"""The eager uno deal and the 54-type legal-move scan that the lazy deal
and the match table in cardtable.games.uno replaced.

EagerUnoGame is UnoGame with _start, _draw_cards and _legal_moves as they
stood before, kept verbatim as the test oracle: the whole deck shuffled
up front, the opening's action cards inserted under the pile, the
discards shuffled in one go when the pile runs out, and every type
tested against the top. test_uno.py plays it in lockstep with UnoGame
and checks that both deal, draw and offer the same cards and moves.
Moves, the win check and hand sizes are UnoGame's own.
"""

from __future__ import annotations

from cardtable.core.cards import DECKS
from cardtable.games.uno import DRAW_ACTION, NUM_TYPES, PASS_ACTION, UnoGame, play_action_ids


class EagerUnoGame(UnoGame):
    def _start(self) -> int:
        self.pile = list(DECKS["uno108"])  # draw from the end
        self.rng.shuffle(self.pile)
        hands = [[0] * NUM_TYPES for _ in range(self.num_players)]
        for hand in hands:
            for _ in range(self.hand_size):
                hand[self.pile.pop()] += 1
        self.hands = tuple(map(tuple, hands))  # 54 type counts by seat
        while True:  # number card opens the game, action cards cycle to the bottom
            top = self.pile.pop()
            if top < 52 and top % 13 <= 9:
                self.discard = (top,)
                break
            self.pile.insert(0, top)
        self.declared: int | None = None
        self.direction = 1
        self.turn = 0
        self.pending: int | None = None  # drawn type the player may replay
        self.winner: int | None = None
        # not part of the eager deal: the fields UnoGame's _apply and _add_cards read
        self.sizes = tuple(map(sum, self.hands))
        self.bottom = ()
        return self.turn

    def _draw_cards(self, seat: int, n: int) -> list[int]:
        # earlier snapshots hold the old pile; draw from a copy
        self.pile = pile = list(self.pile)
        got = []
        for _ in range(n):
            if not pile:
                if len(self.discard) > 1:
                    self.pile = pile = list(self.discard[:-1])
                    self.discard = self.discard[-1:]
                    self.rng.shuffle(pile)
                if not pile:
                    break
            got.append(pile.pop())
        self._add_cards(seat, got, 1)
        return got

    def _legal_moves(self) -> tuple[int, ...]:
        if self.pending is not None:
            return (*play_action_ids(self.pending), PASS_ACTION)
        # playable()'s rule with the top read once; a wild top matches by color only
        top = self.discard[-1]
        color = self.declared if top >= 52 else top // 13
        symbol = top % 13 if top < 52 else -1
        moves = []
        for t, held in enumerate(self.hands[self.turn]):
            if held and (t >= 52 or t // 13 == color or t % 13 == symbol):
                moves += play_action_ids(t)
        if not moves:  # stuck players draw, nobody draws voluntarily
            return (DRAW_ACTION,)
        return tuple(moves)

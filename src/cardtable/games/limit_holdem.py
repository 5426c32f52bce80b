"""Fixed-limit texas hold'em, two players by default, and the poker hand it shares with leduc.

Each seat gets two hole cards. Seat 0 posts the small blind (0.5 bb),
seat 1 the big blind (1 bb); the blinds count as bets of the first
round. Heads-up, the small blind acts first before the flop and second
after it; with three or more seats the player after the big blind opens
and seat 0 opens the later rounds. Four betting rounds (hole cards,
flop, turn, river) deal 0, 3, 1 and 1 community cards, with a raise of
`fixed_raise` big blinds in the first two rounds and double that in the
last two, at most four raises per round. At showdown the best
seven-card hand wins; suits never break ties and the ace plays low in
a five-high straight. Chips count half big blinds, so payoffs can be
fractional big blinds. The community cards are BettingGame's board;
BettingGame states the rest of the hand, deal and snapshot included.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cardtable.core.cards import DECKS, FRENCH_RANKS, FRENCH_SUITS
from cardtable.core.contracts import Game, int_param
from cardtable.errors import GameNotOver
from cardtable.games.hand_rank import evaluate_seven

CALL, RAISE, FOLD, CHECK = 0, 1, 2, 3
NUM_ACTIONS = 4

SMALL_BLIND = 1  # half big blinds
BIG_BLIND = 2
_MOVE_CHAR = "crfk"  # history letter by action id
# legal moves in id order, indexed [facing a bet][a raise is left]
_LEGAL = (((FOLD, CHECK), (RAISE, FOLD, CHECK)), ((CALL, FOLD), (CALL, RAISE, FOLD)))


def card_name(cid: int) -> str:
    return FRENCH_RANKS[cid % 13] + FRENCH_SUITS[cid // 13]


class BettingGame(Game):
    """One fixed-limit poker hand: the rule leduc and limit hold'em share.

    Action ids: 0 call, 1 raise, 2 fold, 3 check. The seat to act checks
    when it has matched the round's highest bet and calls when it has
    not; it may raise while the round has seen fewer than MAX_RAISES
    raises, and it may always fold, even when checking is free. A call
    puts in the difference to the highest bet, a raise that difference
    plus raise_sizes[round_index]. Legal moves are listed in id order.
    Bets are compared on `chips`, each seat's total in the pot: every
    live seat has the same total when a round opens. Stacks are
    unbounded, so every seat matches the bet or folds; there are no side
    pots.

    A betting round closes once every live seat has acted since the last
    raise. One counter, `to_close`, holds the moves left before that: a
    new round sets it to the number of live seats, a raise to that
    number minus one, and every other move (a fold too) takes one off;
    the round closes at 0. `turn` passes to the next live seat.

    A hand opens with the whole DECK in the stock, the private cards
    _deal_hands draws, each seat's blinds as its chips and
    _first_actor(0) to act. When a round before LAST_ROUND closes,
    BOARD[round_index] cards are drawn onto the shared board and the
    first live seat from _first_actor(round_index) opens the next. When
    round LAST_ROUND closes, the live seats show down; _showdown_winners
    names the best hands. A fold that leaves one live seat ends the hand
    at once, that seat winning. Either way the winners split the pot
    equally: each nets pot / winners less its own chips, every other
    seat loses its chips. Net chips are exact, an int on an even split
    and a Fraction otherwise, so they sum to zero; payoffs() divides
    them by CHIPS_PER_UNIT.

    The betting history is one letter per move (c call, r raise, f fold,
    k check), with '/' between rounds.

    A subclass sets SEATS, MAX_RAISES, LAST_ROUND, CHIPS_PER_UNIT, DECK,
    BOARD, blinds and raise_sizes and writes _deal_hands, _first_actor and
    _showdown_winners. The state, all of it in snapshot(): hands, board,
    folded, chips, round_base (every live seat's chips when this round
    opened), round_index, raises (this round), turn, to_close,
    history, _results (net chips by seat once the hand is over, else
    None), stock and the generator state.
    """

    MAX_RAISES: int
    LAST_ROUND: int
    CHIPS_PER_UNIT: int
    DECK: tuple[int, ...]
    BOARD: tuple[int, ...]  # cards dealt as each round opens, by round index
    blinds: tuple[int, ...]  # chips by seat before the first move
    raise_sizes: tuple[int, ...]  # by round index

    def _start(self) -> int:
        n = self.num_players
        self.stock = stock = list(self.DECK)
        self.hands = self._deal_hands(stock)
        self.board: tuple[int, ...] = ()
        self.folded = (False,) * n
        self.chips = self.blinds
        self.round_base = self.round_index = self.raises = 0
        self.to_close = n
        self.history = ""
        self._results: tuple | None = None
        return self._first_actor(0)

    def _deal_board(self) -> None:
        """Deal this round's board cards and note the bet every live seat has in."""
        # earlier snapshots hold the old stock; draw from a copy
        self.stock = stock = list(self.stock)
        for _ in range(self.BOARD[self.round_index]):
            self.board += (self.rng.draw(stock),)
        self.round_base = max(self.chips)

    def _legal_moves(self) -> tuple[int, ...]:
        chips = self.chips
        return _LEGAL[chips[self.turn] < max(chips)][self.raises < self.MAX_RAISES]

    def _next_actor(self, seat: int) -> int:
        nxt = (seat + 1) % self.num_players
        while self.folded[nxt]:
            nxt = (nxt + 1) % self.num_players
        return nxt

    def _apply(self, move: int) -> None:
        seat = self.turn
        self.history += _MOVE_CHAR[move]
        self.to_close -= 1
        if move == FOLD:
            self.folded = self.folded[:seat] + (True,) + self.folded[seat + 1 :]
            if self.folded.count(False) == 1:
                self._settle((self.folded.index(False),))
                return
        elif move != CHECK:
            chips = list(self.chips)
            chips[seat] = max(chips)
            if move == RAISE:
                chips[seat] += self.raise_sizes[self.round_index]
                self.raises += 1
                self.to_close = self.folded.count(False) - 1
            self.chips = tuple(chips)
        if not self.to_close:
            self._advance_round()
        else:
            self.turn = self._next_actor(seat)

    def _advance_round(self) -> None:
        if self.round_index == self.LAST_ROUND:
            self._settle(self._showdown_winners())
            return
        self.round_index += 1
        self._deal_board()
        self.raises = 0
        self.to_close = self.folded.count(False)
        first = self._first_actor(self.round_index)
        self.turn = self._next_actor(first) if self.folded[first] else first
        self.history += "/"

    def _settle(self, winners) -> None:
        chips = self.chips
        pot = sum(chips)
        share, odd = divmod(pot, len(winners))
        if odd:
            share = Fraction(pot, len(winners))
        results = [-c for c in chips]
        for i in winners:
            results[i] += share
        self._results = tuple(results)

    def is_over(self) -> bool:
        return self._results is not None

    def payoffs(self) -> list[float]:
        if self._results is None:
            raise GameNotOver("poker hand still running")
        unit = self.CHIPS_PER_UNIT
        return [float(r) / unit for r in self._results]

    def snapshot(self):
        return (
            self.hands,
            self.board,
            self.folded,
            self.chips,
            self.round_base,
            self.round_index,
            self.raises,
            self.turn,
            self.to_close,
            self.history,
            self._results,
            self.stock,
            self.rng.getstate(),
        )

    def _restore(self, snap) -> None:
        (self.hands, self.board, self.folded, self.chips, self.round_base, self.round_index, self.raises,
         self.turn, self.to_close, self.history, self._results, self.stock, rng_state) = snap
        self.rng.setstate(rng_state)


class LimitHoldemGame(BettingGame):
    MAX_RAISES = 4
    LAST_ROUND = 3
    CHIPS_PER_UNIT = 2  # half big blinds per big blind
    DECK = DECKS["standard52"]
    BOARD = (0, 3, 1, 1)  # hole cards, flop, turn, river
    SEATS = (2, 10)
    PARAMS = ("fixed_raise",)

    def __init__(self, rng, num_players: int | None = None, fixed_raise: int = 1):
        super().__init__(rng, num_players)
        self.fixed_raise = int_param("fixed_raise", fixed_raise, 1)
        self.blinds = (SMALL_BLIND, BIG_BLIND) + (0,) * (self.num_players - 2)
        bb = 2 * self.fixed_raise
        self.raise_sizes = (bb, bb, 2 * bb, 2 * bb)  # half big blinds, doubled from the turn

    def _first_actor(self, round_index: int) -> int:
        n = self.num_players
        if round_index == 0:
            return 0 if n == 2 else 2 % n
        return 1 if n == 2 else 0

    def _deal_hands(self, stock: list[int]) -> tuple:
        draw = self.rng.draw
        return tuple(tuple(sorted((draw(stock), draw(stock)))) for _ in range(self.num_players))

    def _showdown_winners(self) -> list[int]:
        """The live seats holding the best seven-card hand."""
        ranks = {i: evaluate_seven(self.hands[i] + self.board) for i, out in enumerate(self.folded) if not out}
        best = max(ranks.values())
        return [i for i, rank in ranks.items() if rank == best]


def capture(game: LimitHoldemGame, seat: int):
    """(legal ids, view): the seat's legal ids and the state its view reads."""
    legal = game.legal_ids_for(seat)
    view = (
        seat,
        game.hands[seat],
        game.board,
        game.history,
        game.round_index,
        game.chips[seat],
        max(game.chips) - game.round_base,
        sum(game.chips),
        game.folded,
    )
    return legal, view


def render_raw(view) -> dict:
    seat, hole, community, history, round_index, my_chips, max_bet, pot, folded = view
    return {
        "seat": seat,
        "hole": hole,
        "hole_names": tuple(card_name(c) for c in hole),
        "community": community,
        "community_names": tuple(card_name(c) for c in community),
        "history": history,
        "round": round_index + 1,
        "my_chips": my_chips / 2,
        "max_bet": max_bet / 2,
        "pot": pot / 2,
        "alive": tuple(i for i, out in enumerate(folded) if not out),
    }


def render_key(view) -> str:
    seat, hole, community, history = view[:4]
    return "H{}|{}|{}|{}".format(
        seat, ".".join(map(card_name, hole)), ".".join(map(card_name, community)), history
    )


def observe(game: LimitHoldemGame, seat: int):
    legal, view = capture(game, seat)
    return render_raw(view), legal, render_key(view)


def encode_planes(raw: dict) -> np.ndarray:
    """Hole one-hot (52), community one-hot (52), then chips-in, max bet, pot in bb."""
    planes = np.zeros(107, dtype=np.float64)
    for cid in raw["hole"]:
        planes[cid] = 1.0
    for cid in raw["community"]:
        planes[52 + cid] = 1.0
    planes[104] = raw["my_chips"]
    planes[105] = raw["max_bet"]
    planes[106] = raw["pot"]
    return planes

"""Fixed-limit texas hold'em, two players by default.

Seat 0 posts the small blind (0.5 bb), seat 1 the big blind (1 bb).
Heads-up, the small blind acts first before the flop and second after
it; with three or more seats the player after the big blind opens and
seat 0 opens the later rounds. Four betting rounds (hole cards, flop,
turn, river) with a fixed raise of `fixed_raise` big blinds in the
first two rounds and double that in the last two, and at most four
raises per round. Stacks are unbounded so everyone either matches the
bet or folds; there are no side pots. Folding is legal even when
checking is free.

A betting round closes once every live seat has acted since the last
raise. One counter, `to_close`, holds the moves left before that: a new
round sets it to the number of live seats, a raise to that number minus
one, and every other move (a fold too) takes one off. The round closes
when it reaches 0.

Chips are tracked in integer half-big-blind units and split pots are
divided exactly equally, so payoffs can be fractional big blinds but
always sum to zero. Suits never break ties and the ace plays low in a
five-high straight.

Action ids (shared with leduc): 0 call, 1 raise, 2 fold, 3 check.
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
MAX_RAISES = 4
_COMMUNITY_PER_ROUND = (0, 3, 1, 1)
_MOVE_CHAR = {CALL: "c", RAISE: "r", FOLD: "f", CHECK: "k"}
# legal moves in id order, indexed [facing a bet][a raise is left]
_LEGAL = (((FOLD, CHECK), (RAISE, FOLD, CHECK)), ((CALL, FOLD), (CALL, RAISE, FOLD)))


def card_name(cid: int) -> str:
    return FRENCH_RANKS[cid % 13] + FRENCH_SUITS[cid // 13]


def showdown_winners(hole_by_seat, community, alive) -> list[int]:
    """The seats among alive holding the best seven-card hand."""
    best = None
    out: list[int] = []
    for seat in alive:
        rank = evaluate_seven(hole_by_seat[seat] + community)
        if best is None or rank > best:
            best, out = rank, [seat]
        elif rank == best:
            out.append(seat)
    return out


def _add(values: tuple, seat: int, amount) -> tuple:
    out = list(values)
    out[seat] += amount
    return tuple(out)


class LimitHoldemGame(Game):
    def __init__(self, rng, allow_step_back=False, num_players: int = 2, fixed_raise: int = 1):
        super().__init__(rng, allow_step_back)
        self.num_players = int_param("num_players", num_players, 2, 10)
        self.fixed_raise = int_param("fixed_raise", fixed_raise, 1)

    def _raise_size(self) -> int:
        bb = 2 * self.fixed_raise
        return bb if self.round_index < 2 else 2 * bb

    def _first_actor(self, round_index: int) -> int:
        n = self.num_players
        if round_index == 0:
            return 0 if n == 2 else 2 % n
        return 1 if n == 2 else 0

    def _start(self) -> int:
        n = self.num_players
        self.stock = stock = list(DECKS["standard52"])
        draw = self.rng.draw
        self.hands = tuple(tuple(sorted((draw(stock), draw(stock)))) for _ in range(n))
        self.community: tuple[int, ...] = ()
        self.folded = (False,) * n
        self.chips = self.round_bets = (SMALL_BLIND, BIG_BLIND) + (0,) * (n - 2)
        self.round_index = 0
        self.raises = 0  # this round
        self.to_act = self._first_actor(0)
        self.to_close = n  # moves left before this round closes
        self.history = ""
        self._results: tuple | None = None  # net half-bb per seat, Fraction when a pot splits unevenly
        return self.to_act

    def _legal_moves(self) -> tuple[int, ...]:
        bets = self.round_bets
        return _LEGAL[bets[self.to_act] < max(bets)][self.raises < MAX_RAISES]

    def current_player(self) -> int:
        return self.to_act

    def _next_actor(self, seat: int) -> int:
        nxt = (seat + 1) % self.num_players
        while self.folded[nxt]:
            nxt = (nxt + 1) % self.num_players
        return nxt

    def _apply(self, move: int) -> None:
        seat = self.to_act
        self.history += _MOVE_CHAR[move]
        self.to_close -= 1
        if move == FOLD:
            self.folded = self.folded[:seat] + (True,) + self.folded[seat + 1 :]
            if self.folded.count(False) == 1:
                self._settle_fold(self.folded.index(False))
                return
        elif move != CHECK:
            put = max(self.round_bets) - self.round_bets[seat]
            if move == RAISE:
                put += self._raise_size()
                self.raises += 1
                self.to_close = self.folded.count(False) - 1
            self.round_bets = _add(self.round_bets, seat, put)
            self.chips = _add(self.chips, seat, put)
        if not self.to_close:
            self._advance_round()
        else:
            self.to_act = self._next_actor(seat)

    def _advance_round(self) -> None:
        if self.round_index == 3:
            self._settle_showdown()
            return
        self.round_index += 1
        dealt = _COMMUNITY_PER_ROUND[self.round_index]
        # earlier snapshots hold the old stock; draw from a copy
        self.stock = stock = list(self.stock)
        self.community += tuple([self.rng.draw(stock) for _ in range(dealt)])
        self.raises = 0
        self.to_close = self.folded.count(False)
        first = self._first_actor(self.round_index)
        self.to_act = self._next_actor(first) if self.folded[first] else first
        self.round_bets = (0,) * self.num_players
        self.history += "/"

    def _settle_fold(self, winner: int) -> None:
        pot = sum(self.chips)
        self._results = tuple(pot - c if i == winner else -c for i, c in enumerate(self.chips))

    def _settle_showdown(self) -> None:
        alive = [i for i, out in enumerate(self.folded) if not out]
        winners = showdown_winners(self.hands, self.community, alive)
        pot = sum(self.chips)
        share = Fraction(pot, len(winners))
        if share.denominator == 1:
            share = int(share)
        self._results = tuple(-c + share if i in winners else -c for i, c in enumerate(self.chips))

    def is_over(self) -> bool:
        return self._results is not None

    def payoffs(self) -> list[float]:
        if self._results is None:
            raise GameNotOver("hold'em hand still running")
        return [float(r) / 2 for r in self._results]  # half-bb to bb

    def snapshot(self):
        return (
            self.hands,
            self.community,
            self.folded,
            self.chips,
            self.round_bets,
            self.round_index,
            self.raises,
            self.to_act,
            self.to_close,
            self.history,
            self._results,
            self.stock,
            self.rng.getstate(),
        )

    def _restore(self, snap) -> None:
        (self.hands, self.community, self.folded, self.chips, self.round_bets, self.round_index, self.raises,
         self.to_act, self.to_close, self.history, self._results, self.stock, rng_state) = snap
        self.rng.setstate(rng_state)


def capture(game: LimitHoldemGame, seat: int, terminal: bool = False):
    """(legal ids, view): the seat's legal ids and the state its view reads."""
    legal = game.legal_ids_for(seat, terminal)
    view = (
        seat,
        game.hands[seat],
        game.community,
        game.history,
        game.round_index,
        game.chips[seat],
        max(game.round_bets),
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


def observe(game: LimitHoldemGame, seat: int, terminal: bool = False):
    legal, view = capture(game, seat, terminal)
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

"""Single-player blackjack against a house dealer.

Rules kept to the core decision problem: hit or stand only (no splits,
doubles, insurance, or bets). The dealer stands on every 17, soft or
hard. A natural pays the same +1 as any win, so payoffs are -1, 0, +1.
Hands are tracked as french rank indices; suits never matter.

Action ids: 0 hit, 1 stand.
"""

from __future__ import annotations

import numpy as np

from cardtable.core.cards import DECKS, FRENCH_RANKS
from cardtable.core.contracts import Game
from cardtable.errors import GameNotOver

HIT, STAND = 0, 1
NUM_ACTIONS = 2
_MOVES = (HIT, STAND)

_RANK_SCORE = tuple(min(r + 2, 10) for r in range(12)) + (1,)  # ace counts 1 here
_DECK_RANKS = tuple(cid % 13 for cid in DECKS["standard52"])


def hand_value(ranks) -> tuple[int, bool]:
    """Best blackjack total and whether an ace is counted as 11."""
    total = 0
    aces = 0
    for r in ranks:
        total += _RANK_SCORE[r]
        if r == 12:
            aces += 1
    if aces and total + 10 <= 21:
        return total + 10, True
    return total, False


def upcard_score(rank: int) -> int:
    """What the dealer's upcard shows: its blackjack score, an ace as 11."""
    return 11 if rank == 12 else _RANK_SCORE[rank]


def info_key(score: int, soft: bool, num_cards: int, dealer_visible: int) -> str:
    """Information key of the player's total, softness, card count and the dealer's visible score."""
    return f"B|{score}{'s' if soft else 'h'}|n{num_cards}|u{dealer_visible}"


def settle(player_ranks, dealer_ranks) -> int:
    """The player's result once both hands are played out: -1, 0 or +1."""
    p, _ = hand_value(player_ranks)
    if p > 21:
        return -1
    d, _ = hand_value(dealer_ranks)
    if d > 21 or p > d:
        return 1
    return -1 if p < d else 0


class BlackjackGame(Game):
    SEATS = (1, 1)

    def _start(self) -> int:
        self.stock = stock = list(_DECK_RANKS)  # a fresh 52-card stock per hand
        draw = self.rng.draw
        player, upcard = draw(stock), draw(stock)  # the dealer's first card is the upcard
        self.hand = (player, draw(stock))
        self.dealer_hand = (upcard, draw(stock))
        self._payoff: int | None = None  # set when the hand ends
        return 0

    def _apply(self, move: int) -> None:
        # earlier snapshots hold the old stock; draw from a copy
        self.stock = stock = list(self.stock)
        if move == HIT:
            self.hand += (self.rng.draw(stock),)
            if hand_value(self.hand)[0] > 21:
                self._payoff = -1
        else:
            while hand_value(self.dealer_hand)[0] < 17:  # the house stands on every 17
                self.dealer_hand += (self.rng.draw(stock),)
            self._payoff = settle(self.hand, self.dealer_hand)

    def is_over(self) -> bool:
        return self._payoff is not None

    def _legal_moves(self) -> tuple[int, ...]:
        return _MOVES

    def payoffs(self) -> list[float]:
        if self._payoff is None:
            raise GameNotOver("blackjack hand still running")
        return [float(self._payoff)]

    def snapshot(self):
        return self.hand, self.dealer_hand, self.stock, self._payoff, self.rng.getstate()

    def _restore(self, snap) -> None:
        self.hand, self.dealer_hand, self.stock, self._payoff, rng_state = snap
        self.rng.setstate(rng_state)


def capture(game: BlackjackGame, seat: int):
    """(legal ids, view): the legal ids, the player's hand and its value, and
    the dealer's visible cards (the upcard until the hand is over) and value."""
    score, soft = hand_value(game.hand)
    legal = game.legal_ids_for(seat)
    if legal:
        up = game.dealer_hand[0]
        dealer = (up,)
        dealer_visible = upcard_score(up)
    else:  # the hand is over: every dealer card shows
        dealer = game.dealer_hand
        dealer_visible = hand_value(dealer)[0]
    return legal, (seat, game.hand, score, soft, dealer, dealer_visible)


def render_raw(view) -> dict:
    seat, hand, score, soft, dealer, dealer_visible = view
    return {
        "seat": seat,
        "hand": tuple(FRENCH_RANKS[r] for r in hand),
        "score": score,
        "soft": soft,
        "dealer_visible": dealer_visible,
        "dealer_cards": tuple(FRENCH_RANKS[r] for r in dealer),
    }


def render_key(view) -> str:
    _, hand, score, soft, _, dealer_visible = view
    return info_key(score, soft, len(hand), dealer_visible)


def observe(game: BlackjackGame, seat: int):
    legal, view = capture(game, seat)
    return render_raw(view), legal, render_key(view)


def encode_planes(raw: dict) -> np.ndarray:
    """Integer pair: player score, dealer visible score."""
    return np.array([raw["score"], raw["dealer_visible"]], dtype=np.int64)

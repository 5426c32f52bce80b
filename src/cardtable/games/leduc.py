"""Two-player leduc hold'em.

Six cards (J, Q, K in two suits). Both players ante 1 unit and get one
private card. Two betting rounds with raises of 2 units in round one
and 4 in round two, at most two raises per round; round one's close
deals one public card. At showdown a private card pairing the public
card wins, otherwise the higher private rank; equal ranks split.
Payoffs are net units won, antes included. The antes are BettingGame's
blinds and the public card its one-card board; limit hold'em's
BettingGame states the rest of the hand, deal and snapshot included.

Hands hold card ids 0..5 (suit * 3 + rank); play only ever depends on
the rank, id % 3.
"""

from __future__ import annotations

import numpy as np

from cardtable.core.cards import DECKS, LEDUC_RANKS
from cardtable.games.limit_holdem import CALL, CHECK, FOLD, NUM_ACTIONS, RAISE, BettingGame  # noqa: F401

ANTE = 1


def showdown_winner(rank0: int, rank1: int, public_rank: int) -> int:
    """0 or 1 for a winner, -1 for a split. Ranks, not card ids."""
    if rank0 == public_rank:
        return 0
    if rank1 == public_rank:
        return 1
    if rank0 == rank1:
        return -1
    return 0 if rank0 > rank1 else 1


def info_key(seat: int, private_rank: int, public_rank: int | None, history: str) -> str:
    pub = "-" if public_rank is None else LEDUC_RANKS[public_rank]
    return f"L{seat}|{LEDUC_RANKS[private_rank]}|{pub}|{history}"


class LeducGame(BettingGame):
    SEATS = (2, 2)
    MAX_RAISES = 2
    LAST_ROUND = 1
    DECK = DECKS["leduc6"]
    BOARD = (0, 1)  # round two opens with the public card
    blinds = (ANTE, ANTE)
    raise_sizes = (2, 4)

    def _deal_hands(self, stock: list[int]) -> tuple[int, int]:
        return self.rng.draw(stock), self.rng.draw(stock)  # one private card id by seat

    def draw_public(self) -> int:
        """The public card: the deal stream's next draw, as _deal_board makes
        it when round one closes. MCCFR's tree walk draws it straight after
        the reset. Earlier snapshots hold the old stock, so the draw takes a
        copy."""
        self.stock = stock = list(self.stock)
        return self.rng.draw(stock)

    def _first_actor(self, round_index: int) -> int:
        return 0

    def _showdown_winners(self) -> tuple[int, ...]:
        winner = showdown_winner(self.hands[0] % 3, self.hands[1] % 3, self.board[0] % 3)
        return (0, 1) if winner < 0 else (winner,)


def capture(game: LeducGame, seat: int):
    """(legal ids, view): the seat's legal ids and the state its view reads."""
    legal = game.legal_ids_for(seat)
    view = (
        seat,
        game.hands[seat],
        game.board,
        game.history,
        game.chips[seat],
        game.chips[1 - seat],
        game.round_index,
    )
    return legal, view


def render_raw(view) -> dict:
    seat, private, board, history, my_chips, opp_chips, round_index = view
    public = board[0] if board else None
    return {
        "seat": seat,
        "hand": LEDUC_RANKS[private % 3],
        "hand_card": private,
        "public": None if public is None else LEDUC_RANKS[public % 3],
        "public_card": public,
        "history": history,
        "my_chips": my_chips,
        "opp_chips": opp_chips,
        "round": round_index + 1,
    }


def render_key(view) -> str:
    seat, private, board, history = view[:4]
    return info_key(seat, private % 3, board[0] % 3 if board else None, history)


def observe(game: LeducGame, seat: int):
    legal, view = capture(game, seat)
    return render_raw(view), legal, render_key(view)


def encode_planes(raw: dict) -> np.ndarray:
    """Own-card one-hot by id (6), public one-hot by id (6), both contributions."""
    planes = np.zeros(14, dtype=np.float64)
    planes[raw["hand_card"]] = 1.0
    if raw["public_card"] is not None:
        planes[6 + raw["public_card"]] = 1.0
    planes[12] = raw["my_chips"]
    planes[13] = raw["opp_chips"]
    return planes

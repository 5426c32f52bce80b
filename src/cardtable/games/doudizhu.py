"""Dou dizhu: the landlord against a two-peasant team.

Full variant deals 17 cards to each of three players from the 54-card
deck and gives the 3 reserved cards to the landlord (hand sizes
20/17/17). The mini variant uses the 28-card deck (ranks 8..A, four
suits), deals 9 each, and reserves 1 for the landlord. There is no
bidding: the landlord seat is a game parameter (default 0, or "random"
to let the game rng pick), and the landlord always leads the first
trick.

A trick closes when two consecutive players pass; the last non-pass
player then leads fresh. The leader may not pass. The game ends the
moment a hand empties. Payoffs are win indicators: (1, 0, 0)-style for
a landlord win, both peasants get 1 when either peasant goes out.
Bombs do not multiply payoffs.

Moves are the 309 abstract action ids from doudizhu_patterns; kickers
are completed by the documented lowest-non-breaking rule.
"""

from __future__ import annotations

import numpy as np

from cardtable.core.cards import DECKS
from cardtable.core.contracts import Game
from cardtable.errors import GameNotOver, InvalidParam
from cardtable.games.doudizhu_patterns import (
    DD_RANK_NAMES,
    NUM_ACTIONS,
    NUM_RANKS,
    CardPattern,
    abstract_id,
    decode,
    french_to_dd_rank,
    matching_abstract_ids,
)

NUM_PLAYERS = 3
_VARIANTS = {"full": ("doudizhu54", 17, 3), "mini": ("mini_doudizhu", 9, 1)}
_DD_RANK = tuple(french_to_dd_rank(cid // 13, cid % 13) for cid in range(54))  # by french_joker id


class DoudizhuGame(Game):
    """Three-seat dou dizhu over count-vector hands."""

    def __init__(self, rng, allow_step_back: bool = False, landlord=0, variant: str = "full"):
        if variant not in _VARIANTS:
            raise InvalidParam(f"unknown variant {variant!r}, expected 'full' or 'mini'")
        seat = isinstance(landlord, int) and not isinstance(landlord, bool) and 0 <= landlord < NUM_PLAYERS
        if not (seat or landlord == "random"):  # True == 1 and 1.0 == 1, so no `in (0, 1, 2)`
            raise InvalidParam(f"landlord must be a seat 0..2 or 'random', got {landlord!r}")
        self.variant = variant
        self.landlord_param = landlord
        super().__init__(rng, allow_step_back)

    def _start(self) -> int:
        deck_kind, per_player, reserve = _VARIANTS[self.variant]
        self.landlord = self.rng.randbelow(3) if self.landlord_param == "random" else self.landlord_param
        order = list(DECKS[deck_kind])
        self.rng.shuffle(order)

        self.counts = [[0] * NUM_RANKS for _ in range(NUM_PLAYERS)]  # hands as 15-slot count vectors
        pos = 0
        for seat in range(NUM_PLAYERS):
            take = per_player + (reserve if seat == self.landlord else 0)
            for cid in order[pos : pos + take]:
                self.counts[seat][_DD_RANK[cid]] += 1
            pos += take

        self.played = [0] * NUM_RANKS  # union of everything discarded so far
        self.to_beat: CardPattern | None = None
        self.trick_owner: int | None = None
        self.pass_count = 0
        self.turn = self.landlord
        self.winner: int | None = None
        self.move_log: list[tuple[int, int]] = []  # (seat, action_id)
        self.recent: list[list[int]] = [[0] * NUM_RANKS for _ in range(3)]  # last 3 moves as count vectors
        return self.turn

    # move plumbing -------------------------------------------------

    def _legal_moves(self) -> list[int]:
        return matching_abstract_ids(self.counts[self.turn], self.to_beat)

    def current_player(self) -> int:
        return self.turn

    def decode_move(self, action_id: int) -> CardPattern:
        return decode(action_id, self.counts[self.turn], self.to_beat)

    def _apply(self, action_id: int) -> None:
        seat = self.turn
        pattern = self.decode_move(action_id)
        played_vec = [0] * NUM_RANKS
        if pattern.category == "pass":
            self.pass_count += 1
            if self.pass_count >= 2:
                self.to_beat = None
                self.trick_owner = None
                self.pass_count = 0
        else:
            ms = pattern.rank_multiset()
            for r in set(ms):
                take = ms.count(r)
                self.counts[seat][r] -= take
                self.played[r] += take
                played_vec[r] = take
            self.to_beat = pattern
            self.trick_owner = seat
            self.pass_count = 0
            if sum(self.counts[seat]) == 0:
                self.winner = seat
                return
        self.move_log.append((seat, action_id))
        self.recent = self.recent[1:] + [played_vec]
        self.turn = (seat + 1) % NUM_PLAYERS

    def is_over(self) -> bool:
        return self.winner is not None

    def payoffs(self) -> list[float]:
        if self.winner is None:
            raise GameNotOver("no hand has emptied yet")
        if self.winner == self.landlord:
            return [1.0 if i == self.landlord else 0.0 for i in range(NUM_PLAYERS)]
        return [0.0 if i == self.landlord else 1.0 for i in range(NUM_PLAYERS)]

    # snapshots ------------------------------------------------------

    def snapshot(self):
        return (
            self.landlord,
            tuple(tuple(c) for c in self.counts),
            tuple(self.played),
            self.to_beat,
            self.trick_owner,
            self.pass_count,
            self.turn,
            self.winner,
            tuple(self.move_log),
            tuple(tuple(v) for v in self.recent),
            self.rng.getstate(),
        )

    def restore(self, snap) -> None:
        (self.landlord, counts, played, self.to_beat, self.trick_owner, self.pass_count, self.turn,
         self.winner, log, recent, rng_state) = snap
        self.counts = [list(c) for c in counts]
        self.played = list(played)
        self.move_log = list(log)
        self.recent = [list(v) for v in recent]
        self.rng.setstate(rng_state)


def hand_literal(counts) -> str:
    """Rank characters of a count vector, ascending ("3344452BR")."""
    return "".join(DD_RANK_NAMES[r] * counts[r] for r in range(NUM_RANKS))


def capture(game: DoudizhuGame, seat: int, terminal: bool = False):
    """(legal ids, view): the seat's legal ids and the state its view reads."""
    legal = game.legal_ids_for(seat, terminal)
    view = (
        seat,
        game.landlord,
        tuple(map(tuple, game.counts)),
        tuple(game.played),
        tuple(map(tuple, game.recent)),
        game.to_beat,
        game.trick_owner,
        tuple(game.move_log[-3:]),
    )
    return legal, view


def render_raw(view) -> dict:
    seat, landlord, counts, played, recent, to_beat, trick_owner, moves = view
    others = [0] * NUM_RANKS
    for other in range(NUM_PLAYERS):
        if other != seat:
            for r in range(NUM_RANKS):
                others[r] += counts[other][r]
    return {
        "seat": seat,
        "landlord": landlord,
        "hand": hand_literal(counts[seat]),
        "hand_counts": counts[seat],
        "others_counts": tuple(others),
        "played_counts": played,
        "recent_counts": recent,
        "hand_sizes": tuple(sum(c) for c in counts),
        "to_beat": None if to_beat is None else to_beat.literal(),
        "trick_owner": trick_owner,
        "recent_moves": moves,
    }


def render_key(view) -> str:
    seat, landlord, counts, played, _, to_beat, _, moves = view
    recent = ",".join(f"{s}:{aid}" for s, aid in moves)
    lead = "-" if to_beat is None else str(abstract_id(to_beat))
    return f"D{seat}|L{landlord}|{hand_literal(counts[seat])}|p{hand_literal(played)}|b{lead}|{recent}"


def observe(game: DoudizhuGame, seat: int, terminal: bool = False):
    legal, view = capture(game, seat, terminal)
    return render_raw(view), legal, render_key(view)


def encode_planes(raw: dict) -> np.ndarray:
    """Six 5x15 planes, each a one-hot count encoding over the ranks.

    Plane 0 is the player's hand, plane 1 the union of the other two
    hands, planes 2-4 the three most recent moves (oldest first), and
    plane 5 the union of everything played so far.
    """
    vecs = [raw["hand_counts"], raw["others_counts"], *raw["recent_counts"], raw["played_counts"]]
    planes = np.zeros((6, 5, NUM_RANKS), dtype=np.int8)
    for p, vec in enumerate(vecs):
        for r in range(NUM_RANKS):
            planes[p, min(vec[r], 4), r] = 1
    return planes


def decode_action(game: DoudizhuGame, action_id: int) -> CardPattern:
    return game.decode_move(action_id)

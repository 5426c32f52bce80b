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
are completed by the documented lowest-non-breaking rule. Game.step is
the one legality check: it has already checked a move against the
cached legal moves, so _apply completes it with `complete` and checks
nothing again.
"""

from __future__ import annotations

from operator import add, sub

import numpy as np

from cardtable.core.cards import DECKS
from cardtable.core.contracts import Game
from cardtable.errors import InvalidParam
from cardtable.games.doudizhu_patterns import (
    NUM_ACTIONS,
    NUM_RANKS,
    PASS_ID,
    CardPattern,
    abstract_id,
    complete,
    french_to_dd_rank,
    hand_literal,
    matching_abstract_ids,
)

NUM_PLAYERS = 3
_VARIANTS = {"full": ("doudizhu54", 17, 3), "mini": ("mini_doudizhu", 9, 1)}
_DD_RANK = tuple(french_to_dd_rank(cid // 13, cid % 13) for cid in range(54))  # by french_joker id
_NO_CARDS = (0,) * NUM_RANKS
# render_key's "seat:id" text of each recent move, and the text of each lead id
_MOVE_TEXT = tuple(tuple(f"{seat}:{aid}" for aid in range(NUM_ACTIONS)) for seat in range(NUM_PLAYERS))
_ID_TEXT = tuple(map(str, range(NUM_ACTIONS)))
# encode_planes: per level k, a bytes.translate table marking the counts c
# with min(c, 4) == k, and where each (plane, level, rank) cell sits in the
# five translated copies of the 90 counts laid end to end
_LEVEL_TABLES = tuple(bytes(min(c, 4) == k for c in range(256)) for k in range(5))
_PLANE_ORDER = np.arange(5 * 6 * NUM_RANKS).reshape(5, 6, NUM_RANKS).transpose(1, 0, 2).copy()


class DoudizhuGame(Game):
    """Three-seat dou dizhu over count-vector hands."""

    SEATS = (NUM_PLAYERS, NUM_PLAYERS)
    PARAMS = ("landlord",)

    def __init__(self, rng, num_players: int | None = None, landlord=0, variant: str = "full"):
        super().__init__(rng, num_players)
        if variant not in _VARIANTS:
            raise InvalidParam(f"unknown variant {variant!r}, expected 'full' or 'mini'")
        seat = isinstance(landlord, int) and not isinstance(landlord, bool) and 0 <= landlord < NUM_PLAYERS
        if not (seat or landlord == "random"):  # True == 1 and 1.0 == 1, so no `in (0, 1, 2)`
            raise InvalidParam(f"landlord must be a seat 0..2 or 'random', got {landlord!r}")
        self.variant = variant
        self.landlord_param = landlord

    def _start(self) -> int:
        deck_kind, per_player, reserve = _VARIANTS[self.variant]
        self.landlord = self.rng.randbelow(3) if self.landlord_param == "random" else self.landlord_param
        order = list(DECKS[deck_kind])
        self.rng.shuffle(order)

        hands = [[0] * NUM_RANKS for _ in range(NUM_PLAYERS)]
        pos = 0
        for seat in range(NUM_PLAYERS):
            take = per_player + (reserve if seat == self.landlord else 0)
            for cid in order[pos : pos + take]:
                hands[seat][_DD_RANK[cid]] += 1
            pos += take

        self.counts = tuple(map(tuple, hands))  # hands as 15-slot count vectors, by seat
        self.sizes = tuple(map(sum, hands))  # cards left in each hand
        self.played = _NO_CARDS  # union of everything discarded so far
        self.to_beat: CardPattern | None = None
        self.trick_owner: int | None = None
        self.pass_count = 0
        self.recent = (_NO_CARDS,) * 3  # last 3 moves as count vectors, oldest first
        self.last_moves: tuple[tuple[int, int], ...] = ()  # (seat, action_id) of at most the last 3 moves
        return self.landlord

    # move plumbing -------------------------------------------------

    def _legal_moves(self) -> tuple[int, ...]:
        return tuple(matching_abstract_ids(self.counts[self.turn], self.to_beat))

    def _apply(self, action_id: int) -> None:
        seat = self.turn
        if action_id == PASS_ID:
            taken = _NO_CARDS
            self.pass_count += 1
            if self.pass_count >= 2:
                self.to_beat = None
                self.trick_owner = None
                self.pass_count = 0
        else:
            pattern, taken = complete(action_id, self.counts[seat])
            counts = list(self.counts)
            counts[seat] = tuple(map(sub, counts[seat], taken))
            self.counts = tuple(counts)
            sizes = list(self.sizes)
            sizes[seat] -= sum(taken)
            self.sizes = tuple(sizes)
            self.played = tuple(map(add, self.played, taken))
            self.to_beat = pattern
            self.trick_owner = seat
            self.pass_count = 0
            if sizes[seat] == 0:
                landlord = self.landlord
                self._results = tuple(int((i == landlord) == (seat == landlord)) for i in range(NUM_PLAYERS))
                return
        self.last_moves = (*self.last_moves[-2:], (seat, action_id))
        self.recent = (self.recent[1], self.recent[2], taken)
        self.turn = (seat + 1) % NUM_PLAYERS

    # snapshots ------------------------------------------------------

    def snapshot(self):
        return (
            self.landlord,
            self.counts,
            self.sizes,
            self.played,
            self.to_beat,
            self.trick_owner,
            self.pass_count,
            self.turn,
            self._results,
            self.last_moves,
            self.recent,
            self.rng.getstate(),
        )

    def _restore(self, snap) -> None:
        (self.landlord, self.counts, self.sizes, self.played, self.to_beat, self.trick_owner, self.pass_count,
         self.turn, self._results, self.last_moves, self.recent, rng_state) = snap
        self.rng.setstate(rng_state)


def capture(game: DoudizhuGame, seat: int):
    """(legal ids, view): the seat's legal ids and the state its view reads."""
    legal = game.legal_ids_for(seat)
    view = (
        seat,
        game.landlord,
        game.counts,
        game.sizes,
        game.played,
        game.recent,
        game.to_beat,
        game.trick_owner,
        game.last_moves,
    )
    return legal, view


def render_raw(view) -> dict:
    seat, landlord, counts, sizes, played, recent, to_beat, trick_owner, moves = view
    others = tuple(map(add, counts[(seat + 1) % NUM_PLAYERS], counts[(seat + 2) % NUM_PLAYERS]))
    return {
        "seat": seat,
        "landlord": landlord,
        "hand": hand_literal(counts[seat]),
        "hand_counts": counts[seat],
        "others_counts": others,
        "played_counts": played,
        "recent_counts": recent,
        "hand_sizes": sizes,
        "to_beat": None if to_beat is None else to_beat.literal(),
        "trick_owner": trick_owner,
        "recent_moves": moves,
    }


def render_key(view) -> str:
    seat, landlord, counts, _, played, _, to_beat, _, moves = view
    recent = ",".join([_MOVE_TEXT[s][aid] for s, aid in moves])
    lead = "-" if to_beat is None else _ID_TEXT[abstract_id(to_beat)]
    return f"D{seat}|L{landlord}|{hand_literal(counts[seat])}|p{hand_literal(played)}|b{lead}|{recent}"


def observe(game: DoudizhuGame, seat: int):
    legal, view = capture(game, seat)
    return render_raw(view), legal, render_key(view)


def encode_planes(raw: dict) -> np.ndarray:
    """Six 5x15 planes, each a one-hot count encoding over the ranks.

    Plane 0 is the player's hand, plane 1 the union of the other two
    hands, planes 2-4 the three most recent moves (oldest first), and
    plane 5 the union of everything played so far. Row k of a plane is 1
    at the ranks counted exactly k times, and row 4 also where more are.

    The six count vectors are read once into one 90-byte string, each
    level's table translates it into that row of all six planes, and one
    take over a fixed index puts the 450 bytes in (plane, level, rank)
    order: a fresh, writeable, C-contiguous int8 array of shape
    (6, 5, 15). Counts must fit in a byte (the engine's are at most 4).
    """
    r0, r1, r2 = raw["recent_counts"]
    counts = bytes((*raw["hand_counts"], *raw["others_counts"], *r0, *r1, *r2, *raw["played_counts"]))
    levels = b"".join([counts.translate(table) for table in _LEVEL_TABLES])
    return np.frombuffer(levels, np.int8).take(_PLANE_ORDER)

"""The Game contract every engine implements.

A Game owns the turn loop and `turn`, the seat to act: reset deals
and sets `turn` to the seat _start returns, step applies one move. Each
game supplies the move application plus snapshot() and _restore();
a snapshot captures everything a move can touch, including the
generator state, so a restored game replays chance identically. Undo
is not an engine option: a caller that walks back (the Env's tree mode,
MCCFR) keeps its own snapshots and restores them.

A Game also owns the end of a game: reset sets `_results` to None, and
an engine's _apply ends the game by setting it to one result per seat.
is_over() and payoffs() read that one field; payoffs() divides each
result by the class's UNIT and raises GameNotOver while the game runs.

Every engine follows one state rule. Each field a snapshot holds is
immutable (an int, a string, a tuple of card ids or counts, a
frozenset) and a move replaces it rather than editing it. The one
exception is the stock or draw pile, a list that the engine copies just
before it draws from it. So snapshot() returns the fields themselves,
restore() only assigns them back, and an observation's capture shares
them: none of the three copies a container, and an earlier snapshot or
view still holds the state it was taken at.

Legal moves are computed at most once per state, also here: the first
legal_moves() call on a state caches the engine's _legal_moves() tuple,
and reset, step and restore drop it; observations hand out that same
tuple, uncopied. step is the one legality check: a move outside that
tuple raises IllegalMove before any state changes, so an engine's _apply
only ever sees legal moves, as plain ints: step turns any other integer
type (np.int64, say) into one with operator.index, and rejects a bool, a
float or anything else without __index__ as IllegalMove. Env turns that
error into IllegalAction naming the seat that chose the move.

An engine class states its seat range once, as SEATS (low, high), and
its constructor's keywords after (rng, num_players) as PARAMS; Game
checks the seat count (None is the low end). Engines check their integer
parameters with int_param, so a float, a string or a bool (which Python
counts as an int) fails at construction with InvalidParam naming the
parameter, not later inside a deal.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from typing import Any

from cardtable.core.rng import Rng
from cardtable.errors import GameNotOver, GameOver, IllegalMove, InvalidParam


def int_param(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """value if it is an int (not a bool) in lo..hi, a None bound open, else InvalidParam naming name."""
    is_int = isinstance(value, int) and not isinstance(value, bool)
    if not is_int or (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = "" if lo is None and hi is None else f" in {'' if lo is None else lo}..{'' if hi is None else hi}"
        raise InvalidParam(f"{name} must be an integer{bounds}, got {value!r}")
    return value


def _action_id(move) -> int:
    """move as an int if it has __index__ and is not a bool, else IllegalMove."""
    if not isinstance(move, bool):
        try:
            return operator.index(move)
        except TypeError:
            pass
    raise IllegalMove(f"move {move!r} is not an integer action id")


class Game(ABC):
    """Turn-based engine whose full state snapshot() takes and restore() puts back.

    legal_moves() returns the current player's moves, computed once per
    state: step's legality check and the env's observation read the same
    cached tuple. The cache is dropped by reset, step and restore, the
    only ways the base class sees the state change; code that edits an
    engine's fields directly must do so before the first legal_moves()
    call on that state.

    Engines keep the module's state rule, so snapshot() returns fields
    by reference and _restore() only assigns them.

    The game is over once `_results` holds a result per seat, which an
    engine's snapshot() keeps: step, legal_ids_for, is_over() and
    payoffs() all test that one field, and payoffs() divides each result
    by UNIT.
    """

    SEATS: tuple[int, int]  # the seat counts the engine plays, low and high
    PARAMS: tuple[str, ...] = ()  # the constructor's game-parameter keywords
    UNIT = 1  # results per payoff unit

    def __init__(self, rng: Rng, num_players: int | None = None):
        lo, hi = self.SEATS
        self.num_players = int_param("num_players", lo if num_players is None else num_players, lo, hi)
        self.rng = rng
        self._legal: tuple | None = None

    def reset(self) -> int:
        """Deal a fresh hand; returns the first player to act. No deal ends
        a hand: a blackjack natural still asks for a decision."""
        self._legal = None
        self._results = None
        self.turn = turn = self._start()
        return turn

    def step(self, move) -> int | None:
        """Apply one legal move; returns the next player to act, None if over.

        A move outside legal_moves(), or one that is not an integer action
        id, raises IllegalMove naming it, and leaves the game as it was.
        """
        if self._results is not None:
            raise GameOver("step on a finished game")
        if move.__class__ is not int:
            move = _action_id(move)
        legal = self.legal_moves()
        if move not in legal:
            raise IllegalMove(f"move {move!r} not in legal set {legal}")
        self._apply(move)
        self._legal = None
        return self.turn if self._results is None else None

    def restore(self, snap: Any) -> None:
        """Put the game back in the state snapshot() returned; legal moves are recomputed on the next read."""
        self._restore(snap)
        self._legal = None

    def legal_moves(self) -> tuple:
        """The current player's legal moves; the same tuple until the state changes."""
        legal = self._legal
        if legal is None:
            legal = self._legal = self._legal_moves()
        return legal

    def legal_ids_for(self, seat: int) -> tuple:
        """The legal ids seat observes: its moves on its turn in a running game, else ()."""
        if self._results is not None or seat != self.turn:
            return ()
        return self.legal_moves()

    def is_over(self) -> bool:
        return self._results is not None

    def payoffs(self) -> list[float]:
        """Each seat's result in payoff units: _results divided by UNIT."""
        results = self._results
        if results is None:
            raise GameNotOver("the game is still running")
        unit = self.UNIT
        return [float(r) / unit for r in results]

    def current_player(self) -> int:
        """The seat to act: `turn`, which is still the last mover's once the game is over."""
        return self.turn

    @abstractmethod
    def _start(self) -> int: ...

    @abstractmethod
    def _apply(self, move) -> None:
        """Apply a move that step has already checked is legal."""

    @abstractmethod
    def _legal_moves(self) -> tuple:
        """Compute the current player's legal moves from the state, as a tuple."""

    @abstractmethod
    def snapshot(self) -> Any: ...

    @abstractmethod
    def _restore(self, snap: Any) -> None:
        """Assign the fields a snapshot() holds back onto the engine."""

"""The deck table (canonical card-id tuples), the seeded generator, and the Game contract."""

from cardtable.core.cards import DECKS
from cardtable.core.contracts import Game
from cardtable.core.rng import Rng, split_seed

__all__ = [
    "DECKS",
    "Game",
    "Rng",
    "split_seed",
]

"""Card and deck primitives, the seeded generator, and the game role contracts."""

from cardtable.core.cards import (
    Card,
    Deck,
    DECK_KINDS,
    card_from_id,
    deal,
    deck_composition,
    new_deck,
    shuffle,
    validate_deck,
)
from cardtable.core.contracts import Dealer, Game, Player
from cardtable.core.rng import Rng, rng_from_seed, split_seed

__all__ = [
    "Card",
    "Deck",
    "DECK_KINDS",
    "Dealer",
    "Game",
    "Player",
    "Rng",
    "card_from_id",
    "deal",
    "deck_composition",
    "new_deck",
    "rng_from_seed",
    "shuffle",
    "split_seed",
    "validate_deck",
]

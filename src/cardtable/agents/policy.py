"""Tabular policies keyed by information key, with a stable file form.

The file format ("cardtable-policy v1") is line-oriented text: a header,
then one sorted line per information key holding the legal action ids
and their probabilities at 12 decimal places. Keys absent from a table
fall back to uniform over the legal actions, so a partial table is
always playable. Entries are checked as they are stored: keys must be
printable text, action ids distinct and probabilities finite,
non-negative and of positive mass, or InvalidPolicy is raised; a file
that repeats a key fails to load with a ParseError naming the line.
set normalises what it is given; load stores the probabilities as
written, so saving a loaded table writes the same bytes.
Loading for a game (`num_actions` given) also rejects an action id
outside that game's 0..num_actions-1 with InvalidPolicy naming the line,
the key and the id, before any game is played with the table.
"""

from __future__ import annotations

import math

from cardtable.agents.base import Agent
from cardtable.errors import InvalidPolicy, ParseError

_HEADER = "cardtable-policy v1"


class PolicyTable:
    """info_key -> (action ids, probabilities)."""

    def __init__(self):
        self._table: dict[str, tuple[tuple[int, ...], tuple[float, ...]]] = {}

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, key: str) -> bool:
        return key in self._table

    def set(self, key: str, action_ids, probs) -> None:
        """Store the normalized distribution; raises InvalidPolicy on a bad entry."""
        action_ids, probs, total = _checked(key, action_ids, probs)
        self._table[key] = (action_ids, tuple(p / total for p in probs))

    def probs_for(self, key: str, legal_action_ids) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Stored distribution, or uniform over legal ids when unseen."""
        hit = self._table.get(key)
        if hit is not None:
            return hit
        legal = tuple(legal_action_ids)
        return legal, tuple(1.0 / len(legal) for _ in legal)

    def items(self):
        return self._table.items()

    def dumps(self) -> str:
        lines = [_HEADER]
        for key in sorted(self._table):
            ids, probs = self._table[key]
            lines.append(
                key
                + "\t"
                + ",".join(str(a) for a in ids)
                + "\t"
                + ",".join(f"{p:.12f}" for p in probs)
            )
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def load(cls, path, num_actions: int | None = None) -> "PolicyTable":
        """Read a saved table; a file that cannot be opened or is not UTF-8 raises ParseError naming it."""
        try:
            with open(path, encoding="utf-8") as fh:
                header, *lines = fh.read().split("\n")
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"policy file {path}: {type(exc).__name__}: {exc}") from exc
        if header != _HEADER:
            raise ParseError(f"not a policy file (header {header!r})")
        table = cls()
        for n, line in enumerate(lines, start=2):
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(f"line {n}: expected 3 tab-separated fields")
            key, ids_s, probs_s = parts
            try:
                ids = tuple(int(x) for x in ids_s.split(","))
                probs = tuple(float(x) for x in probs_s.split(","))
            except ValueError as exc:
                raise ParseError(f"line {n}: {exc}") from exc
            if key in table:
                raise ParseError(f"line {n}: key {key!r} repeats an earlier line")
            try:
                table._table[key] = _checked(key, ids, probs)[:2]
            except InvalidPolicy as exc:
                raise ParseError(f"line {n}: {exc}") from exc
            if num_actions is not None:
                for a in ids:
                    if not 0 <= a < num_actions:
                        raise InvalidPolicy(f"line {n}: {key!r} holds action id {a}, outside 0..{num_actions - 1}")
        return table


def _checked(key: str, action_ids, probs) -> tuple[tuple[int, ...], tuple[float, ...], float]:
    """(action ids, probabilities, their sum) of one entry; raises InvalidPolicy on a bad entry."""
    if not key.isprintable():  # a tab, line break or lone surrogate would corrupt the file
        raise InvalidPolicy(f"{key!r}: a key must be printable text")
    action_ids = tuple(int(a) for a in action_ids)
    probs = tuple(float(p) for p in probs)
    if len(action_ids) != len(probs):
        raise InvalidPolicy(f"{key!r}: {len(action_ids)} action ids but {len(probs)} probabilities")
    if len(set(action_ids)) != len(action_ids):
        raise InvalidPolicy(f"{key!r}: repeated action id in {action_ids}")
    if not all(0.0 <= p < math.inf for p in probs):
        raise InvalidPolicy(f"{key!r}: probabilities must be finite and non-negative, got {probs}")
    total = left_sum(probs)
    if not 0.0 < total < math.inf:
        raise InvalidPolicy(f"{key!r}: probabilities must have positive, finite mass")
    return action_ids, probs, total


def average_policy(entries) -> PolicyTable:
    """Table from (key, action ids, cumulative strategy) triples.

    PolicyTable.set normalizes each strategy sum; one with no positive
    mass becomes uniform over its action ids.
    """
    table = PolicyTable()
    for key, ids, weights in entries:
        table.set(key, ids, weights if left_sum(weights) > 0.0 else [1.0] * len(ids))
    return table


class PolicyAgent(Agent):
    """Plays a PolicyTable; uniform over legal actions at unseen keys.

    eval_step samples from the stored distribution rather than taking
    an argmax, so the average strategy of a solver is played faithfully.
    """

    def __init__(self, table: PolicyTable):
        self.table = table

    def eval_step(self, obs, rng) -> int:
        ids, probs = self.table.probs_for(obs.info_key, obs.legal_action_ids)
        return ids[sample_index(probs, rng)]


def left_sum(values) -> float:
    """Float sum added one term at a time from the left, starting at 0.0.

    Python 3.10 and 3.11's sum() adds floats exactly so; 3.12 made it
    compensated, which can move the last bits. Output paths that must be
    byte-stable across Python versions sum with this.
    """
    total = 0.0
    for value in values:
        total += value
    return total


def sample_index(probs, rng) -> int:
    """Index drawn from probs with one rng.random(): the first whose running
    sum passes the draw, or the last if rounding leaves the sum short."""
    pick = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if pick < acc:
            return i
    return len(probs) - 1

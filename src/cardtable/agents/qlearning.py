"""Tabular Q-learning over the single-agent environment mode.

Keys are the same information keys the rest of the toolkit uses, so a
trained table converts directly into a playable greedy policy. The
exploration stream is the env's own per-game learner stream, which
makes a whole qlearn_train run reproducible from the env config alone and
makes the epsilon=1 schedule draw-for-draw identical to RandomAgent.
"""

from __future__ import annotations

from cardtable.agents.policy import PolicyTable
from cardtable.core.contracts import int_param

LEARNING_RATE = 0.05
DISCOUNT = 0.99
EPSILON_START = 1.0
EPSILON_END = 0.05
ANNEAL_FRACTION = 0.5  # epsilon reaches its floor this far into the episodes


def epsilon_at(episode: int, episodes: int) -> float:
    """Exploration rate of an episode: linear from EPSILON_START to EPSILON_END, then flat."""
    cut = max(1, int(episodes * ANNEAL_FRACTION))
    frac = min(1.0, episode / cut)
    return EPSILON_START + (EPSILON_END - EPSILON_START) * frac


class QTable:
    """info_key -> action values aligned with the key's legal ids."""

    def __init__(self):
        self._table: dict[str, tuple[tuple[int, ...], list[float]]] = {}

    def __len__(self) -> int:
        return len(self._table)

    def values_for(self, key: str, legal_action_ids) -> tuple[tuple[int, ...], list[float]]:
        hit = self._table.get(key)
        if hit is None:
            ids = tuple(legal_action_ids)
            hit = self._table[key] = (ids, [0.0] * len(ids))
        return hit

    def best_value(self, key: str, legal_action_ids) -> float:
        _, values = self.values_for(key, legal_action_ids)
        return max(values)

    def items(self):
        return self._table.items()

    def greedy_policy(self) -> PolicyTable:
        """Probability 1 on each key's highest-valued action (first on ties)."""
        table = PolicyTable()
        for key, (ids, values) in self._table.items():
            best = values.index(max(values))
            table.set(key, ids, [1.0 if i == best else 0.0 for i in range(len(ids))])
        return table


def qlearn_train(env, episodes: int) -> QTable:
    """Epsilon-greedy tabular Q-learning on a single-agent env.

    One episode per seeded game; rewards arrive only at the end, so
    intermediate targets are pure bootstrap. Greedy ties break to the
    first (lowest) legal action id for determinism. episodes must be an
    int (not a bool) of at least 0, else InvalidParam.
    """
    int_param("episodes", episodes, 0)
    table = QTable()
    lr, gamma = LEARNING_RATE, DISCOUNT
    for episode in range(episodes):
        epsilon = epsilon_at(episode, episodes)
        obs = env.reset()
        rng = env.learner_rng
        while True:
            ids, values = table.values_for(obs.info_key, obs.legal_action_ids)
            # epsilon >= 1 skips the threshold draw, so a pure-exploration
            # run consumes the stream exactly like RandomAgent
            if epsilon >= 1.0 or rng.random() < epsilon:
                pick = rng.randbelow(len(ids))
            else:
                pick = values.index(max(values))
            nxt, reward, done = env.sa_step(ids[pick])
            if done:
                target = reward
            else:
                target = reward + gamma * table.best_value(nxt.info_key, nxt.legal_action_ids)
            values[pick] += lr * (target - values[pick])
            if done:
                break
            obs = nxt
    return table

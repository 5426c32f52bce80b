"""External-sampling Monte Carlo CFR through the step interface.

Where vanilla CFR expands every chance outcome exactly, this variant
plays real games: each traversal starts a freshly seeded game, samples
the deal and the opponents' actions once, and enumerates only the
traverser's actions by stepping in and backing out of the engine. That
exercises the same step/step_back machinery agents use, so agreement
with the tree-walking solver cross-checks the engine itself.

One iteration runs one traversal per seat. Regrets update at the
traverser's information sets; average-strategy mass accumulates at the
sampled opponents' information sets, which is where the external
sampling scheme makes the average unbiased.
"""

from __future__ import annotations

from dataclasses import replace

from cardtable.agents.cfr import regret_matching
from cardtable.agents.policy import PolicyTable, average_policy
from cardtable.core.rng import Rng, split_seed
from cardtable.env import EnvConfig, make


class MCCFRTrainer:
    """External-sampling MCCFR over any env game id.

    Deterministic for a fixed config seed: deals come from the env's
    per-game fan-out and opponent sampling from a stream split off the
    same master seed.
    """

    def __init__(self, config: EnvConfig, sample_seed: int | None = None):
        self.config = replace(config, allow_step_back=True)
        self.env = make(self.config)
        if sample_seed is None:
            sample_seed = split_seed(config.seed, 0x5CF)
        self.rng = Rng(sample_seed)
        self.iterations = 0
        self.regrets: dict[str, list[float]] = {}
        self.strategy_sum: dict[str, list[float]] = {}
        self.actions_at: dict[str, tuple] = {}

    def run(self, iterations: int) -> None:
        players = self.env.num_players
        for _ in range(iterations):
            for traverser in range(players):
                obs, seat = self.env.new_game()
                self._traverse(obs, seat, traverser)
            self.iterations += 1

    def policy(self) -> PolicyTable:
        """Normalized average strategy; unvisited keys fall back to uniform."""
        return average_policy(
            (key, self.actions_at[key], weights) for key, weights in self.strategy_sum.items()
        )

    def _tables(self, key: str, legal) -> tuple[list[float], list[float]]:
        regr = self.regrets.get(key)
        if regr is None:
            regr = self.regrets[key] = [0.0] * len(legal)
            self.strategy_sum[key] = [0.0] * len(legal)
            self.actions_at[key] = tuple(legal)
        return regr, self.strategy_sum[key]

    def _traverse(self, obs, seat: int, traverser: int) -> float:
        """Sampled counterfactual value of the current state for the traverser."""
        env = self.env
        if env.is_over():
            return env.get_payoffs()[traverser]
        legal = obs.legal_action_ids
        regr, strat_sum = self._tables(obs.info_key, legal)
        strategy = regret_matching(regr)
        if seat != traverser:
            for i, prob in enumerate(strategy):
                strat_sum[i] += prob
            pick = self._sample(strategy)
            nxt_obs, nxt_seat = env.step(legal[pick])
            value = self._traverse(nxt_obs, nxt_seat, traverser)
            env.step_back()
            return value
        values = []
        for action in legal:
            nxt_obs, nxt_seat = env.step(action)
            values.append(self._traverse(nxt_obs, nxt_seat, traverser))
            env.step_back()
        ev = sum(p * v for p, v in zip(strategy, values))
        for i, v in enumerate(values):
            regr[i] += v - ev
        return ev

    def _sample(self, strategy) -> int:
        pick = self.rng.random()
        acc = 0.0
        for i, prob in enumerate(strategy):
            acc += prob
            if pick < acc:
                return i
        return len(strategy) - 1


def mccfr_external_train(game, iterations: int, rng_seed: int = 0) -> PolicyTable:
    """Train external-sampling MCCFR and return the average policy.

    game may be a game id (seeded from rng_seed) or an EnvConfig whose
    own seed then drives the deals while rng_seed drives the sampling.
    """
    config = game if isinstance(game, EnvConfig) else EnvConfig(game_id=game, seed=rng_seed)
    trainer = MCCFRTrainer(config, sample_seed=split_seed(rng_seed, 1))
    trainer.run(iterations)
    return trainer.policy()

"""External-sampling Monte Carlo CFR through the step interface.

Where vanilla CFR expands every chance outcome exactly, this variant
plays real games: each traversal starts a freshly seeded game, samples
the deal and the opponents' actions once, and enumerates only the
traverser's actions by stepping in and backing out of the engine. The
walk drives the engine itself, not the Env: it reads legal ids and the
info key from the engine module's capture and render_key, applies moves
with Game.step, learns that a game ended from step returning None, and
undoes with Game.step_back. That is the same step/step_back machinery
agents use, so agreement with the tree-walking solver cross-checks the
engine itself. Only the start of each game goes through the Env, so
deals follow its per-game seed fan-out (game_index, seek); the Env's
timesteps count no MCCFR steps.

One iteration runs one traversal per seat. Regrets update at the
traverser's information sets; average-strategy mass accumulates at the
sampled opponents' information sets, which is where the external
sampling scheme makes the average unbiased.

Only games whose sampled traversal ends can be trained: uno and dou
dizhu recurse past the interpreter's stack or visit hundreds of
thousands of nodes in one traversal, so the trainer refuses them with
GameTooLarge when it is built.
"""

from __future__ import annotations

from dataclasses import replace

from cardtable.agents.cfr import regret_matching
from cardtable.agents.policy import PolicyTable, average_policy, sample_index
from cardtable.core.rng import Rng, split_seed
from cardtable.env import EnvConfig, make
from cardtable.errors import GameTooLarge

TRAVERSABLE_GAMES = ("blackjack", "leduc", "limit_holdem")


class MCCFRTrainer:
    """External-sampling MCCFR over the traversable game ids.

    Deterministic for a fixed config seed: deals come from the env's
    per-game fan-out and opponent sampling from a stream split off the
    same master seed.
    """

    def __init__(self, config: EnvConfig, sample_seed: int | None = None):
        self.config = replace(config, allow_step_back=True)
        self.env = make(self.config)
        if config.game_id not in TRAVERSABLE_GAMES:
            raise GameTooLarge(
                f"MCCFR cannot traverse {config.game_id}: one sampled traversal of it does not finish "
                f"(MCCFR runs on {', '.join(TRAVERSABLE_GAMES)})"
            )
        self.game = self.env.game
        module = self.env.spec.module
        self._capture, self._render_key = module.capture, module.render_key
        if sample_seed is None:
            sample_seed = split_seed(config.seed, 0x5CF)
        self.rng = Rng(sample_seed)
        self.iterations = 0
        self.regrets: dict[str, list[float]] = {}
        self.strategy_sum: dict[str, list[float]] = {}
        self.actions_at: dict[str, tuple] = {}

    def run(self, iterations: int) -> None:
        env, game = self.env, self.game
        players = env.num_players
        for _ in range(iterations):
            for traverser in range(players):
                seat = env._begin_game()
                if not game.is_over():  # skip a game that ends at its deal
                    self._traverse(seat, traverser)
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
            self.actions_at[key] = legal
        return regr, self.strategy_sum[key]

    def _traverse(self, seat: int, traverser: int) -> float:
        """Sampled counterfactual value for the traverser of a running game, seat to act."""
        game = self.game
        legal, view = self._capture(game, seat)
        regr, strat_sum = self._tables(self._render_key(view), legal)
        strategy = regret_matching(regr)
        if seat != traverser:
            for i, prob in enumerate(strategy):
                strat_sum[i] += prob
            nxt = game.step(legal[sample_index(strategy, self.rng)])
            value = game.payoffs()[traverser] if nxt is None else self._traverse(nxt, traverser)
            game.step_back()
            return value
        values = []
        for action in legal:
            nxt = game.step(action)
            values.append(game.payoffs()[traverser] if nxt is None else self._traverse(nxt, traverser))
            game.step_back()
        ev = sum(p * v for p, v in zip(strategy, values))
        for i, v in enumerate(values):
            regr[i] += v - ev
        return ev


def mccfr_external_train(game, iterations: int, rng_seed: int = 0) -> PolicyTable:
    """Train external-sampling MCCFR and return the average policy.

    game may be a game id (seeded from rng_seed) or an EnvConfig whose
    own seed then drives the deals while rng_seed drives the sampling.
    """
    config = game if isinstance(game, EnvConfig) else EnvConfig(game_id=game, seed=rng_seed)
    trainer = MCCFRTrainer(config, sample_seed=split_seed(rng_seed, 1))
    trainer.run(iterations)
    return trainer.policy()

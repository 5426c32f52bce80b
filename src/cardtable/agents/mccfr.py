"""External-sampling Monte Carlo CFR (Lanctot et al. 2009).

Where vanilla CFR expands every chance outcome exactly, this variant
samples: each traversal starts the next seeded game of the Env, samples
the deal and the opponents' actions once, and enumerates only the
traverser's actions. One iteration runs one traversal per seat. Regrets
update at the traverser's information sets; average-strategy mass
accumulates at the sampled opponents' information sets, which is where
the external sampling scheme makes the average unbiased.

Once the deal is known, a traversal is a walk down the game tree along
that deal, and the trainer has two ways to walk it:

- Leduc walks compiled_tree("leduc"), the exact tree CFR trains on. The
  Env deals the private cards, LeducGame.draw_public draws the public
  card from the same stream, as the engine's _deal_board would when
  round one closes, and LeducTree.deal_children names the chance
  children the deal leads to. This walk is draw_public's only caller.
  A leduc snapshot holds the deal stream, so every branch of a stepped
  game reveals that same public card: the tree walk visits the info
  keys the engine walk would, in the same order, and its outputs are
  equal bit for bit (tests/test_agents.py runs the two in lockstep).
- Blackjack and limit hold'em, which have no compiled tree, walk the
  engine from the seat Env._deal returns: no deal ends a game (a
  blackjack natural still asks hit or stand), info keys and legal ids
  come from the engine module's capture and render_key, Game.step
  applies a move and returns None when the game ends, and each node
  takes one game.snapshot() that it restores after every child.

Only the start of each game goes through the Env, by Env._deal: deals
follow its per-game seed fan-out (game_index, seek), no agent streams
are built, and the Env's timesteps count no MCCFR steps. Sums that reach
the regrets add left to right (policy.left_sum), so the bytes do not
depend on the Python version's sum().

Only games whose sampled traversal ends can be trained: uno and dou
dizhu recurse past the interpreter's stack or visit hundreds of
thousands of nodes in one traversal, so the trainer refuses them with
GameTooLarge when it is built.
"""

from __future__ import annotations

from operator import mul

from cardtable.agents.cfr import regret_matching
from cardtable.agents.policy import PolicyTable, average_policy, left_sum, sample_index
from cardtable.core.rng import Rng, split_seed
from cardtable.env import EnvConfig, make
from cardtable.errors import GameTooLarge
from cardtable.trees import CHANCE, TERMINAL, LeducTree, compiled_tree

TRAVERSABLE_GAMES = ("blackjack", "leduc", "limit_holdem")


class MCCFRTrainer:
    """External-sampling MCCFR over the traversable game ids.

    Deterministic for a fixed config seed: deals come from the env's
    per-game fan-out and opponent sampling from the one stream
    split_seed(config.seed, 0x5CF). tables maps each visited info key,
    in first-visit order, to its (actions, regrets, strategy_sum).
    """

    def __init__(self, config: EnvConfig):
        self.env = make(config)
        if config.game_id not in TRAVERSABLE_GAMES:
            raise GameTooLarge(
                f"MCCFR cannot traverse {config.game_id}: one sampled traversal of it does not finish "
                f"(MCCFR runs on {', '.join(TRAVERSABLE_GAMES)})"
            )
        self.game = self.env.game
        module = self.env.spec.module
        self._capture, self._render_key = module.capture, module.render_key
        self._tree = compiled_tree("leduc") if config.game_id == "leduc" else None
        self._public_child = 0  # the current leduc deal's child at the public chance node
        self.rng = Rng(split_seed(config.seed, 0x5CF))
        self.iterations = 0
        self.tables: dict[str, tuple[tuple, list[float], list[float]]] = {}

    def run(self, iterations: int) -> None:
        iterate = self._iterate_engine if self._tree is None else self._iterate_tree
        for _ in range(iterations):
            iterate()
            self.iterations += 1

    def policy(self) -> PolicyTable:
        """Normalized average strategy; unvisited keys fall back to uniform."""
        return average_policy((key, actions, weights) for key, (actions, _, weights) in self.tables.items())

    def _iterate_engine(self) -> None:
        """One traversal per seat, stepping and backing out of the engine."""
        for traverser in range(self.env.num_players):
            self._traverse(self.env._deal(), traverser)  # every deal asks for a decision

    def _iterate_tree(self) -> None:
        """One traversal per seat down the compiled leduc tree, along the env's deals."""
        env, game, deals = self.env, self.game, self._tree.children[0]
        for traverser in (0, 1):
            env._deal()
            deal_child, self._public_child = LeducTree.deal_children(game.hands, game.draw_public())
            self._walk(deals[deal_child], traverser)

    def _tables(self, key: str, legal) -> tuple[tuple, list[float], list[float]]:
        """The (actions, regrets, strategy_sum) row of key, made on first visit."""
        row = self.tables.get(key)
        if row is None:
            row = self.tables[key] = (legal, [0.0] * len(legal), [0.0] * len(legal))
        return row

    def _sample(self, strategy: list[float], strat_sum: list[float]) -> int:
        """At an opponent's set: add the strategy to its sum and sample one action's index."""
        for i, prob in enumerate(strategy):
            strat_sum[i] += prob
        return sample_index(strategy, self.rng)

    @staticmethod
    def _update(regr: list[float], strategy: list[float], values: list[float]) -> float:
        """At the traverser's set: add each action's regret and return the node's value."""
        ev = left_sum(map(mul, strategy, values))
        for i, v in enumerate(values):
            regr[i] += v - ev
        return ev

    def _traverse(self, seat: int, traverser: int) -> float:
        """Sampled counterfactual value for the traverser of a running game, seat to act."""
        game = self.game
        legal, view = self._capture(game, seat)
        _, regr, strat_sum = self._tables(self._render_key(view), legal)
        strategy = regret_matching(regr)
        snap = game.snapshot()
        if seat != traverser:
            nxt = game.step(legal[self._sample(strategy, strat_sum)])
            value = game.payoffs()[traverser] if nxt is None else self._traverse(nxt, traverser)
            game.restore(snap)
            return value
        values = []
        for action in legal:
            nxt = game.step(action)
            values.append(game.payoffs()[traverser] if nxt is None else self._traverse(nxt, traverser))
            game.restore(snap)
        return self._update(regr, strategy, values)

    def _walk(self, node: int, traverser: int) -> float:
        """Sampled counterfactual value for the traverser at a node of the compiled leduc tree."""
        tree = self._tree
        kind = tree.kind[node]
        if kind == TERMINAL:
            p0 = tree.payoff[node]
            return float(p0 if traverser == 0 else -p0)
        children = tree.children[node]
        if kind == CHANCE:
            return self._walk(children[self._public_child], traverser)
        i = tree.info[node]
        _, regr, strat_sum = self._tables(tree.keys[i], tree.actions[i])
        strategy = regret_matching(regr)
        if tree.seat[node] != traverser:
            return self._walk(children[self._sample(strategy, strat_sum)], traverser)
        return self._update(regr, strategy, [self._walk(child, traverser) for child in children])


def mccfr_external_train(game: str, iterations: int, rng_seed: int = 0) -> PolicyTable:
    """Train external-sampling MCCFR on a game id and return the average policy.

    Trains MCCFRTrainer(EnvConfig(game_id=game, seed=rng_seed)), so its
    policy is byte for byte the one `cardtable train --algo mccfr --seed
    rng_seed` writes.
    """
    trainer = MCCFRTrainer(EnvConfig(game_id=game, seed=rng_seed))
    trainer.run(iterations)
    return trainer.policy()

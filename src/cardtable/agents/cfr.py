"""Vanilla counterfactual regret minimization on exact game trees.

Every iteration walks the whole tree once, expanding chance nodes by
their exact outcome probabilities, so the regret and average-strategy
accumulators carry no sampling noise. Both players update on the same
walk, and the average strategy weights every iteration uniformly. The
average policy is what converges; the current regret-matched strategy
is only the exploration vehicle.
"""

from __future__ import annotations

from cardtable.agents.policy import PolicyTable, average_policy
from cardtable.trees import CHANCE, NODE_LIMIT, TERMINAL, compiled_tree


def regret_matching(regrets) -> list[float]:
    """Strategy proportional to positive regret, uniform if none is positive."""
    positives = [r if r > 0.0 else 0.0 for r in regrets]
    total = sum(positives)
    if total <= 0.0:
        return [1.0 / len(positives)] * len(positives)
    return [p / total for p in positives]


class CFRTrainer:
    """Simultaneous-update vanilla CFR over a two-player TreeGame.

    Walks the game's compiled tree (trees.compiled_tree), shared by every
    trainer of the same tree and never copied by deepcopy. Keeps one
    cumulative-regret vector and one cumulative-strategy vector per
    info-set index, aligned with the info set's legal actions, created
    at the set's first visit. run() is incremental, so callers can
    snapshot the average policy at checkpoints without restarting.

    Regrets update in place during the walk: nodes of an info set that
    the walk reaches later in an iteration already see that iteration's
    earlier regret updates to the set. Textbook vanilla CFR holds the
    strategy fixed for a whole iteration instead. Switching would change
    every output of this trainer.
    """

    def __init__(self, game, node_limit: int = NODE_LIMIT):
        self.tree = compiled_tree(game, node_limit)  # raises GameTooLarge before any work
        self.iterations = 0
        self.regrets: list[list[float] | None] = [None] * len(self.tree.keys)
        self.strategy_sum: list[list[float] | None] = [None] * len(self.tree.keys)

    def run(self, iterations: int) -> None:
        walk = self._walker()
        for _ in range(iterations):
            walk(0, 1.0, 1.0, 1.0)
            self.iterations += 1

    def policy(self) -> PolicyTable:
        """Normalized average strategy; unvisited keys fall back to uniform."""
        tree = self.tree
        return average_policy(
            (tree.keys[i], tree.actions[i], weights)
            for i, weights in enumerate(self.strategy_sum)
            if weights is not None
        )

    def _walker(self):
        """One iteration's depth-first walk, bound to this trainer's tables."""
        tree = self.tree
        kind, children, chance_probs = tree.kind, tree.children, tree.probs
        seat_of, info_of, payoff = tree.seat, tree.info, tree.payoff
        regrets, strategy_sum = self.regrets, self.strategy_sum

        def walk(node: int, reach0: float, reach1: float, reach_c: float):
            """Both players' expected values under the current strategies.

            Decision nodes read terminal children in place rather than
            walking them, which saves most of the calls.
            """
            k = kind[node]
            if k == TERMINAL:
                pay = payoff[node]
                return pay, -pay
            if k == CHANCE:
                v0 = v1 = 0.0
                for child, prob in zip(children[node], chance_probs[node]):
                    c0, c1 = walk(child, reach0, reach1, reach_c * prob)
                    v0 += prob * c0
                    v1 += prob * c1
                return v0, v1
            if reach0 == 0.0 and reach1 == 0.0:
                # no update anywhere below can carry weight
                return 0.0, 0.0
            i = info_of[node]
            regr = regrets[i]
            if regr is None:
                regr = regrets[i] = [0.0] * len(children[node])
                strategy_sum[i] = [0.0] * len(regr)
            strategy = regret_matching(regr)
            seat = seat_of[node]
            values = []  # the acting seat's value of each action
            v0 = v1 = 0.0
            for prob, child in zip(strategy, children[node]):
                pay = payoff[child]
                if pay is not None:
                    c0, c1 = pay, -pay
                elif seat == 0:
                    c0, c1 = walk(child, reach0 * prob, reach1, reach_c)
                else:
                    c0, c1 = walk(child, reach0, reach1 * prob, reach_c)
                values.append(c1 if seat else c0)
                v0 += prob * c0
                v1 += prob * c1
            if seat == 0:
                counterfactual, mine, my_reach = reach_c * reach1, v0, reach0
            else:
                counterfactual, mine, my_reach = reach_c * reach0, v1, reach1
            if counterfactual:
                for a, value in enumerate(values):
                    regr[a] += counterfactual * (value - mine)
            if my_reach:
                strat_sum = strategy_sum[i]
                for a, prob in enumerate(strategy):
                    strat_sum[a] += my_reach * prob
            return v0, v1

        return walk


def cfr_train(game, iterations: int, node_limit: int = NODE_LIMIT) -> PolicyTable:
    """Train vanilla CFR and return the average policy.

    game may be a game id or a TreeGame instance; ids without an exact
    tree, and trees past the node guard, raise GameTooLarge.
    """
    trainer = CFRTrainer(game, node_limit)
    trainer.run(iterations)
    return trainer.policy()

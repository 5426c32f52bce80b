"""The depth-first CFR walk that the wave sweep in cardtable.agents.cfr replaced.

This is the trainer as it stood before the sweep, kept as the test
oracle: test_cfr_sweep.py checks that the sweep's accumulators and
policy files are bit-equal to this walk's. Its regret matching and
policy sum left to right (policy.left_sum), as Python 3.11's sum()
does, so the compensated float sum() of Python 3.12 and later moves no
bits.
"""

from __future__ import annotations

from cardtable.agents.cfr import regret_matching
from cardtable.agents.policy import PolicyTable, average_policy
from cardtable.trees import CHANCE, TERMINAL, compiled_tree


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

    def __init__(self, game):
        self.tree = compiled_tree(game)  # raises GameTooLarge before any work
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

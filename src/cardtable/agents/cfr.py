"""Vanilla counterfactual regret minimization on exact game trees.

Every iteration sweeps the whole tree, expanding chance nodes by their
exact outcome probabilities, so the regret and average-strategy
accumulators carry no sampling noise. Both players update in the same
iteration, and the average strategy weights every iteration uniformly.
The average policy is what converges; the current regret-matched
strategy is only the exploration vehicle.

The updates keep the order of a depth-first walk that updates in
place: a decision node reads its info set's regret-matched strategy
when the walk enters it, and adds its regret and strategy-sum updates
when the walk leaves it. So a node sees this iteration's updates from
exactly those nodes of its info set that precede it in preorder and are
not its ancestors. Textbook vanilla CFR holds the strategy fixed for the
whole iteration instead; switching would change every output.

The sweep keeps that order without walking. A WaveSchedule, built once
per compiled tree from its TreeLayout's arrays, splits each iteration
into waves:

- a node's read wave is 0 if no node of its info set precedes it in
  that sense, else one more than the largest done wave among those that
  do;
- a node's done wave is the largest read wave among the node, its
  ancestors and its descendants: the first wave that knows both its
  reach and its subtree's values.

_wave_numbers finds both, and the walk's postorder, in one pass of the
walk on an explicit stack, so a tree of any depth up to the node guard
trains. On leduc this gives 5 waves. A wave regret-matches the info
sets read in it, pushes reach down and values up the whole tree with
TreeLayout.push_reach and sum_values, then adds the updates of the
nodes done in it with add.at, in the walk's postorder, so a slot
updated twice in a wave takes both in the walk's order. Its sums run
in the walk's order too: only elementwise operations, take, bincount
and add.at, no pairwise reductions. So every accumulator is bit-equal
to the walk's.

The walk returned 0 at a decision node whose two player reaches are both
0, and created the node's info set only when one reach was nonzero. The
sweep computes such a node's value anyway, but the value only meets an
accumulator multiplied by an exact zero: the edge into the first such
node on a path has strategy probability 0 at an acting node whose
opponent reach, and so counterfactual weight, is 0. An info set is
marked visited where one of its nodes has a nonzero player reach.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from cardtable.agents.policy import PolicyTable, average_policy, left_sum
from cardtable.core.contracts import int_param
from cardtable.trees import DECISION, CompiledTree, compiled_tree


def regret_matching(regrets) -> list[float]:
    """Strategy proportional to positive regret, uniform if none is positive."""
    positives = [r if r > 0.0 else 0.0 for r in regrets]
    total = left_sum(positives)
    if total <= 0.0:
        return [1.0 / len(positives)] * len(positives)
    return [p / total for p in positives]


class _Wave(NamedTuple):
    """Index arrays for one wave of a WaveSchedule.

    read_slots, read_group   action slots of the info sets read in this
                             wave, set by set, and the set of each (0,
                             1, ... within the wave), for bincount
    read_uniform             1 / width per read slot
    sigma_from               read slot that gives each edge out of a
                             node read in this wave its probability
    sigma_prob, sigma_reach  those edges in the buffer's edge-probability
                             row and in the reach multipliers
    gather                   (6, E) buffer indices for the E edges out of
                             the nodes done in this wave, in postorder:
                             child value, node value, chance reach,
                             opponent reach, own reach, edge probability
    sign                     1.0 at a seat 0 edge, -1.0 at a seat 1 edge
    slots, sets              action slot and info set of each done edge
    """

    read_slots: np.ndarray
    read_group: np.ndarray
    read_uniform: np.ndarray
    sigma_from: np.ndarray
    sigma_prob: np.ndarray
    sigma_reach: np.ndarray
    gather: np.ndarray
    sign: np.ndarray
    slots: np.ndarray
    sets: np.ndarray


class WaveSchedule:
    """A compiled tree laid out for CFR sweeps, and its waves.

    A sweep works on one float buffer of 5 * size entries, by TreeLayout
    position: the two player reaches of each position, interleaved, for
    TreeLayout.push_reach, then one row each of values (player 0's) and
    edge probabilities (of the chance outcome or current strategy that
    leads into a position) for TreeLayout.sum_values, and chance reach,
    which no strategy changes.

    CFRTrainer builds it through tree.derived(WaveSchedule), so it is
    built once per compiled tree and shared by every trainer of the
    tree; deepcopy returns the same object.
    """

    def __init__(self, tree: CompiledTree):
        layout = tree.layout
        n = self.size = tree.num_nodes
        offsets = self.offsets = layout.offsets
        self.num_slots = offsets[-1]
        parent, slot, seat, info = layout.parent, layout.slot, layout.seat, layout.info
        self.multipliers = np.ones(2 * n)  # reach factors of the edge into each position
        self.buffer = np.zeros(5 * n)
        self.buffer[0:2] = 1.0  # the root's player reaches
        self.buffer[2 * n :] = np.concatenate((layout.payoff, layout.edge_prob, layout.chance_reach))

        read, done, rank = (numbers[layout.node] for numbers in _wave_numbers(tree))
        widths = np.diff(offsets)
        slot_set = np.repeat(np.arange(len(tree.keys)), widths)  # the info set of each slot
        edges = np.flatnonzero(slot >= 0)  # positions entered from a decision, children in action order
        self.waves = []
        for w in range(done.max(initial=-1) + 1):
            read_slots = np.flatnonzero(np.isin(slot_set, info[read == w]))
            read_group = np.unique(slot_set[read_slots], return_inverse=True)[1]
            sigma = edges[read[parent[edges]] == w]
            closed = edges[done[parent[edges]] == w]
            closed = closed[np.argsort(rank[parent[closed]], kind="stable")]  # the walk's postorder
            p = parent[closed]
            s = seat[p]
            self.waves.append(
                _Wave(
                    read_slots=read_slots,
                    read_group=read_group,
                    read_uniform=1.0 / widths[slot_set[read_slots]],
                    sigma_from=np.searchsorted(read_slots, slot[sigma]),
                    sigma_prob=3 * n + sigma,
                    sigma_reach=2 * sigma + seat[parent[sigma]],
                    gather=np.stack((2 * n + closed, 2 * n + p, 4 * n + p, 2 * p + 1 - s, 2 * p + s, 3 * n + closed)),
                    sign=np.where(s == 1, -1.0, 1.0),
                    slots=slot[closed],
                    sets=info[p],
                )
            )

    def __deepcopy__(self, memo):
        return self


def _wave_numbers(tree: CompiledTree):
    """(read wave, done wave, postorder rank) by node as arrays; waves are -1 off decisions."""
    kind, children, info = tree.kind, tree.children, tree.info
    read, done, rank, deepest = ([-1] * tree.num_nodes for _ in range(4))  # deepest: largest read wave in the subtree
    last_done = [-1] * len(tree.keys)  # largest done wave of a set's finished nodes
    left = 0  # nodes left so far
    stack = [(0, -1)]  # (node, largest read wave of its ancestors), or (~node, of it and them) to leave it
    while stack:
        node, above = stack.pop()
        if node >= 0:
            if kind[node] == DECISION:
                read[node] = last_done[info[node]] + 1
                above = max(above, read[node])
            stack.append((~node, above))
            stack.extend((child, above) for child in reversed(children[node]))
            continue
        node = ~node
        below = max((deepest[child] for child in children[node]), default=-1)
        rank[node], left = left, left + 1
        if kind[node] == DECISION:
            done[node] = max(above, below)
            last_done[info[node]] = max(last_done[info[node]], done[node])
            below = max(below, read[node])
        deepest[node] = below
    return np.array(read), np.array(done), np.array(rank)


class CFRTrainer:
    """Simultaneous-update vanilla CFR over a two-player TreeGame.

    Sweeps the game's compiled tree (trees.compiled_tree) on its
    WaveSchedule; both are shared by every trainer of the same tree and
    never copied by deepcopy. Keeps the cumulative regrets and strategy
    sums as flat float arrays with one slot per (info set, legal
    action), info set i owning slots schedule.offsets[i] up to
    offsets[i + 1], and marks an info set visited at the first iteration
    in which one of its nodes has a nonzero player reach; policy()
    covers the visited sets. run() is incremental, so callers can
    snapshot the average policy at checkpoints without restarting.
    """

    def __init__(self, game):
        self.tree = compiled_tree(game)  # raises GameTooLarge before any work
        self.schedule = self.tree.derived(WaveSchedule)
        self.iterations = 0
        self.regrets = np.zeros(self.schedule.num_slots)
        self.strategy_sum = np.zeros(self.schedule.num_slots)
        self.visited = np.zeros(len(self.tree.keys), dtype=bool)

    def run(self, iterations: int) -> None:
        """Run iterations more iterations: an int (not a bool) of at least 0, else InvalidParam."""
        int_param("iterations", iterations, 0)
        s, layout = self.schedule, self.tree.layout
        regrets, strategy_sum, visited = self.regrets, self.strategy_sum, self.visited
        buffer, multipliers = s.buffer.copy(), s.multipliers.copy()
        n = s.size
        reach, value, edge_prob = buffer[: 2 * n], buffer[2 * n : 3 * n], buffer[3 * n : 4 * n]
        for _ in range(iterations):
            for wave in s.waves:
                positives = np.maximum(regrets[wave.read_slots], 0.0)
                totals = np.bincount(wave.read_group, positives)[wave.read_group]
                sigma = np.divide(positives, totals, out=wave.read_uniform.copy(), where=totals > 0.0)
                sigma = sigma[wave.sigma_from]
                buffer[wave.sigma_prob] = sigma
                multipliers[wave.sigma_reach] = sigma
                layout.push_reach(reach, multipliers)
                layout.sum_values(value, edge_prob)
                # player 1's values are player 0's negated, hence the sign;
                # an edge whose weight is 0 adds an exact 0
                child, node, chance, other, own, prob = buffer[wave.gather]
                regret_delta = chance * other * ((child - node) * wave.sign)
                strategy_delta = own * prob
                np.add.at(regrets, wave.slots, regret_delta)
                np.add.at(strategy_sum, wave.slots, strategy_delta)
                visited[wave.sets[(own != 0.0) | (other != 0.0)]] = True
            self.iterations += 1

    def policy(self) -> PolicyTable:
        """Normalized average strategy; unvisited keys fall back to uniform."""
        tree, offsets = self.tree, self.schedule.offsets
        return average_policy(
            (tree.keys[i], tree.actions[i], self.strategy_sum[offsets[i] : offsets[i + 1]].tolist())
            for i in np.flatnonzero(self.visited).tolist()
        )


def cfr_train(game, iterations: int) -> PolicyTable:
    """Train vanilla CFR and return the average policy.

    game may be a game id or a TreeGame instance; ids without an exact
    tree, and trees past the node guard, raise GameTooLarge.
    """
    trainer = CFRTrainer(game)
    trainer.run(iterations)
    return trainer.policy()

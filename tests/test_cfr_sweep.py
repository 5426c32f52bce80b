"""The wave-scheduled CFR sweep against the depth-first walk it replaced.

walk_cfr.CFRTrainer is the old in-place walk, kept verbatim. On every
tree below, after 1, 2, 10, 100 and 1000 iterations, the sweep's
regrets and strategy sums must be bit-equal to the walk's, its visited
info sets the walk's created ones, and its policy file the same text.
The same trees check that each TreeLayout table is the compiled tree's
preorder table renumbered and, with Kuhn poker added, that its reach
pass gives the chance reach and treats interleaved values one by one.
"""

import numpy as np
import pytest

from cardtable.agents import CFRTrainer
from cardtable.agents.cfr import WaveSchedule
from cardtable.trees import DECISION, compiled_tree

import walk_cfr
from test_trees import CoinTree, KuhnTree

CHECKPOINTS = (1, 2, 10, 100, 1000)


class SpecTree:
    """TreeGame over nested tuples, for hand-built trees:

    ("chance", ((prob, child), ...))
    ("decide", seat, info key, (child, ...))   actions are 0, 1, ...
    ("end", player 0 payoff)
    """

    def __init__(self, root):
        self._root = root

    def root(self):
        return self._root

    def is_terminal(self, node):
        return node[0] == "end"

    def is_chance(self, node):
        return node[0] == "chance"

    def chance_outcomes(self, node):
        return [(child, prob) for prob, child in node[1]]

    def player(self, node):
        return node[1]

    def info_key(self, node):
        return node[2]

    def actions(self, node):
        return tuple(range(len(node[3])))

    def child(self, node, action):
        return node[3][action]

    def payoffs(self, node):
        return (node[1], -node[1])


def end(payoff):
    return ("end", payoff)


# seat 0 picks a side; seat 1 guesses it without seeing it, so the two
# children of the root share one info set
PENNIES = SpecTree(
    ("decide", 0, "pick", (("decide", 1, "guess", (end(2), end(-1))), ("decide", 1, "guess", (end(-1), end(1)))))
)


def _zero_reach_branch(deep_key):
    """After one update, seat 0 never plays "a" action 1 and seat 1 never
    plays "b" action 1, so both reaches of the deep node are exactly 0."""
    deep = ("decide", 0, deep_key, (end(3), ("decide", 1, "d", (end(2), end(-2)))))
    return ("decide", 0, "a", (end(1), ("decide", 1, "b", (end(-1), deep))))


# the second branch reads "a" and "b" after the first has updated them,
# so its deep node is dead from the first iteration on and the walk
# never creates its info set "e"
ZERO_REACH = SpecTree(("chance", ((0.5, _zero_reach_branch("c")), (0.5, _zero_reach_branch("e")))))

# one info set at a node and at its child: both update in the same wave
ABSENT_MINDED = SpecTree(("decide", 0, "x", (end(0), ("decide", 0, "x", (end(4), end(1))))))

TREES = {
    "leduc": "leduc",
    "coin": CoinTree(),
    "pennies": PENNIES,
    "zero_reach": ZERO_REACH,
    "absent_minded": ABSENT_MINDED,
}


def sweep_accumulators(trainer):
    """Per info set: (regret hexes, strategy-sum hexes), or None if unvisited."""
    offsets = trainer.schedule.offsets
    out = []
    for i in range(len(trainer.tree.keys)):
        if not trainer.visited[i]:
            out.append(None)
            continue
        lo, hi = offsets[i], offsets[i + 1]
        out.append((hexes(trainer.regrets[lo:hi].tolist()), hexes(trainer.strategy_sum[lo:hi].tolist())))
    return out


def walk_accumulators(trainer):
    return [
        None if regrets is None else (hexes(regrets), hexes(sums))
        for regrets, sums in zip(trainer.regrets, trainer.strategy_sum)
    ]


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", sorted(TREES))
def test_sweep_is_bit_equal_to_the_walk(name):
    sweep, walk = CFRTrainer(TREES[name]), walk_cfr.CFRTrainer(TREES[name])
    assert sweep.tree is walk.tree
    done = 0
    for n in CHECKPOINTS:
        sweep.run(n - done)
        walk.run(n - done)
        done = n
        assert sweep.iterations == walk.iterations == n
        assert sweep_accumulators(sweep) == walk_accumulators(walk), f"{name} after {n} iterations"
        assert sweep.policy().dumps() == walk.policy().dumps(), f"{name} after {n} iterations"


def repeats_a_slot(wave):
    return len(set(wave.slots.tolist())) < len(wave.slots)


def test_the_hand_built_trees_reach_their_cases():
    trainer = CFRTrainer(ZERO_REACH)
    trainer.run(3)
    assert "e" not in trainer.policy() and "c" in trainer.policy()
    assert any(map(repeats_a_slot, CFRTrainer(ABSENT_MINDED).schedule.waves))
    assert len(CFRTrainer(PENNIES).schedule.waves) == 2


def test_leduc_schedule():
    schedule = CFRTrainer("leduc").schedule
    assert len(schedule.waves) == 5
    assert not any(map(repeats_a_slot, schedule.waves))
    assert schedule.num_slots == 768 and schedule.offsets[-1] == 768


def test_schedule_is_built_once_per_tree():
    tree = compiled_tree("leduc")
    assert CFRTrainer("leduc").schedule is CFRTrainer("leduc").schedule is tree.derived(WaveSchedule)
    assert CFRTrainer(CoinTree()).schedule is not CFRTrainer(CoinTree()).schedule


def test_a_tree_without_decisions_counts_iterations_only():
    trainer = CFRTrainer(SpecTree(("chance", ((0.25, end(1)), (0.75, end(-1))))))
    trainer.run(4)
    assert trainer.iterations == 4 and len(trainer.policy()) == 0


@pytest.mark.parametrize("name", sorted(TREES))
def test_layout_tables_renumber_the_preorder_tables(name):
    tree = compiled_tree(TREES[name])
    layout, n = tree.layout, tree.num_nodes
    node = layout.node.tolist()
    assert sorted(node) == list(range(n)) and node[0] == 0
    rebuilt = [{} for _ in range(n)]
    for p in range(1, n):
        rebuilt[node[layout.parent[p]]][layout.action[p]] = node[p]
    assert [tuple(kids[a] for a in range(len(kids))) for kids in rebuilt] == list(tree.children)
    assert layout.kind.tolist() == [tree.kind[v] for v in node]
    assert layout.seat.tolist() == [-1 if tree.seat[v] is None else tree.seat[v] for v in node]
    assert layout.info.tolist() == [-1 if tree.info[v] is None else tree.info[v] for v in node]
    assert layout.payoff.tolist() == [0.0 if tree.payoff[v] is None else tree.payoff[v] for v in node]
    for p in range(n):
        up = layout.parent[p]
        below = p > 0 and layout.kind[up] == DECISION
        assert layout.slot[p] == (layout.offsets[layout.info[up]] + layout.action[p] if below else -1), p


PASS_TREES = {**TREES, "kuhn": KuhnTree()}


@pytest.mark.parametrize("name", sorted(PASS_TREES))
def test_pushing_edge_probs_gives_the_chance_reach(name):
    layout = compiled_tree(PASS_TREES[name]).layout
    reach = np.zeros(len(layout.node))
    reach[0] = 1.0
    layout.push_reach(reach, layout.edge_prob)
    assert hexes(reach) == hexes(layout.chance_reach)


@pytest.mark.parametrize("name", sorted(PASS_TREES))
def test_an_interleaved_push_is_two_one_column_pushes(name):
    layout = compiled_tree(PASS_TREES[name]).layout
    n = len(layout.node)
    multipliers = np.random.default_rng(3).random((n, 2)) * (np.arange(2 * n).reshape(n, 2) % 7 != 0)  # some exact zeros
    both = np.zeros(2 * n)
    both[:2] = 1.0, 0.75
    layout.push_reach(both, multipliers.ravel())
    for column, root in enumerate(both[:2]):
        one = np.zeros(n)
        one[0] = root
        layout.push_reach(one, multipliers[:, column])
        assert hexes(one) == hexes(both[column::2]), column

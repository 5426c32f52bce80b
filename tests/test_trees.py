"""The compiled tree, and the solver outputs pinned across its introduction.

The digests below were recorded from the tuple-walking solvers that
preceded the compiled tree; the compiled walks must reproduce them
byte for byte.
"""

import copy
import hashlib

import pytest

from cardtable import trees
from cardtable.agents import CFRTrainer, cfr_train
from cardtable.errors import GameTooLarge, NotZeroSum
from cardtable.evaluation import exploitability
from cardtable.trees import (
    CHANCE,
    DECISION,
    TERMINAL,
    LeducTree,
    compile_tree,
    compiled_tree,
    tree_for,
)

CFR_DUMPS_SHA256 = {
    1: "b90992e56cf2484a0bdea94fb6675e92e74e57efa1b4890fdc4bcd5cbc95277f",
    10: "aaf7c51699ed87253f7fa71053a258c8be2066cdc160ebac95fb39d44a881489",
    100: "2b2fbff4a893d28f5d2ceb0f542ba2cb8b6cb9a14c45078bf8ff3620ce073efd",
}
CFR_100_EXPLOITABILITY_REPR = "0.18198016616763038"
LEDUC_KEYS_SHA256 = "59205c35d9f95895aba84ee294c73546a91d2f217511e2f038e7cb938e84ef25"
LEDUC_TABLES_SHA256 = "6041c7355f3ab7700ca9ae7cbf5c0538200793677497f4dcb07b361c779b088e"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tuple_walk_info_sets(tree):
    """key -> (seat, actions) from a direct walk of the TreeGame methods."""
    seen = {}
    stack = [tree.root()]
    while stack:
        node = stack.pop()
        if tree.is_terminal(node):
            continue
        if tree.is_chance(node):
            stack.extend(child for child, _ in tree.chance_outcomes(node))
            continue
        actions = tuple(tree.actions(node))
        seen.setdefault(tree.info_key(node), (tree.player(node), actions))
        stack.extend(tree.child(node, a) for a in actions)
    return seen


class CoinTree:
    """Chance flips a coin, then seat 0 guesses it without seeing it.

    Nodes: "root", ("guess", coin), ("end", payoff pair). last_actions
    is what the tails node offers, so a test can break key consistency.
    """

    def __init__(self, loss=(-1, 1), last_actions=(0, 1)):
        self.loss, self.last_actions = loss, last_actions

    def root(self):
        return "root"

    def is_terminal(self, node):
        return node[0] == "end"

    def is_chance(self, node):
        return node == "root"

    def chance_outcomes(self, node):
        return [(("guess", 0), 0.5), (("guess", 1), 0.5)]

    def player(self, node):
        return 0

    def info_key(self, node):
        return "guess"

    def actions(self, node):
        return (0, 1) if node[1] == 0 else self.last_actions

    def child(self, node, action):
        return ("end", (1, -1) if action == node[1] else self.loss)

    def payoffs(self, node):
        return node[1]


class KuhnTree:
    """Kuhn poker (Kuhn 1950): three cards J < Q < K, an ante of 1 each,
    one card dealt to each seat, one round with a single bet of 1.

    Action 0 checks or folds, action 1 bets or calls. Nodes: "deal",
    (cards, history) at a decision, ("end", p0) at a terminal. A key is
    the acting seat's card and the history, e.g. "Qpb".
    """

    num_players = 2

    def root(self):
        return "deal"

    def is_terminal(self, node):
        return node[0] == "end"

    def is_chance(self, node):
        return node == "deal"

    def chance_outcomes(self, node):
        return [(((a, b), ""), 1 / 6) for a in range(3) for b in range(3) if a != b]

    def player(self, node):
        return len(node[1]) % 2

    def info_key(self, node):
        cards, history = node
        return "JQK"[cards[len(history) % 2]] + history

    def actions(self, node):
        return (0, 1)

    def child(self, node, action):
        cards, history = node
        history += "pb"[action]
        showdown = 1 if cards[0] > cards[1] else -1
        if history in ("pp", "bb", "pbb"):
            return ("end", showdown * (2 if history[-1] == "b" else 1))
        if history in ("bp", "pbp"):  # the bet stands: the bettor takes the folder's ante
            return ("end", 1 if history == "bp" else -1)
        return (cards, history)

    def payoffs(self, node):
        return (node[1], -node[1])


class TestCompileAnyTree:
    def test_small_tree_tables(self):
        tree = compile_tree(CoinTree())
        assert tree.kind == (CHANCE, DECISION, TERMINAL, TERMINAL, DECISION, TERMINAL, TERMINAL)
        assert tree.children[0] == (1, 4) and tree.probs[0] == (0.5, 0.5)
        assert tree.info[1] == tree.info[4] == 0
        assert tree.keys == ("guess",) and tree.actions == ((0, 1),) and tree.info_seat == (0,)
        assert [tree.payoff[n] for n in (2, 3, 5, 6)] == [1, -1, -1, 1]

    def test_rejects_non_zero_sum_payoffs(self):
        with pytest.raises(NotZeroSum):
            compile_tree(CoinTree(loss=(-1, 0)))

    def test_rejects_a_key_with_two_action_lists(self):
        with pytest.raises(ValueError):
            compile_tree(CoinTree(last_actions=(0, 1, 2)))


class TestByteIdentity:
    @pytest.mark.parametrize("iterations", sorted(CFR_DUMPS_SHA256))
    def test_cfr_policy_dumps(self, iterations):
        assert sha256(cfr_train("leduc", iterations).dumps()) == CFR_DUMPS_SHA256[iterations]

    def test_cfr_exploitability(self):
        report = exploitability("leduc", cfr_train("leduc", 100))
        assert repr(report.exploitability) == CFR_100_EXPLOITABILITY_REPR


class TestCompiledLeduc:
    def test_counts_and_keys(self):
        tree = compiled_tree("leduc")
        assert tree.num_nodes == 2194
        assert len(tree.keys) == 288
        assert tree.info_seat.count(0) == 144
        assert sha256("\n".join(sorted(tree.keys))) == LEDUC_KEYS_SHA256

    def test_tables_pinned(self):
        """Every table, with its value types: an int payoff and a float one repr differently."""
        tree = compiled_tree("leduc")
        tables = (tree.kind, tree.children, tree.probs, tree.seat, tree.info, tree.payoff, tree.keys,
                  tree.actions, tree.info_seat)
        assert sha256(repr(tables)) == LEDUC_TABLES_SHA256

    def test_info_sets_match_a_direct_walk(self):
        tree = compiled_tree("leduc")
        compiled = {key: (tree.info_seat[i], tree.actions[i]) for i, key in enumerate(tree.keys)}
        assert compiled == tuple_walk_info_sets(LeducTree())

    def test_tables_are_consistent(self):
        tree = compiled_tree("leduc")
        assert tree.kind.count(DECISION) == 774
        for node, kind in enumerate(tree.kind):
            kids = tree.children[node]
            assert all(child > node for child in kids)  # preorder
            if kind == TERMINAL:
                assert kids == () and tree.payoff[node] is not None
            elif kind == CHANCE:
                assert len(tree.probs[node]) == len(kids)
                assert abs(sum(tree.probs[node]) - 1.0) < 1e-12
            else:
                i = tree.info[node]
                assert tree.seat[node] == tree.info_seat[i]
                assert len(tree.actions[i]) == len(kids)

    def test_cached_per_game_and_instance(self):
        assert tree_for("leduc") is tree_for("leduc")
        assert compiled_tree("leduc") is compiled_tree(tree_for("leduc"))
        mine = LeducTree()
        assert compiled_tree(mine) is compiled_tree(mine)
        assert compiled_tree(mine) is not compiled_tree("leduc")

    def test_node_limit(self, monkeypatch):
        monkeypatch.setattr(trees, "NODE_LIMIT", 2194)
        assert compile_tree(LeducTree()).num_nodes == 2194
        monkeypatch.setattr(trees, "NODE_LIMIT", 2193)
        with pytest.raises(GameTooLarge):
            compile_tree(LeducTree())


class TestTrainerCopy:
    def test_deepcopy_copies_accumulators_not_the_tree(self):
        trainer = CFRTrainer("leduc")
        trainer.run(20)
        at_20 = trainer.policy().dumps()
        fork = copy.deepcopy(trainer)
        assert fork.tree is trainer.tree
        assert fork.schedule is trainer.schedule
        for name in ("regrets", "strategy_sum", "visited"):
            mine, theirs = getattr(fork, name), getattr(trainer, name)
            assert mine is not theirs and mine.tolist() == theirs.tolist()
        fork.run(10)
        assert fork.iterations == 30
        assert trainer.policy().dumps() == at_20
        trainer.run(10)
        assert fork.policy().dumps() == trainer.policy().dumps()

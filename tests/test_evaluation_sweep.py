"""The best-response and policy-value sweeps against the recursive walks
they replaced.

walk_best_response holds the old walks, kept verbatim. On leduc and on
the hand-built trees, for trained, uniform and random sparse policies,
every best-response value, best-response policy file and policy value
of the sweeps must be bit-equal to the walks' (compared as float.hex).
A chain deeper than the interpreter's recursion limit must compile,
train and evaluate, and match the walks run under a raised limit.
"""

import random
import sys

import pytest

from cardtable import evaluation
from cardtable.agents import CFRTrainer, PolicyTable
from cardtable.agents.mccfr import MCCFRTrainer
from cardtable.env import EnvConfig
from cardtable.evaluation import best_response, exploitability, tree_policy_value
from cardtable.trees import compiled_tree

import walk_best_response as walk
import walk_cfr
from test_cfr_sweep import ABSENT_MINDED, PENNIES, ZERO_REACH, SpecTree, end, sweep_accumulators, walk_accumulators
from test_trees import CoinTree

# "y" (seat 1) sits at depths 2 and 1, "b" (seat 0) at depths 3 and 2,
# and "b" lies below "a": an order exists, but not one by depth
SPANNING = SpecTree(
    (
        "chance",
        (
            (0.25, ("decide", 0, "a", (("decide", 1, "y", (end(2), ("decide", 0, "b", (end(-1), end(3))))), end(0)))),
            (0.75, ("decide", 1, "y", (("decide", 0, "b", (end(1), end(-2))), end(-3)))),
        ),
    )
)

# "x" lies below "y" and "y" below "x"
MUTUAL = SpecTree(
    (
        "chance",
        (
            (0.5, ("decide", 0, "x", (end(1), ("decide", 0, "y", (end(0), end(2)))))),
            (0.5, ("decide", 0, "y", (end(-1), ("decide", 0, "x", (end(3), end(1)))))),
        ),
    )
)


def _x(w, u):
    return ("decide", 0, "x", (end(w), end(u), end(-5)))


# "x" scores 0.6 for action 0 and (0.1 + 0.2) + 0.3 = 0.6000000000000001
# for action 1, which summed in reverse would tie at 0.6; "y", narrower
# than "x" in the same stage, scores below 0 for both its actions
ROUNDING = SpecTree(
    ("chance", ((0.1, _x(0, 1)), (0.2, _x(0, 1)), (0.3, _x(2, 1)), (0.4, ("decide", 0, "y", (end(-1), end(-2))))))
)

# the same sums with the first "x" one level deeper, so that level order
# would sum it last and tie at 0.6
DEEP_ROUNDING = SpecTree(
    (
        "chance",
        (
            (0.1, ("chance", ((1.0, _x(0, 1)),))),
            (0.2, _x(0, 1)),
            (0.3, _x(2, 1)),
            (0.4, ("decide", 0, "y", (end(-1), end(-2)))),
        ),
    )
)

SMALL_TREES = {
    "coin": CoinTree(),
    "pennies": PENNIES,
    "zero_reach": ZERO_REACH,
    "spanning": SPANNING,
    "rounding": ROUNDING,
}


def sparse_table(tree, seed):
    """A random table over the tree's keys: some keys missing (uniform),
    zero probabilities, and stored ids that differ from the legal ones
    (reordered, a legal id left out, an id that is not legal)."""
    rng = random.Random(seed)
    table = PolicyTable()
    for key, actions in zip(tree.keys, tree.actions):
        if rng.random() < 0.2:
            continue
        ids = list(actions)
        shape = rng.random()
        if shape < 0.2:
            ids.reverse()
        elif shape < 0.3 and len(ids) > 1:
            ids.pop(rng.randrange(len(ids)))
        elif shape < 0.4:
            ids.append(max(ids) + 7)
        weights = [0.0 if rng.random() < 0.4 else rng.random() for _ in ids]
        weights[rng.randrange(len(ids))] = 1.0 + rng.random()
        table.set(key, ids, weights)
    return table


def cfr_policies(game, checkpoints):
    trainer, out = CFRTrainer(game), []
    for n in checkpoints:
        trainer.run(n - trainer.iterations)
        out.append(trainer.policy())
    return out


def leduc_policies():
    mccfr = MCCFRTrainer(EnvConfig("leduc", seed=7))
    mccfr.run(2000)
    tree = compiled_tree("leduc")
    randoms = [sparse_table(tree, seed) for seed in range(5)]
    return [PolicyTable(), *cfr_policies("leduc", (1, 20, 100, 1000)), mccfr.policy(), *randoms]


def small_policies(game):
    tree = compiled_tree(game)
    return [PolicyTable(), *cfr_policies(game, (1, 10, 100)), *(sparse_table(tree, seed) for seed in range(5))]


def best_responses(module, game, policy, seats=(0, 1)):
    out = []
    for seat in seats:
        table, value = module.best_response(game, policy, seat)
        out.append((float(value).hex(), table.dumps()))
    return out


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.fixture(scope="module")
def leduc():
    return leduc_policies()


def test_leduc_best_responses_are_bit_equal_to_the_walk(leduc):
    for k, policy in enumerate(leduc):
        assert best_responses(evaluation, "leduc", policy) == best_responses(walk, "leduc", policy), k


def test_leduc_exploitability_reads_the_walk_values(leduc):
    for k, policy in enumerate(leduc):
        walked = [walk.best_response("leduc", policy, seat)[1] for seat in (0, 1)]
        report = exploitability("leduc", policy)
        assert hexes(report.br_values) == hexes(walked), k
        assert report.exploitability == (walked[0] + walked[1]) / 2


def test_leduc_policy_values_are_bit_equal_to_the_walk(leduc):
    for a in leduc[::2]:
        for b in leduc[1::2]:
            assert hexes(tree_policy_value("leduc", [a, b])) == hexes(walk.tree_policy_value("leduc", [a, b]))
            assert hexes(tree_policy_value("leduc", [b, a])) == hexes(walk.tree_policy_value("leduc", [b, a]))


@pytest.mark.parametrize("name", sorted(SMALL_TREES))
def test_small_trees_are_bit_equal_to_the_walk(name):
    game = SMALL_TREES[name]
    policies = small_policies(game)
    for k, policy in enumerate(policies):
        assert best_responses(evaluation, game, policy) == best_responses(walk, game, policy), k
        for other in policies:
            pair = [policy, other]
            assert hexes(tree_policy_value(game, pair)) == hexes(walk.tree_policy_value(game, pair)), k


def test_the_first_largest_score_wins_in_preorder_sums():
    table, value = best_response(ROUNDING, PolicyTable(), 0)
    assert table.probs_for("x", (0, 1, 2))[1] == (0.0, 1.0, 0.0)
    assert table.probs_for("y", (0, 1))[1] == (1.0, 0.0)
    assert value == (0.1 + 0.2) + 0.3 - 0.4


def test_a_set_at_two_depths_scores_its_nodes_in_preorder_not_level_order():
    table, value = best_response(DEEP_ROUNDING, PolicyTable(), 0)
    assert table.probs_for("x", (0, 1, 2))[1] == (0.0, 1.0, 0.0)
    for policy in small_policies(DEEP_ROUNDING):
        assert best_responses(evaluation, DEEP_ROUNDING, policy) == best_responses(walk, DEEP_ROUNDING, policy)


def test_a_seat_without_cycles_responds_when_the_other_has_one():
    for policy in (PolicyTable(), sparse_table(compiled_tree(ABSENT_MINDED), 3)):
        ours, theirs = (best_responses(m, ABSENT_MINDED, policy, (1,)) for m in (evaluation, walk))
        assert ours == theirs


@pytest.mark.parametrize("game,keys", [(ABSENT_MINDED, ["x"]), (MUTUAL, ["x", "y"])], ids=["absent_minded", "mutual"])
def test_an_info_set_below_itself_is_a_value_error(game, keys):
    with pytest.raises(ValueError, match="no best-response order") as caught:
        best_response(game, PolicyTable(), 0)
    for key in keys:
        assert repr(key) in str(caught.value)


def random_tree(rng, keys, depth=0):
    """Nested SpecTree tuples: chance, both seats and a few shared keys,
    so sets span depths and some sets lie below themselves."""
    roll = rng.random()
    if depth >= 5 or roll < 0.2:
        return end(rng.randint(-5, 5))
    if roll < 0.35:
        weights = [rng.random() + 0.01 for _ in range(rng.randint(1, 3))]
        return ("chance", tuple((w / sum(weights), random_tree(rng, keys, depth + 1)) for w in weights))
    seat = rng.randint(0, 1)
    key = f"{seat}{rng.choice('abcdefgh')}"
    width = keys.setdefault(key, rng.randint(1, 3))
    return ("decide", seat, key, tuple(random_tree(rng, keys, depth + 1) for _ in range(width)))


def test_random_trees_match_the_walk_or_have_no_order():
    orderable = 0
    for seed in range(300):
        game = SpecTree(random_tree(random.Random(seed), {}))
        policies = [PolicyTable(), sparse_table(compiled_tree(game), seed)]
        for seat in (0, 1):
            try:
                best_response(game, policies[0], seat)
            except ValueError:
                with pytest.raises(RecursionError):  # the walk never finishes on such a tree
                    walk.best_response(game, policies[0], seat)
                continue
            orderable += 1
            for policy in policies:
                ours, theirs = (best_responses(m, game, policy, (seat,)) for m in (evaluation, walk))
                assert ours == theirs, (seed, seat)
        for policy in policies:
            pair = [policy, policies[0]]
            assert hexes(tree_policy_value(game, pair)) == hexes(walk.tree_policy_value(game, pair)), seed
    assert orderable > 300  # of 600 seats


def deep_chain(levels):
    """A SpecTree path of the given depth: chance, seat 0 and seat 1 in
    turn, each level ending the game on one branch and going on along
    the other, with one info key per level."""
    node = end(1)
    for k in reversed(range(levels)):
        leaf = end(k % 7 - 3)
        if k % 3 == 0:
            node = ("chance", ((0.25, leaf), (0.75, node)))
        else:
            seat = k % 3 - 1
            node = ("decide", seat, f"{seat}:{k}", (leaf, node) if k % 2 else (node, leaf))
    return SpecTree(node)


def test_a_chain_deeper_than_the_recursion_limit_matches_the_walks():
    game = deep_chain(1200)
    tree = compiled_tree(game)
    assert len(tree.layout.bounds) - 1 == 1201
    sweep = CFRTrainer(game)
    sweep.run(20)
    policies = [PolicyTable(), sweep.policy(), sparse_table(tree, 1)]
    ours = [best_responses(evaluation, game, policy) for policy in policies]
    values = [hexes(tree_policy_value(game, [a, b])) for a in policies for b in policies]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)  # the oracles recurse once or more per level
    try:
        walked = walk_cfr.CFRTrainer(game)
        walked.run(20)
        theirs = [best_responses(walk, game, policy) for policy in policies]
        walk_values = [hexes(walk.tree_policy_value(game, [a, b])) for a in policies for b in policies]
    finally:
        sys.setrecursionlimit(limit)
    assert sweep_accumulators(sweep) == walk_accumulators(walked)
    assert sweep.policy().dumps() == walked.policy().dumps()
    assert ours == theirs
    assert values == walk_values

"""Kuhn poker as an outside oracle for the tree solvers.

Every other exact check on a game compares this code with itself. Kuhn
poker's equilibria are known in closed form (Kuhn 1950): a family in
one parameter alpha in [0, 1/3], worth -1/18 to seat 0 whatever alpha.
"""

import pytest

from cardtable.agents import CFRTrainer, PolicyTable
from cardtable.evaluation import exploitability, tree_policy_value
from cardtable.trees import compiled_tree

import walk_best_response as walk
from test_trees import KuhnTree

GAME_VALUE = -1 / 18


def equilibrium(alpha):
    """Seat 0 bets a J with probability alpha and a K with 3 alpha, checks
    a Q and calls a bet after it with alpha + 1/3; seat 1 bets a J after a
    check with 1/3 and calls a bet with a Q with 1/3. Probabilities are
    (check or fold, bet or call)."""
    table = PolicyTable()
    for key, bet in {
        "J": alpha, "Q": 0.0, "K": 3 * alpha, "Jpb": 0.0, "Qpb": alpha + 1 / 3, "Kpb": 1.0,
        "Jp": 1 / 3, "Qp": 0.0, "Kp": 1.0, "Jb": 0.0, "Qb": 1 / 3, "Kb": 1.0,
    }.items():
        table.set(key, (0, 1), (1.0 - bet, bet))
    return table


def test_the_tree_has_kuhns_shape():
    tree = compiled_tree(KuhnTree())
    assert tree.num_nodes == 55
    assert sorted(tree.keys) == sorted(
        card + history for card in "JQK" for history in ("", "p", "b", "pb")
    )
    assert tree.info_seat.count(0) == tree.info_seat.count(1) == 6


@pytest.mark.parametrize("alpha", [0.0, 0.2, 1 / 3])
def test_the_equilibrium_family_is_unexploitable_and_worth_minus_one_eighteenth(alpha):
    policy = equilibrium(alpha)
    assert exploitability(KuhnTree(), policy).exploitability < 1e-12
    assert tree_policy_value(KuhnTree(), policy)[0] == pytest.approx(GAME_VALUE, abs=1e-12)


def test_a_perturbed_policy_is_exploitable_by_the_walks_values():
    policy = equilibrium(0.2)
    policy.set("Qb", (0, 1), (0.5, 0.5))  # calls too often with a Q
    policy.set("K", (0, 1), (0.9, 0.1))  # slowplays a K
    game = KuhnTree()
    report = exploitability(game, policy)
    walked = [walk.best_response(game, policy, seat)[1] for seat in (0, 1)]
    assert report.exploitability > 0.01
    assert report.exploitability == (walked[0] + walked[1]) / 2


def test_cfr_approaches_the_equilibrium():
    trainer = CFRTrainer(KuhnTree())
    trainer.run(10_000)
    assert exploitability(KuhnTree(), trainer.policy()).exploitability < 0.002

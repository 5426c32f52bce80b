"""The recursive best response and policy value that the level sweeps in
cardtable.evaluation replaced.

This is the code as it stood before the sweeps, kept as the test
oracle: test_evaluation_sweep.py checks that the sweeps' values and
best-response policy files are bit-equal to these walks'. Their sums
run left to right (policy.left_sum), as Python 3.11's sum() does, so
the compensated float sum() of Python 3.12 and later moves no bits.
"""

from __future__ import annotations

from cardtable.agents.policy import PolicyTable, left_sum
from cardtable.trees import CHANCE, TERMINAL, compiled_tree


def _aligned_probs(policy: PolicyTable, key: str, actions) -> tuple[float, ...]:
    """The policy's probability of each legal action at key, 0.0 where it stores none."""
    ids, probs = policy.probs_for(key, actions)
    by_id = dict(zip(ids, probs))
    return tuple(by_id.get(action, 0.0) for action in actions)


def tree_policy_value(game, tables) -> tuple[float, ...]:
    """Exact expected payoffs when every seat plays its PolicyTable.

    tables is one table shared by all seats or a sequence per seat;
    unseen keys fall back to uniform, matching PolicyAgent.
    """
    tree = compiled_tree(game)
    if isinstance(tables, PolicyTable):
        tables = [tables, tables]
    kind, children, chance_probs, info, payoff = tree.kind, tree.children, tree.probs, tree.info, tree.payoff
    action_probs = [
        _aligned_probs(tables[tree.info_seat[i]], key, tree.actions[i]) for i, key in enumerate(tree.keys)
    ]

    def walk(node):
        """Player 0's value; the game is zero-sum, so player 1's is its negation."""
        k = kind[node]
        if k == TERMINAL:
            return payoff[node]
        if k == CHANCE:
            branches = zip(children[node], chance_probs[node])
        else:
            branches = [(c, p) for c, p in zip(children[node], action_probs[info[node]]) if p != 0.0]
        total = None
        for child, prob in branches:
            if total is None:
                total = prob * walk(child)
            else:
                total += prob * walk(child)
        return 0.0 if total is None else total

    v = walk(0)
    return v, 0.0 - v  # not -v: a game worth exactly 0 is worth +0.0 to both seats


def best_response(game, policy: PolicyTable, player: int):
    """Exact best response for one player against a fixed policy.

    Returns (br_policy, br_value): br_policy plays, at each of the
    player's info sets, the action _best_response_value chose there.
    """
    tree, best_action, br_value = _best_response_value(game, policy, player)
    br_policy = PolicyTable()
    for i, key in enumerate(tree.keys):
        if tree.info_seat[i] == player:
            pick = best_action(i)
            actions = tree.actions[i]
            br_policy.set(key, actions, [1.0 if a == pick else 0.0 for a in range(len(actions))])
    return br_policy, br_value


def _best_response_value(game, policy: PolicyTable, player: int):
    """The best-response value for player, without building its policy.

    Returns (tree, best_action, value): the compiled tree, the function
    giving the best action's index at each of the player's info sets,
    and the value of the tree's root. Pass 1 sweeps the compiled tree in
    preorder, recording every node's chance-and-opponent reach
    probability and grouping the responding player's nodes by info set;
    pass 2 picks, per info set, the action maximizing the reach-weighted
    value sum, evaluating nodes lazily so the choice at a set and the
    values below it stay consistent. Ties break to the earliest legal
    action.
    """
    tree = compiled_tree(game)
    kind, children, chance_probs = tree.kind, tree.children, tree.probs
    seat, info, payoff = tree.seat, tree.info, tree.payoff
    opponent_probs = [
        None if tree.info_seat[i] == player else _aligned_probs(policy, key, tree.actions[i])
        for i, key in enumerate(tree.keys)
    ]
    members: list[list[int]] = [[] for _ in tree.keys]
    reach = [1.0] * tree.num_nodes
    for node, k in enumerate(kind):
        if k == TERMINAL:
            continue
        r = reach[node]
        if k == CHANCE:
            for child, prob in zip(children[node], chance_probs[node]):
                reach[child] = r * prob
        elif seat[node] == player:
            members[info[node]].append(node)
            for child in children[node]:
                reach[child] = r
        else:
            for child, prob in zip(children[node], opponent_probs[info[node]]):
                reach[child] = r * prob

    values: list = [None] * tree.num_nodes
    chosen: list = [None] * len(tree.keys)

    def value(node) -> float:
        v = values[node]
        if v is not None:
            return v
        k = kind[node]
        if k == TERMINAL:
            v = payoff[node] if player == 0 else -payoff[node]
        elif k == CHANCE:
            v = left_sum(prob * value(child) for child, prob in zip(children[node], chance_probs[node]))
        elif seat[node] == player:
            v = value(children[node][best_action(info[node])])
        else:
            branches = zip(children[node], opponent_probs[info[node]])
            v = left_sum(prob * value(child) for child, prob in branches if prob)
        values[node] = v
        return v

    def best_action(i: int) -> int:
        """Index, within info set i's actions, of the best response."""
        hit = chosen[i]
        if hit is not None:
            return hit
        best = None
        best_score = None
        for a in range(len(tree.actions[i])):
            score = left_sum(reach[node] * value(children[node][a]) for node in members[i])
            if best_score is None or score > best_score:
                best, best_score = a, score
        chosen[i] = best
        return best

    return tree, best_action, value(0)

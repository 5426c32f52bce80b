"""Exact game trees, compiled once into flat tables for the solvers.

A TreeGame (root, is_terminal, is_chance, chance_outcomes, player,
info_key, actions, child, payoffs) describes an immutable node graph
with explicit chance nodes whose outcome probabilities are exact, which
is what vanilla CFR and best-response sweeps need. compile_tree walks
one TreeGame once and flattens it into a CompiledTree: preorder node
indices with per-node kind, children, chance probabilities, seat,
info-set index and terminal payoff, plus per-info-set keys and action
ids. compiled_tree caches that form per tree instance, and tree_for
maps a game id to one shared tree, so a game is walked through its
TreeGame methods once per process. CFR, best response, policy value,
the node count and the leduc census all read the compiled tables.

Only games small enough to enumerate get a tree: leduc here, plus a
blackjack info-set enumeration used by the census. LeducTree mirrors
the step-based engine move for move and uses the same information
keys, which the test suite cross-checks by replaying lines through
both. Leduc chance is deduplicated by rank: the two suits of a rank
are interchangeable, so dealing (rank a, rank b) carries probability
2/30 when a == b and 4/30 otherwise, and the public card keeps a
rank-level count of what remains.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from cardtable.errors import GameTooLarge, NotZeroSum
from cardtable.games import leduc
from cardtable.games.blackjack import _RANK_SCORE, hand_value

# leduc betting sub-state: (round index, raises, to_act, acted,
# chips pair, round-bet pair, history string)
_BET0 = (0, 0, 0, 0, (leduc.ANTE, leduc.ANTE), (0, 0), "")


class LeducTree:
    """Exact leduc tree. Nodes are tuples:

    ("deal",)                      root chance node
    ("pub", a, b, bet)             chance node for the public card
    ("play", a, b, pub, bet)       decision node (pub is None in round 1)
    ("end", p0)                    terminal, p0 = player 0 net payoff
    """

    num_players = 2

    def root(self):
        return ("deal",)

    def is_chance(self, node) -> bool:
        return node[0] in ("deal", "pub")

    def is_terminal(self, node) -> bool:
        return node[0] == "end"

    def chance_outcomes(self, node):
        if node[0] == "deal":
            out = []
            for a in range(3):
                for b in range(3):
                    prob = (2 if a == b else 4) / 30
                    out.append((("play", a, b, None, _BET0), prob))
            return out
        _, a, b, bet = node
        out = []
        for c in range(3):
            remaining = 2 - (a == c) - (b == c)
            if remaining:
                out.append((("play", a, b, c, bet), remaining / 4))
        return out

    def player(self, node) -> int:
        return node[4][2]

    def info_key(self, node) -> str:
        _, a, b, pub, bet = node
        seat = bet[2]
        return leduc.info_key(seat, a if seat == 0 else b, pub, bet[6])

    def actions(self, node):
        bet = node[4]
        facing = bet[5][bet[2]] < max(bet[5])
        return leduc.round_legal_moves(facing, bet[1])

    def child(self, node, action):
        _, a, b, pub, bet = node
        rnd, raises, seat, acted, chips, bets, history = bet
        other = 1 - seat
        history += leduc._MOVE_CHAR[action]
        if action == leduc.FOLD:
            stake = chips[seat]  # winner nets what the folder put in
            return ("end", stake if other == 0 else -stake)
        if action == leduc.RAISE:
            put = max(bets) - bets[seat] + leduc.RAISE_SIZE[rnd]
            chips = _bump(chips, seat, put)
            bets = _bump(bets, seat, put)
            return ("play", a, b, pub, (rnd, raises + 1, other, acted + 1, chips, bets, history))
        if action == leduc.CALL:
            owe = max(bets) - bets[seat]
            chips = _bump(chips, seat, owe)
            bets = _bump(bets, seat, owe)
            round_over = True
        else:  # CHECK
            round_over = acted >= 1
        if not round_over:
            return ("play", a, b, pub, (rnd, raises, other, acted + 1, chips, bets, history))
        if rnd == 0:
            nxt = (1, 0, 0, 0, chips, (0, 0), history + "/")
            return ("pub", a, b, nxt)
        winner = leduc.showdown_winner(a, b, pub)
        if winner == -1:
            return ("end", 0)
        stake = chips[1 - winner]
        return ("end", stake if winner == 0 else -stake)

    def payoffs(self, node):
        return (node[1], -node[1])


def _bump(pair, seat, amount):
    lst = list(pair)
    lst[seat] += amount
    return tuple(lst)


# node kinds of a compiled tree
TERMINAL, CHANCE, DECISION = 0, 1, 2

NODE_LIMIT = 10_000_000


@dataclass(frozen=True, eq=False)
class CompiledTree:
    """A two-player zero-sum TreeGame flattened into integer-indexed tables.

    Nodes are numbered in depth-first preorder from the root, node 0,
    with children in chance-outcome or legal-action order, so a child's
    index always exceeds its parent's. Per node:

    kind       TERMINAL, CHANCE or DECISION
    children   child node indices, () at terminals
    probs      chance-outcome probabilities aligned with children, else None
    seat       acting seat at decisions, else None
    info       info-set index at decisions, else None
    payoff     player 0's payoff at terminals (player 1 gets its negation), else None

    Info sets are numbered in order of first preorder visit. Per info set:

    keys       information key
    actions    legal action ids, aligned with the children of each of its nodes
    info_seat  acting seat

    Instances are immutable and shared: deepcopy returns the same object.
    """

    kind: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    probs: tuple
    seat: tuple
    info: tuple
    payoff: tuple
    keys: tuple[str, ...]
    actions: tuple[tuple[int, ...], ...]
    info_seat: tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.kind)

    def __deepcopy__(self, memo):
        return self


def compile_tree(tree, node_limit: int = NODE_LIMIT) -> CompiledTree:
    """Walk a TreeGame once and return its compiled form.

    Raises GameTooLarge as soon as the node count passes node_limit,
    NotZeroSum at a terminal whose payoffs are not (p, -p), and
    ValueError if one information key shows two action lists or seats.
    """
    kind: list = []
    children: list = []
    probs: list = []
    seat: list = []
    info: list = []
    payoff: list = []
    index_of: dict[str, int] = {}
    keys: list[str] = []
    actions: list[tuple[int, ...]] = []
    info_seat: list[int] = []

    def add(node) -> int:
        n = len(kind)
        if n >= node_limit:
            raise GameTooLarge(f"tree exceeds {node_limit} nodes")
        kind.append(TERMINAL)
        children.append(())
        for table in (probs, seat, info, payoff):
            table.append(None)
        if tree.is_terminal(node):
            pay = tuple(tree.payoffs(node))
            if len(pay) != 2 or pay[1] != -pay[0]:
                raise NotZeroSum(f"terminal payoffs {pay} are not two-player zero-sum")
            payoff[n] = pay[0]
        elif tree.is_chance(node):
            outcomes = tree.chance_outcomes(node)
            kind[n] = CHANCE
            probs[n] = tuple(prob for _, prob in outcomes)
            children[n] = tuple(add(child) for child, _ in outcomes)
        else:
            key = tree.info_key(node)
            acts = tuple(tree.actions(node))
            who = tree.player(node)
            i = index_of.get(key)
            if i is None:
                i = index_of[key] = len(keys)
                keys.append(key)
                actions.append(acts)
                info_seat.append(who)
            elif actions[i] != acts or info_seat[i] != who:
                raise ValueError(f"info key {key!r} has more than one action list or seat")
            kind[n] = DECISION
            seat[n] = who
            info[n] = i
            children[n] = tuple(add(tree.child(node, a)) for a in acts)
        return n

    add(tree.root())
    return CompiledTree(
        kind=tuple(kind),
        children=tuple(children),
        probs=tuple(probs),
        seat=tuple(seat),
        info=tuple(info),
        payoff=tuple(payoff),
        keys=tuple(keys),
        actions=tuple(actions),
        info_seat=tuple(info_seat),
    )


_COMPILED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compiled_tree(game, node_limit: int = NODE_LIMIT) -> CompiledTree:
    """Compiled form of a game id or TreeGame, built once per tree instance.

    Raises GameTooLarge past node_limit, for a cached tree as well.
    """
    tree = tree_for(game)
    compiled = _COMPILED.get(tree)
    if compiled is None:
        compiled = _COMPILED[tree] = compile_tree(tree, node_limit)
    elif compiled.num_nodes > node_limit:
        raise GameTooLarge(f"tree exceeds {node_limit} nodes")
    return compiled


def count_nodes(tree, limit: int = NODE_LIMIT) -> int:
    """Total nodes reachable from the root; raises GameTooLarge past limit."""
    return compiled_tree(tree, limit).num_nodes


def leduc_info_keys() -> set[str]:
    """Every decision information key in leduc, both seats."""
    return set(compiled_tree("leduc").keys)


def _blackjack_decision_walk() -> tuple[set[str], int]:
    """(info keys, underlying state count) for blackjack decisions.

    Walks reachable player hands (score <= 21 keeps the decision open)
    under the 52-card composition for each dealer upcard. Only the
    player's own hand and the upcard shape the key, so the dealer's
    hole card and play-out never branch the enumeration. A state is a
    (hand multiset, upcard, hole rank) triple; the hole rank is the one
    piece of hidden information behind each key.
    """
    keys: set[str] = set()
    states = 0
    for up in range(13):
        up_score = 11 if up == 12 else _RANK_SCORE[up]
        counts = [4] * 13
        counts[up] -= 1

        def expand(hand: list[int]) -> None:
            nonlocal states
            score, soft = hand_value(hand)
            if score > 21:
                return
            keys.add(f"B|{score}{'s' if soft else 'h'}|n{len(hand)}|u{up_score}")
            states += sum(1 for c in counts if c)  # reachable hole ranks
            lo = hand[-1] if hand else 0  # extend in sorted order, no permutations
            for r in range(lo, 13):
                if counts[r]:
                    counts[r] -= 1
                    hand.append(r)
                    expand(hand)
                    hand.pop()
                    counts[r] += 1

        for r1 in range(13):
            if not counts[r1]:
                continue
            counts[r1] -= 1
            for r2 in range(r1, 13):
                if not counts[r2]:
                    continue
                counts[r2] -= 1
                expand([r1, r2])
                counts[r2] += 1
            counts[r1] += 1
    return keys, states


def blackjack_info_keys() -> set[str]:
    """Every decision information key in blackjack."""
    return _blackjack_decision_walk()[0]


def blackjack_census() -> tuple[int, int]:
    """(number of distinct info keys, number of states behind them)."""
    keys, states = _blackjack_decision_walk()
    return len(keys), states


_LEDUC = LeducTree()


def tree_for(game):
    """Exact tree for a game id, or the argument itself if already a tree.

    Only leduc has a full multi-player decision tree small enough to
    expand with exact chance, and its id always maps to one shared
    instance; every other id raises GameTooLarge, which callers surface
    as the guard for full-traversal algorithms.
    """
    if hasattr(game, "root"):
        return game
    if game == "leduc":
        return _LEDUC
    raise GameTooLarge(f"no exact tree for {game!r}; full expansion would exceed the node guard")


"""Exact game trees, compiled once into flat tables for the solvers.

A TreeGame (root, is_terminal, is_chance, chance_outcomes, player,
info_key, actions, child, payoffs) describes an immutable node graph
with explicit chance nodes whose outcome probabilities are exact, which
is what vanilla CFR and best-response sweeps need. compile_tree walks
one TreeGame once, on its own stack, so a tree of any depth up to the
node guard compiles, and flattens it into a CompiledTree: preorder node
indices with per-node kind, children, chance probabilities, seat,
info-set index and terminal payoff, plus per-info-set keys and action
ids. compiled_tree caches that form per tree instance, and tree_for
maps a game id to one shared tree, so a game is walked through its
TreeGame methods once per process. Node counts, info keys and the leduc
census are read from the compiled tables. The numpy sweeps (CFR, best
response, policy value) take their node tables from the tree's
TreeLayout, the one level-order numbering: it holds each table by
position, so the sweeps select and sort its arrays instead of walking
the tree. Only CFR's wave numbers still walk it once, to replay a
depth-first walk's order. MCCFR on leduc walks the preorder tables
themselves, down one sampled deal at a time (LeducTree.deal_children).

Only games small enough to enumerate get a tree: leduc here, plus a
blackjack info-set enumeration used by the census. LeducTree holds no
betting rules of its own: its nodes are LeducGame snapshots, and it
asks the engine for the seat, the legal moves, the information key and
each move's result, so the solvers read the rules self-play plays.
Leduc chance is deduplicated by rank: the two suits of a rank are
interchangeable, so dealing (rank a, rank b) carries probability 2/30
when a == b and 4/30 otherwise, and the public card keeps a rank-level
count of what remains.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from cardtable.core.rng import Rng
from cardtable.errors import GameTooLarge, NotZeroSum
from cardtable.games import blackjack, leduc


class LeducTree:
    """Exact leduc tree over the engine. Nodes are tuples:

    ("deal",)        root chance node
    ("pub", snap)    chance node for the public card, once round one has closed
    ("play", snap)   decision node
    ("end", p0)      terminal, p0 = player 0 net payoff

    snap is a LeducGame snapshot, read by restoring it on one engine.
    The deal gives seat 0 the suit-0 card of its rank and seat 1 the
    suit-1 card; the public card of rank c is the suit-0 card unless
    seat 0 holds it. The stock is never read after the public card.
    """

    num_players = 2

    def __init__(self):
        game = self._game = leduc.LeducGame(Rng(0))
        game.reset()
        self._start = game.snapshot()

    def root(self):
        return ("deal",)

    def is_chance(self, node) -> bool:
        return node[0] in ("deal", "pub")

    def is_terminal(self, node) -> bool:
        return node[0] == "end"

    def _at(self, snap) -> leduc.LeducGame:
        game = self._game
        game.restore(snap)
        return game

    def chance_outcomes(self, node):
        out = []
        if node[0] == "deal":
            game = self._at(self._start)
            for a in range(3):
                for b in range(3):
                    game.hands = (a, 3 + b)
                    out.append((("play", game.snapshot()), (2 if a == b else 4) / 30))
            return out
        game = self._at(node[1])
        a, b = game.hands[0], game.hands[1] - 3
        for c in range(3):
            remaining = 2 - (a == c) - (b == c)
            if remaining:
                game.public = 3 + c if c == a else c
                out.append((("play", game.snapshot()), remaining / 4))
        return out

    @staticmethod
    def deal_children(hands, public) -> tuple[int, int]:
        """Where one deal leads: the root's child for the private cards
        hands and the public chance node's child for the card public
        (card ids), as chance_outcomes orders them."""
        a, b, c = hands[0] % 3, hands[1] % 3, public % 3
        skipped = a == b and a < c  # both seats hold rank a, so no public card has it
        return a * 3 + b, c - skipped

    def player(self, node) -> int:
        return self._at(node[1]).current_player()

    def info_key(self, node) -> str:
        game = self._at(node[1])
        return leduc.render_key(leduc.capture(game, game.current_player())[1])

    def actions(self, node):
        return self._at(node[1]).legal_moves()

    def child(self, node, action):
        game = self._at(node[1])
        round_index = game.round_index
        if game.step(action) is None:
            return ("end", int(game.payoffs()[0]))
        return ("play" if game.round_index == round_index else "pub", game.snapshot())

    def payoffs(self, node):
        return (node[1], -node[1])


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

    layout is its TreeLayout, built at first use. Instances are immutable
    and shared: deepcopy returns the same object.
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

    @cached_property
    def layout(self) -> TreeLayout:
        return TreeLayout(self)

    def __deepcopy__(self, memo):
        return self


def compile_tree(tree, node_limit: int = NODE_LIMIT) -> CompiledTree:
    """Walk a TreeGame once and return its compiled form.

    The walk keeps its own stack, so depth alone never stops it.
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

    stack = [(tree.root(), [])]  # (TreeGame node, its parent's child list); popped in preorder
    while stack:
        node, siblings = stack.pop()
        n = len(kind)
        if n >= node_limit:
            raise GameTooLarge(f"tree exceeds {node_limit} nodes")
        siblings.append(n)
        kind.append(TERMINAL)
        children.append([])
        for table in (probs, seat, info, payoff):
            table.append(None)
        if tree.is_terminal(node):
            pay = tuple(tree.payoffs(node))
            if len(pay) != 2 or pay[1] != -pay[0]:
                raise NotZeroSum(f"terminal payoffs {pay} are not two-player zero-sum")
            payoff[n] = pay[0]
            continue
        if tree.is_chance(node):
            outcomes = tree.chance_outcomes(node)
            kind[n] = CHANCE
            probs[n] = tuple(prob for _, prob in outcomes)
            below = [child for child, _ in outcomes]
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
            below = [tree.child(node, a) for a in acts]
        stack.extend((child, children[n]) for child in reversed(below))  # the first child pops first

    return CompiledTree(
        kind=tuple(kind),
        children=tuple(map(tuple, children)),
        probs=tuple(probs),
        seat=tuple(seat),
        info=tuple(info),
        payoff=tuple(payoff),
        keys=tuple(keys),
        actions=tuple(actions),
        info_seat=tuple(info_seat),
    )


_COMPILED: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compiled_tree(game) -> CompiledTree:
    """Compiled form of a game id or TreeGame, built once per tree instance.

    Raises GameTooLarge past NODE_LIMIT.
    """
    tree = tree_for(game)
    compiled = _COMPILED.get(tree)
    if compiled is None:
        compiled = _COMPILED[tree] = compile_tree(tree)
    return compiled


class TreeLayout:
    """A compiled tree's nodes in breadth-first order: the one numbering its sweeps share.

    Positions number the nodes level by level, in preorder within a level,
    so level k is the slice bounds[k]:bounds[k + 1] and a node's children
    sit side by side in action order. Info set i owns the action slots
    offsets[i] up to offsets[i + 1]. Arrays by position:

    node          the preorder index
    kind          TERMINAL, CHANCE or DECISION
    seat, info    acting seat and info-set index at decisions, else -1
    parent        the parent's position (0 at the root)
    action        the place among the parent's children (-1 at the root)
    slot          the action slot of the edge in from a decision, else -1
    edge_prob     the chance probability leading in, 1.0 below a decision
    chance_reach  the product of edge_prob from the root
    payoff        player 0's payoff at terminals, else 0.0
    """

    def __init__(self, tree: CompiledTree):
        children, probs, info = tree.children, tree.probs, tree.info
        offsets = self.offsets = [0, *accumulate(len(acts) for acts in tree.actions)]
        order, parent, action, slot, edge_prob, chance_reach = [0], [0], [-1], [-1], [1.0], [1.0]
        self.bounds = [0, 1]
        for p, node in enumerate(order):  # grows as it goes: a parent's reach is ready before its children's
            if p == self.bounds[-1]:  # a new level: every child of the last one is in
                self.bounds.append(len(order))
            for a, child in enumerate(children[node]):
                prob = probs[node][a] if probs[node] else 1.0
                order.append(child)
                parent.append(p)
                action.append(a)
                slot.append(-1 if info[node] is None else offsets[info[node]] + a)
                edge_prob.append(prob)
                chance_reach.append(chance_reach[p] * prob)
        self.node, self.parent, self.action, self.slot = (np.array(x, dtype=np.intp) for x in (order, parent, action, slot))
        self.edge_prob, self.chance_reach = np.array(edge_prob), np.array(chance_reach)

        def by_position(table, missing, dtype=np.intp):
            return np.array([missing if x is None else x for x in table], dtype=dtype)[self.node]

        self.kind, self.seat, self.info = by_position(tree.kind, -1), by_position(tree.seat, -1), by_position(info, -1)
        self.payoff = by_position(tree.payoff, 0.0, float)


def blackjack_info_sets() -> tuple[set[str], int]:
    """(every decision info key, the state count behind them) for blackjack.

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
        up_score = blackjack.upcard_score(up)
        counts = [4] * 13
        counts[up] -= 1

        def expand(hand: list[int]) -> None:
            nonlocal states
            score, soft = blackjack.hand_value(hand)
            if score > 21:
                return
            keys.add(blackjack.info_key(score, soft, len(hand), up_score))
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


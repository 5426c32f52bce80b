"""Tournaments, exact best response and exploitability, info-set census.

Tournament blocks rotate the agents through the seats and replay the
same per-game deal seeds in every block, so role asymmetry (dealer
position, the landlord seat) cancels out of per-agent aggregates and
the whole run is reproducible from one master seed.

Best response comes in two independently written forms. The generic
one sweeps the compiled tree's TreeLayout with numpy, as policy value
does (Johanson et al. 2011); the leduc-specific one never touches the
tree module and instead pushes explicit hidden-state weight vectors
(opponent card, board card) down the public betting sequence. The test
suite requires them to agree to 1e-9, which guards both the tree
construction and the sweep.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from cardtable.agents.policy import PolicyTable, left_sum
from cardtable.env import REGISTRY, Env, EnvConfig, make
from cardtable.errors import GameTooLarge, InvalidParam, NotZeroSum, SeatMismatch
from cardtable.trees import DECISION, CompiledTree, blackjack_info_sets, compiled_tree

# ---------------------------------------------------------------------------
# tournaments


@dataclass(frozen=True)
class SeatBlock:
    """One rotation block: agents[assignment[s]] sat in seat s."""

    assignment: tuple[int, ...]
    games: int
    seat_means: tuple[float, ...]
    seat_variances: tuple[float, ...]


@dataclass(frozen=True)
class TournamentResult:
    """Per-seat and per-agent payoff statistics for one tournament.

    CSV column order (one row per block and seat): block, seat, agent,
    games, mean_payoff, payoff_variance; aggregate per-agent rows use
    block "all" and seat "*". Variances are population variances.
    """

    game_id: str
    game_count: int
    scheme: str
    blocks: tuple[SeatBlock, ...]
    agent_means: tuple[float, ...]
    agent_variances: tuple[float, ...]

    def csv_table(self) -> str:
        lines = ["block,seat,agent,games,mean_payoff,payoff_variance"]
        for b, block in enumerate(self.blocks):
            for s in range(len(block.assignment)):
                lines.append(
                    f"{b},{s},{block.assignment[s]},{block.games},"
                    f"{block.seat_means[s]:.6f},{block.seat_variances[s]:.6f}"
                )
        for a, (mean, var) in enumerate(zip(self.agent_means, self.agent_variances)):
            lines.append(f"all,*,{a},{self.game_count},{mean:.6f},{var:.6f}")
        return "\n".join(lines)

    def summary_dict(self) -> dict:
        return {
            "game_id": self.game_id,
            "game_count": self.game_count,
            "scheme": self.scheme,
            "agent_means": list(self.agent_means),
            "agent_variances": list(self.agent_variances),
            "blocks": [
                {
                    "assignment": list(b.assignment),
                    "games": b.games,
                    "seat_means": list(b.seat_means),
                    "seat_variances": list(b.seat_variances),
                }
                for b in self.blocks
            ],
        }


def _mean_var(values) -> tuple[float, float]:
    n = len(values)
    mean = left_sum(values) / n
    var = left_sum((v - mean) ** 2 for v in values) / n
    return mean, var


def tournament(config: EnvConfig, agents, n_games: int, rotate: bool = True) -> TournamentResult:
    """Play n_games between the agents under per-game derived seeds.

    With rotate=True the games are split into num_seats blocks; block b
    seats agents[(s - b) % k] at seat s, and every block replays the
    same deal seeds, so each agent faces the identical deal schedule
    from every seat. n_games rounds down to a multiple of the block
    count. rotate=False plays a single fixed-seat block.
    """
    agents = list(agents)
    seats = config.resolved_players()
    if len(agents) != seats:
        raise SeatMismatch(f"{config.game_id} seats {seats} players, got {len(agents)} agents")
    rotations = seats if rotate else 1
    per_block = n_games // rotations
    if per_block < 1:
        raise InvalidParam(f"n_games={n_games} is fewer than the {rotations} rotation blocks")
    blocks = []
    agent_payoffs: list[list[float]] = [[] for _ in agents]
    for b in range(rotations):
        assignment = tuple((s - b) % seats for s in range(seats))
        env = make(config)
        env.set_agents([agents[assignment[s]] for s in range(seats)])
        seat_payoffs: list[list[float]] = [[] for _ in range(seats)]
        for _ in range(per_block):
            _, payoffs = env.run()
            for s, p in enumerate(payoffs):
                seat_payoffs[s].append(p)
                agent_payoffs[assignment[s]].append(p)
        stats = [_mean_var(seat_payoffs[s]) for s in range(seats)]
        blocks.append(
            SeatBlock(
                assignment=assignment,
                games=per_block,
                seat_means=tuple(m for m, _ in stats),
                seat_variances=tuple(v for _, v in stats),
            )
        )
    agg = [_mean_var(p) for p in agent_payoffs]
    scheme = f"{'rotated' if rotate else 'fixed'}:{rotations}x{per_block}"
    return TournamentResult(
        game_id=config.game_id,
        game_count=per_block * rotations,
        scheme=scheme,
        blocks=tuple(blocks),
        agent_means=tuple(m for m, _ in agg),
        agent_variances=tuple(v for _, v in agg),
    )


def winrate_vs_random(agent, config: EnvConfig, n_games: int) -> float:
    """Mean payoff of the agent in seat 0 with random agents elsewhere.

    Seat 0 is the landlord seat under the default doudizhu config. For
    the betting games the payoff is big blinds (leduc: antes) per hand;
    for the win/loss games it is the win rate.
    """
    from cardtable.agents.base import RandomAgent

    seats = config.resolved_players()
    lineup = [agent] + [RandomAgent() for _ in range(seats - 1)]
    result = tournament(config, lineup, n_games, rotate=False)
    return result.blocks[0].seat_means[0]


# ---------------------------------------------------------------------------
# best response and exploitability


def _slot_probs(tree: CompiledTree, tables) -> np.ndarray:
    """Each info set's action probabilities under its seat's table (tables
    is one PolicyTable for every seat or a sequence per seat), by action
    slot: uniform at a key the table lacks, 0.0 at an action it lacks."""
    if isinstance(tables, PolicyTable):
        tables = [tables, tables]
    probs = []
    for key, actions, seat in zip(tree.keys, tree.actions, tree.info_seat):
        ids, stored = tables[seat].probs_for(key, actions)
        if ids != actions:
            by_id = dict(zip(ids, stored))
            stored = [by_id.get(action, 0.0) for action in actions]
        probs.extend(stored)
    return np.array(probs)


class _SweepPlan:
    """Index arrays for value sweeps of a compiled tree in which seat (0 or
    1) best-responds, or nobody does (None).

    A sweep pushes reach down the levels, then values up in stages, each
    reading only earlier ones. A node sums probability times value over
    its children in action order; the responder's nodes take the value of
    their info set's choice, made after every set below it: the first
    action of largest sum, over the set's nodes in preorder, of reach
    times child value. Only elementwise operations, take and bincount
    compute, so every product and sum runs in a depth-first walk's order.
    """

    def __init__(self, tree: CompiledTree, seat):
        layout = tree.layout
        parent, info, slot = layout.parent, layout.info, layout.slot
        n, self.num_sets = tree.num_nodes, len(tree.keys)
        responds = layout.seat == seat if seat is not None else np.zeros(n, dtype=bool)
        # a stage is a longest path over links from a child to its parent, or to
        # the parent's set n + i if the parent responds (+1), and from a set to
        # its nodes (+0); a set below itself closes a cycle that grows forever
        up = np.where(responds, n + info, np.arange(n))
        responders = np.flatnonzero(responds)
        src = np.concatenate((np.arange(1, n), n + info[responders]))
        dst = np.concatenate((up[parent[1:]], responders))
        step = np.repeat((1, 0), (n - 1, len(responders)))
        stage = np.zeros(n + self.num_sets, dtype=np.intp)
        for rounds in range(2 * len(stage) + 1):
            last = stage.copy()
            np.maximum.at(stage, dst, last[src] + step)
            if (stage == last).all():
                break
            if rounds == len(stage):  # past any path without a cycle: what grows on is on or above one
                settled = stage.copy()
        else:
            stuck = [key for i, key in enumerate(tree.keys) if stage[n + i] != settled[n + i]]
            raise ValueError(f"info keys {stuck} have no best-response order: each lies below itself or another of them")

        self.value = 0.0 - layout.payoff if seat == 1 else layout.payoff
        self.multipliers = layout.edge_prob.copy()  # 1.0 below the responder, so a child has its node's reach
        self.slot_pos = np.flatnonzero((slot >= 0) & ~responds[parent])
        self.slots = slot[self.slot_pos]
        levels = zip(layout.bounds[1:], layout.bounds[2:]) if seat is not None else ()  # no reach without a responder
        self.down = [(lo, hi, parent[lo:hi]) for lo, hi in levels]

        # edges in the walk's order: by the parent's preorder index, then by action
        child = 1 + np.argsort(layout.node[parent[1:]], kind="stable")
        by_responder = responds[parent[child]]
        summed, moved = child[~by_responder], child[by_responder]
        widths = np.diff(layout.offsets)
        self.stages = []
        for s in range(1, stage[0] + 1):
            edges, scored = summed[stage[parent[summed]] == s], moved[stage[parent[moved]] == s]
            nodes, group = np.unique(parent[edges], return_inverse=True)
            sets, owner = np.unique(info[parent[scored]], return_inverse=True)
            members, first = np.unique(parent[scored], return_index=True)
            pad = np.where(np.arange(widths[sets].max(initial=0)) < widths[sets, None], 0.0, -np.inf)
            bins = owner * pad.shape[1] + layout.action[scored]
            self.stages.append((nodes, edges, group, sets, bins, scored, pad, members, first, owner[first]))

    def sweep(self, slot_probs: np.ndarray) -> tuple[float, np.ndarray]:
        """(root value to the responder, or to player 0 for None; chosen
        action index per info set, 0 off the responder's sets)."""
        multipliers = self.multipliers.copy()
        multipliers[self.slot_pos] = slot_probs[self.slots]
        value, reach = self.value.copy(), np.ones(len(self.value))
        for lo, hi, parents in self.down:
            np.multiply(reach[parents], multipliers[lo:hi], out=reach[lo:hi])
        choice = np.zeros(self.num_sets, dtype=np.intp)
        for nodes, edges, group, sets, bins, cols, pad, members, first, owner in self.stages:
            if len(sets):
                scores = np.bincount(bins, reach[cols] * value[cols], pad.size).reshape(pad.shape)
                choice[sets] = picks = (scores + pad).argmax(axis=1)
                value[members] = value[cols[first + picks[owner]]]
            value[nodes] = np.bincount(group, multipliers[edges] * value[edges], len(nodes))
        return float(value[0]), choice


_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _sweep_plan(tree: CompiledTree, seat) -> _SweepPlan:
    plans = _PLANS.setdefault(tree, {})
    if seat not in plans:
        plans[seat] = _SweepPlan(tree, seat)
    return plans[seat]


def tree_policy_value(game, tables) -> tuple[float, ...]:
    """Exact expected payoffs when every seat plays its PolicyTable.

    tables is one table shared by all seats or a sequence per seat;
    unseen keys fall back to uniform, matching PolicyAgent. One upward
    sweep of the tree's layout, with nobody responding.
    """
    tree = compiled_tree(game)
    v, _ = _sweep_plan(tree, None).sweep(_slot_probs(tree, tables))
    return v, 0.0 - v  # not -v: a game worth exactly 0 is worth +0.0 to both seats


def best_response(game, policy: PolicyTable, player: int):
    """Exact best response for one player against a fixed policy.

    Returns (br_policy, br_value): br_policy plays, at each of the
    player's info sets, the first action of largest reach-weighted value.
    Raises ValueError if the player's info sets have no bottom-up order.
    """
    tree = compiled_tree(game)
    br_value, choice = _sweep_plan(tree, player).sweep(_slot_probs(tree, policy))
    br_policy = PolicyTable()
    for i, key in enumerate(tree.keys):
        if tree.info_seat[i] == player:
            actions = tree.actions[i]
            br_policy.set(key, actions, [1.0 if a == choice[i] else 0.0 for a in range(len(actions))])
    return br_policy, br_value


# independent leduc route: explicit hidden-state weights on the public tree

_LEDUC_MOVE_CHAR = {0: "c", 1: "r", 2: "f", 3: "k"}
_LEDUC_RAISE = (2, 4)
_LEDUC_RANK_NAMES = ("J", "Q", "K")


def _leduc_winner(a: int, b: int, board: int) -> int:
    if a == board and b != board:
        return 0
    if b == board and a != board:
        return 1
    if a > b:
        return 0
    if b > a:
        return 1
    return -1


def _leduc_key(seat: int, rank: int, board, history: str) -> str:
    pub = "-" if board is None else _LEDUC_RANK_NAMES[board]
    return f"L{seat}|{_LEDUC_RANK_NAMES[rank]}|{pub}|{history}"


def leduc_best_response_value(policy: PolicyTable, br_seat: int) -> float:
    """Best-response value for one leduc seat by full deal expansion.

    Written from the betting rules directly (ante 1, raises 2 then 4,
    two raises per round): a weight vector over (seat-0 card, seat-1
    card) pairs flows down every betting line, opponent weights shrink
    by the policy's action probabilities, and at each decision of the
    responding seat the vector splits by the seat's own card so the
    maximization happens exactly once per information set.
    """
    opp = 1 - br_seat

    def legal(facing: bool, raises: int) -> list[int]:
        moves = [0] if facing else [3]
        if raises < 2:
            moves.append(1)
        moves.append(2)
        return sorted(moves)

    def terminal_value(weights, contrib, winner_of) -> float:
        total = 0.0
        for (a, b), mass in weights.items():
            w = winner_of(a, b)
            if w == -1:
                continue
            total += mass * (contrib[opp] if w == br_seat else -contrib[br_seat])
        return total

    def walk(weights, board, history, rnd, bets, contrib, to_act, raises, acted) -> float:
        if not weights:
            return 0.0
        facing = bets[to_act] < bets[1 - to_act]
        moves = legal(facing, raises)
        if to_act == br_seat:
            groups: dict[int, dict] = {}
            for (a, b), mass in weights.items():
                groups.setdefault(a if br_seat == 0 else b, {})[(a, b)] = mass
            return left_sum(
                max(
                    apply(move, part, board, history, rnd, bets, contrib, to_act, raises, acted)
                    for move in moves
                )
                for part in groups.values()
            )
        total = 0.0
        probs_by_rank = {}
        for rank in range(3):
            ids, probs = policy.probs_for(_leduc_key(opp, rank, board, history), moves)
            probs_by_rank[rank] = dict(zip(ids, probs))
        for move in moves:
            shrunk = {}
            for (a, b), mass in weights.items():
                prob = probs_by_rank[a if opp == 0 else b].get(move, 0.0)
                if prob:
                    shrunk[(a, b)] = mass * prob
            total += apply(move, shrunk, board, history, rnd, bets, contrib, to_act, raises, acted)
        return total

    def apply(move, weights, board, history, rnd, bets, contrib, seat, raises, acted) -> float:
        if not weights:
            return 0.0
        history += _LEDUC_MOVE_CHAR[move]
        other = 1 - seat
        if move == 2:  # fold: the other seat nets the folder's chips
            return terminal_value(weights, contrib, lambda a, b: other)
        if move == 1:  # raise
            put = (bets[other] - bets[seat]) + _LEDUC_RAISE[rnd]
            bets = _pair_add(bets, seat, put)
            contrib = _pair_add(contrib, seat, put)
            return walk(weights, board, history, rnd, bets, contrib, other, raises + 1, acted + 1)
        if move == 0:  # call
            owe = bets[other] - bets[seat]
            bets = _pair_add(bets, seat, owe)
            contrib = _pair_add(contrib, seat, owe)
            closed = True
        else:  # check
            closed = acted >= 1
        if not closed:
            return walk(weights, board, history, rnd, bets, contrib, other, raises, acted + 1)
        if rnd == 0:
            history += "/"
            total = 0.0
            for c in range(3):
                dealt = {}
                for (a, b), mass in weights.items():
                    remaining = 2 - (a == c) - (b == c)
                    if remaining:
                        dealt[(a, b)] = mass * (remaining / 4)
                total += walk(dealt, c, history, 1, (0, 0), contrib, 0, 0, 0)
            return total
        return terminal_value(weights, contrib, lambda a, b: _leduc_winner(a, b, board))

    weights0 = {(a, b): (2 if a == b else 4) / 30 for a in range(3) for b in range(3)}
    return walk(weights0, None, "", 0, (0, 0), (1, 1), 0, 0, 0)


def _pair_add(pair, seat, amount):
    out = list(pair)
    out[seat] += amount
    return tuple(out)


@dataclass(frozen=True)
class ExploitabilityReport:
    game_id: str
    br_values: tuple[float, float]
    exploitability: float
    units: str


_ZERO_SUM_2P = ("leduc", "limit_holdem")


def exploitability(game_id: str, policy: PolicyTable) -> ExploitabilityReport:
    """Mean best-response value against the policy from both seats.

    Zero at an exact equilibrium, positive elsewhere (within 1e-9);
    units are big blinds per hand (one leduc ante = one blind). Only
    two-player zero-sum games qualify, and of those only leduc fits
    under the enumeration guard.
    """
    if game_id not in _ZERO_SUM_2P:
        raise NotZeroSum(f"{game_id} is not a two-player zero-sum game")
    tree = compiled_tree(game_id)  # limit_holdem raises GameTooLarge here
    slot_probs = _slot_probs(tree, policy)
    br0, br1 = (_sweep_plan(tree, seat).sweep(slot_probs)[0] for seat in (0, 1))
    return ExploitabilityReport(
        game_id=game_id,
        br_values=(br0, br1),
        exploitability=(br0 + br1) / 2,
        units="bb/hand",
    )


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class Census:
    """Exact info-set counts from enumeration (never estimates).

    States that differ only by suit are pooled, matching the engines'
    rank-level information keys.
    """

    game_id: str
    num_players: int
    info_sets_per_player: tuple[int, ...]
    avg_states_per_info_set: float
    action_space_size: int


def count_info_sets(game_id: str) -> Census:
    """Census by exhaustive walk; games past the node guard raise."""
    if game_id not in REGISTRY:
        raise InvalidParam(f"unknown game {game_id!r}")
    spec = REGISTRY[game_id]
    if game_id == "blackjack":
        keys, states = blackjack_info_sets()
        return Census(
            game_id=game_id,
            num_players=1,
            info_sets_per_player=(len(keys),),
            avg_states_per_info_set=states / len(keys),
            action_space_size=spec.num_actions,
        )
    if game_id == "leduc":
        tree = compiled_tree("leduc")
        return Census(
            game_id=game_id,
            num_players=2,
            info_sets_per_player=(tree.info_seat.count(0), tree.info_seat.count(1)),
            avg_states_per_info_set=tree.kind.count(DECISION) / len(tree.keys),
            action_space_size=spec.num_actions,
        )
    raise GameTooLarge(f"{game_id} info sets are not enumerable under the 10^7-node guard")

"""Uniform environment wrapper over the card game engines.

An Env is built from an EnvConfig by make() and exposes three modes:

* run(): play one full game with the registered agents and return
  (trajectories, payoffs), where trajectories[s] is seat s's tuple of
  Transition(state, action, reward, next_state, done) in turn order.
  Transitions carry a delayed next state: a player's next_state is
  their observation at their own next decision point (or the view of
  the ended game), rewards are zero until done, and each action is the
  int id the engine played.
* new_game()/step()/step_back(): manual tree traversal for solvers.
  step returns the new current player's observation; step_back undoes
  one step including every chance event, from the game.snapshot() the
  Env keeps per step taken. Under the engines' state rule a snapshot
  is a tuple of references, so keeping one per step costs no copy.
* make_single_agent(): gym-style reset()/sa_step() where one learner
  seat acts and every other seat is auto-played by a fixed agent.
  reset skips any seeded game that ends before the learner's first
  decision. learner_seat must be an int seat (InvalidParam at
  make_single_agent otherwise).

Every loop follows the seat Game.reset and Game.step return (the
game's `turn`), None once the game is over, and never asks is_over().
The engine's GameOver (step on a finished game) and GameNotOver
(payoffs of a running one) pass through the Env unchecked.

Reproducibility contract: game number i of an Env seeded with S is
played from the derived seed split_seed(S, i). The deal uses stream 0
of that game seed and the agent at seat s uses stream 1+s, so results
never depend on how games are batched across processes or which agent
implementation sits at another table. The Env computes this fan-out
for 64 games at a time (core.rng.fanout_block, cached by the block's
first index) and builds each game's generators from their stored
words; the streams are the ones Rng(split_seed(...)) gives.

Observations are captured when they are made and rendered when read
(see Observation); the default extract_state renders with the engine
module's render_raw, render_key and encode_planes. Each engine's
observe(game, seat) is the eager composition of the same functions,
returning (raw, legal, key). The Env never calls it.
It stays because the tests use it as the eager reference for the lazy
Observation, and perfbench/tracing.py wraps it by name as a trace point.

The engine computes legal moves once per state (Game.legal_moves), and
Game.step is the one legality check: the observation's legal ids and that
check read the same tuple. Every mode applies a decision through one
helper, which turns the engine's IllegalMove into IllegalAction naming
who chose the action (agent, opponent, learner or player) and their
seat; the game and the timestep count are left as they were.

The observation hook (extract_state) is a method that an instance
attribute of the same name replaces; a replacement may change raw views
and planes, by passing its own renderers to Observation, but must keep
the engine's legal action ids. Being a method, not a bound method stored
on the instance, it leaves the Env free of reference cycles, so a
dropped Env is freed at once. Actions need no decoding hook: every
engine steps on the action ids themselves.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from types import ModuleType
from typing import NamedTuple

from cardtable.core.contracts import Game, _action_id, int_param
from cardtable.core.rng import FANOUT_BLOCK, Rng, fanout_block
from cardtable.core.rng import split_seed  # noqa: F401 - perfbench/tracing.py patches env.split_seed by name
from cardtable.errors import (
    AgentsNotSet,
    IllegalAction,
    IllegalMove,
    InvalidParam,
    NotSingleAgentMode,
    UnknownGame,
)
from cardtable.games import blackjack, doudizhu, leduc, limit_holdem, uno

@dataclass(frozen=True)
class GameSpec:
    """Registry row: a game id's engine module, its Game class and the
    fixed keyword arguments the id adds (dou dizhu's variant). The rest is
    the engine's: the module's NUM_ACTIONS, the class's SEATS (EnvConfig's
    default seat count is the low end) and PARAMS. Env builds the game as
    engine(Rng(seed), num_players, **fixed, **game_params)."""

    module: ModuleType
    engine: type[Game]
    fixed: dict = field(default_factory=dict)

    @property
    def num_actions(self) -> int:
        return self.module.NUM_ACTIONS

    @property
    def player_range(self) -> tuple[int, int]:
        return self.engine.SEATS

    @property
    def params(self) -> tuple[str, ...]:
        return self.engine.PARAMS


REGISTRY = {
    "blackjack": GameSpec(blackjack, blackjack.BlackjackGame),
    "leduc": GameSpec(leduc, leduc.LeducGame),
    "limit_holdem": GameSpec(limit_holdem, limit_holdem.LimitHoldemGame),
    "uno": GameSpec(uno, uno.UnoGame),
    "doudizhu": GameSpec(doudizhu, doudizhu.DoudizhuGame, {"variant": "full"}),
    "mini_doudizhu": GameSpec(doudizhu, doudizhu.DoudizhuGame, {"variant": "mini"}),
}
GAME_IDS = tuple(REGISTRY)


def game_spec(game_id: str) -> GameSpec:
    """The registry row of game_id; UnknownGame naming the choices otherwise."""
    spec = REGISTRY.get(game_id)
    if spec is None:
        raise UnknownGame(f"no game called {game_id!r}; choose from {', '.join(GAME_IDS)}")
    return spec


@dataclass(frozen=True)
class EnvConfig:
    """A game's options, checked once, when the config is built.

    An unregistered game_id raises UnknownGame; a seed that is not an
    int (a bool is not), a seat count that is not an int in the game's
    range, or a game_params name the game does not take, InvalidParam.
    A None num_players becomes the low end of the game's range, so every
    holder of a config reads a valid int. The engine checks the
    parameter values.
    """

    game_id: str
    seed: int = 0
    num_players: int | None = None
    game_params: dict = field(default_factory=dict)

    def __post_init__(self):
        spec = game_spec(self.game_id)
        int_param("seed", self.seed)
        n = spec.player_range[0] if self.num_players is None else self.num_players
        object.__setattr__(self, "num_players", int_param(f"{self.game_id} num_players", n, *spec.player_range))
        for key in self.game_params:
            if key not in spec.params:
                allowed = ", ".join(spec.params) if spec.params else "none"
                raise InvalidParam(f"{self.game_id} has no parameter {key!r} (allowed: {allowed})")


class Observation:
    """One player's view of a state: legal ids, raw dict, info key, planes.

    Observation(player_id, legal_action_ids, view, render) holds an
    engine capture, the legal ids tuple plus a view that shares the engine's
    immutable fields, and render = (render_raw, render_key, planes_fn).
    raw and info_key are each rendered from the view on first read, at
    most once, and planes are encoded from raw at most once. So a reader
    of the legal ids alone builds nothing, a reader of info_key alone
    never builds the raw dict, and every view stays the one at
    observation time however the game moves on.

    Equality ignores the planes tensor (it is derived from raw and may
    be re-encoded by a replaced hook).
    """

    __slots__ = ("player_id", "legal_action_ids", "_view", "_render", "_raw", "_info_key", "_planes")

    def __init__(self, player_id, legal_action_ids, view, render):
        self.player_id = player_id
        self.legal_action_ids = legal_action_ids
        self._view = view
        self._render = render
        self._raw = self._info_key = self._planes = None

    @property
    def raw(self) -> dict:
        raw = self._raw
        if raw is None:
            raw = self._raw = self._render[0](self._view)
        return raw

    @property
    def info_key(self) -> str:
        key = self._info_key
        if key is None:
            key = self._info_key = self._render[1](self._view)
        return key

    @property
    def planes(self):
        if self._planes is None:
            self._planes = self._render[2](self.raw)
        return self._planes

    def __eq__(self, other):
        if not isinstance(other, Observation):
            return NotImplemented
        return (
            self.player_id == other.player_id
            and self.legal_action_ids == other.legal_action_ids
            and self.raw == other.raw
            and self.info_key == other.info_key
        )

    def __hash__(self):
        return hash((self.player_id, self.legal_action_ids, self.info_key))

    def __repr__(self):
        return f"Observation(player={self.player_id}, key={self.info_key!r}, legal={self.legal_action_ids})"


class Transition(NamedTuple):
    """One decision of one seat, with the seat's view at its next decision."""

    state: Observation
    action: int
    reward: float
    next_state: Observation
    done: bool


class Env:
    """One card game behind the uniform run/step/step_back interface."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.spec = spec = game_spec(config.game_id)
        self.game_id = config.game_id
        self.num_players = config.num_players
        self.num_actions = spec.num_actions
        self.game = spec.engine(Rng(config.seed), config.num_players, **spec.fixed, **config.game_params)
        self._render = (spec.module.render_raw, spec.module.render_key, spec.module.encode_planes)
        self._undo: list = []  # tree mode's snapshots, one per step taken since the deal
        self.game_index = -1  # becomes 0 on the first game
        self.timesteps = 0  # decisions taken across all games
        self._agents = None
        self._block_start = -1  # first game index of the cached fanout_block
        self._block = None
        self._words = None  # the current game's stream words, stream 0 first
        self._agent_rngs = None
        # single-agent mode plumbing
        self._sa_learner: int | None = None
        self._sa_opponents = None

    # hook -----------------------------------------------------------

    def extract_state(self, seat: int) -> Observation:
        """Observation hook; an instance attribute of the same name replaces
        it, and may change raw/planes but must keep the legal action ids."""
        legal, view = self.spec.module.capture(self.game, seat)
        return Observation(seat, legal, view, self._render)

    # shared plumbing --------------------------------------------------

    def _deal(self) -> int:
        """Advance to the next game in the seed sequence and deal it from
        the game seed's stream 0; returns the first seat. Builds no agent
        streams, so a solver that samples with its own stream calls this
        alone."""
        self.game_index = index = self.game_index + 1
        start = index - index % FANOUT_BLOCK
        if start != self._block_start:
            self._block = fanout_block(self.config.seed, start, 1 + self.num_players)
            self._block_start = start
        self._words = words = self._block[index - start].tolist()
        self.game.rng = Rng.from_words(words[0])
        self._undo.clear()
        return self.game.reset()

    def _begin_game(self) -> int:
        """_deal, plus the agent streams: seat s draws from stream 1 + s."""
        seat = self._deal()
        self._agent_rngs = [Rng.from_words(words) for words in self._words[1:]]
        return seat

    def seek(self, game_index: int) -> None:
        """Make the next game played use the given index's seed fan-out.

        Lets workers split a game range without replaying the prefix:
        seek(i) then run() plays exactly the game a fresh env would play
        i games in. An index that is not an int of at least 0 (a bool
        included) raises InvalidParam naming game_index.
        """
        self.game_index = int_param("game_index", game_index, 0) - 1

    def _act(self, action_id: int, chooser: str) -> int | None:
        """Step the game by one decision; returns the next seat, None when over."""
        try:
            nxt = self.game.step(action_id)
        except IllegalMove as exc:
            seat = self.game.current_player()
            raise IllegalAction(f"{chooser} at seat {seat} chose {action_id}: {exc}") from exc
        self.timesteps += 1
        return nxt

    # run mode ---------------------------------------------------------

    def set_agents(self, agents) -> None:
        agents = list(agents)
        if len(agents) != self.num_players:
            raise AgentsNotSet(f"need {self.num_players} agents, got {len(agents)}")
        self._agents = agents

    def run(self):
        """Play one complete game; returns (trajectories, payoffs), where
        trajectories[s] is seat s's tuple of transitions in turn order."""
        if self._agents is None:
            raise AgentsNotSet("call set_agents() before run()")
        seat = self._begin_game()
        last: list[tuple | None] = [None] * self.num_players  # each seat's newest (state, action)
        transitions: list[list[Transition]] = [[] for _ in range(self.num_players)]
        while seat is not None:
            obs = self.extract_state(seat)
            if last[seat] is not None:
                transitions[seat].append(Transition(*last[seat], 0.0, obs, False))
            action = self._agents[seat].eval_step(obs, self._agent_rngs[seat])
            nxt = self._act(action, "agent")
            last[seat] = (obs, action if action.__class__ is int else _action_id(action))  # the int Game.step played
            seat = nxt
        payoffs = self.game.payoffs()
        for s, pair in enumerate(last):
            if pair is not None:
                transitions[s].append(Transition(*pair, payoffs[s], self.extract_state(s), True))
        return [tuple(seat_transitions) for seat_transitions in transitions], payoffs

    # tree mode ----------------------------------------------------------

    def new_game(self):
        """Start the next seeded game; returns (obs, current_player)."""
        seat = self._begin_game()
        return self.extract_state(seat), seat

    def step(self, action_id: int):
        """Apply one action; returns (obs of new current player, seat), no legal ids once over."""
        snap = self.game.snapshot()
        seat = self._act(action_id, "player")  # a rejected step raises here and pushes nothing
        self._undo.append(snap)
        if seat is None:
            seat = self.game.current_player()
        return self.extract_state(seat), seat

    def step_back(self) -> bool:
        """Undo the most recent step, chance included; False when there is nothing to undo."""
        if not self._undo:
            return False
        self.game.restore(self._undo.pop())
        return True

    def is_over(self) -> bool:
        return self.game.is_over()

    def current_player(self) -> int:
        return self.game.current_player()

    def get_payoffs(self) -> list[float]:
        """The finished game's payoffs; the engine's payoffs() refuses a running game."""
        return self.game.payoffs()

    # single-agent mode ---------------------------------------------------

    def _autoplay_opponents(self, seat: int | None) -> int | None:
        """Play the opponents from seat on; returns the learner's seat, None when over."""
        learner = self._sa_learner
        while seat is not None and seat != learner:
            obs = self.extract_state(seat)
            action = self._sa_opponents[seat].eval_step(obs, self._agent_rngs[seat])
            seat = self._act(action, "opponent")
        return seat

    def reset(self) -> Observation:
        """Start episodes until the learner has a decision; returns their view."""
        if self._sa_learner is None:
            raise NotSingleAgentMode("env was not built by make_single_agent()")
        while True:
            if self._autoplay_opponents(self._begin_game()) is not None:
                return self.extract_state(self._sa_learner)
            # the game ended before the learner ever moved; skip to the
            # next seeded game so reset always yields a decision

    def sa_step(self, action_id: int):
        """Learner action in; (next obs, reward, done) out."""
        if self._sa_learner is None:
            raise NotSingleAgentMode("env was not built by make_single_agent()")
        if self._autoplay_opponents(self._act(action_id, "learner")) is None:
            return self.extract_state(self._sa_learner), self.game.payoffs()[self._sa_learner], True
        return self.extract_state(self._sa_learner), 0.0, False

    @property
    def learner_rng(self) -> Rng:
        """The learner seat's per-game stream (matches run() seeding)."""
        if self._sa_learner is None:
            raise NotSingleAgentMode("env was not built by make_single_agent()")
        return self._agent_rngs[self._sa_learner]


def make(config: EnvConfig) -> Env:
    """Build the environment described by a config."""
    return Env(config)


def make_single_agent(config: EnvConfig, opponents, learner_seat: int = 0) -> Env:
    """Gym-style env: one learner seat, fixed agents everywhere else.

    opponents maps the non-learner seats in ascending seat order.
    """
    env = Env(config)
    seats = list(opponents)
    if len(seats) != env.num_players - 1:
        raise AgentsNotSet(f"need {env.num_players - 1} opponents, got {len(seats)}")
    int_param("learner_seat", learner_seat, 0, env.num_players - 1)
    seats.insert(learner_seat, None)
    env._sa_learner = learner_seat
    env._sa_opponents = seats
    return env


def state_hash(info_key: str) -> str:
    """Stable 16-hex-digit digest of an information key."""
    return hashlib.sha256(info_key.encode()).hexdigest()[:16]


def serialize_trajectories(game_id: str, seed: int, game_index: int, trajectories, payoffs) -> str:
    """One text block per game: header line then one line per transition.

    Fields: game id, master seed, game index, player, step index,
    state hash, action, reward, done. Stable across runs and platforms
    byte for byte.
    """
    lines = [f"# game={game_id} seed={seed} index={game_index} payoffs={','.join(f'{p:g}' for p in payoffs)}"]
    for player, transitions in enumerate(trajectories):
        for i, t in enumerate(transitions):
            lines.append(
                f"{game_id},{seed},{game_index},{player},{i},"
                f"{state_hash(t.state.info_key)},{t.action},{t.reward:g},{int(t.done)}"
            )
    return "\n".join(lines) + "\n"

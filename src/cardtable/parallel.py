"""Multi-worker self-play rollouts and the throughput benchmark.

Game i always draws its seeds from split(master_seed, i), never from a
worker-local stream, so the aggregate result of a rollout is identical
for any worker count and any completion order; workers only decide who
plays which already-determined game. Timing therefore varies run to
run while every payoff and trajectory byte stays fixed.

Timesteps are decision steps (one per agent action); chance events
inside the engines are not counted.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from cardtable.agents.base import RandomAgent
from cardtable.agents.policy import PolicyAgent, PolicyTable
from cardtable.core.rng import split_seed
from cardtable.env import EnvConfig, game_spec, make, serialize_trajectories
from cardtable.errors import InvalidParam, ParseError, WorkerFailure


@dataclass(frozen=True)
class RolloutSpec:
    """What to play: per-seat agent descriptors are "random" or a policy file path."""

    env_config: EnvConfig
    agents: tuple[str, ...]
    n_games: int
    n_workers: int = 1


@dataclass(frozen=True)
class RolloutResult:
    per_game_payoffs: tuple[tuple[float, ...], ...]  # ordered by game index
    mean_payoffs: tuple[float, ...]
    total_steps: int
    logs: tuple[str, ...] | None  # per game, index order, when collected


@dataclass(frozen=True)
class BenchReport:
    """Throughput over `repeats` differently seeded runs, totals summed.

    CSV row: game, n_workers, games, steps, total_s, per_step_s.
    """

    game_id: str
    n_workers: int
    games: int
    steps: int
    total_s: float
    per_step_s: float
    repeats: int

    def csv_row(self) -> str:
        return (
            f"{self.game_id},{self.n_workers},{self.games},{self.steps},"
            f"{self.total_s:.6f},{self.per_step_s:.3e}"
        )

    @staticmethod
    def csv_header() -> str:
        return "game,n_workers,games,steps,total_s,per_step_s"


def build_agent(descriptor: str, game_id: str | None = None):
    """\"random\" or a path to a saved policy file.

    With a game id, the file's action ids are checked against that game's
    action space as it loads (InvalidPolicy names the key and the id).
    """
    if descriptor == "random":
        return RandomAgent()
    num_actions = None if game_id is None else game_spec(game_id).num_actions
    return PolicyAgent(PolicyTable.load(descriptor, num_actions))


def _play_block(config: EnvConfig, agents, indices, collect_logs: bool):
    """Worker body: plays the given game indices, one result tuple each.

    Failures are returned, not raised, so the parent can attach the
    failing game index to the error it surfaces.
    """
    env = make(config)
    env.set_agents(list(agents))
    out = []
    for i in indices:
        try:
            env.seek(i)
            trajectories, payoffs = env.run()
            steps = sum(len(t.transitions) for t in trajectories)
            log = (
                serialize_trajectories(config.game_id, config.seed, i, trajectories, payoffs)
                if collect_logs
                else None
            )
            out.append((i, tuple(payoffs), steps, log))
        except Exception as exc:  # noqa: BLE001 - repackaged with the game index
            out.append((i, None, 0, f"{type(exc).__name__}: {exc}"))
    return out


def rollout_parallel(spec: RolloutSpec, collect_logs: bool = False) -> RolloutResult:
    """Play spec.n_games, partitioned over spec.n_workers processes.

    Results are merged in game-index order and are bit-identical for
    any n_workers. n_games=0 returns an empty result without spawning
    anything; n_workers=1 runs inline in this process. One engine is
    built here first, so a bad game parameter value raises its
    InvalidParam before any worker starts or any game is charged with
    it. Policy files are loaded once, in this process, and checked
    against the game's action space; the loaded agents are sent to the
    workers.
    """
    if spec.n_workers < 1:
        raise InvalidParam(f"n_workers must be >= 1, got {spec.n_workers}")
    if spec.n_games < 0:
        raise InvalidParam(f"n_games must be >= 0, got {spec.n_games}")
    seats = spec.env_config.num_players
    if len(spec.agents) != seats:
        raise InvalidParam(f"{spec.env_config.game_id} seats {seats}, spec names {len(spec.agents)} agents")
    make(spec.env_config)  # the engine checks the parameter values
    if spec.n_games == 0:
        return RolloutResult((), (0.0,) * seats, 0, () if collect_logs else None)

    # Policy files load once, here, checked against the game: an action id
    # outside its space raises InvalidPolicy before any worker starts. Any
    # other load failure is charged to game 0.
    try:
        agents = tuple(build_agent(descriptor, spec.env_config.game_id) for descriptor in spec.agents)
    except ParseError as exc:
        raise WorkerFailure(0, f"{type(exc).__name__}: {exc}") from exc

    workers = min(spec.n_workers, spec.n_games)
    chunks = [list(range(w, spec.n_games, workers)) for w in range(workers)]
    if workers == 1:
        blocks = [_play_block(spec.env_config, agents, chunks[0], collect_logs)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_play_block, spec.env_config, agents, chunk, collect_logs)
                for chunk in chunks
            ]
            blocks = [f.result() for f in futures]

    by_index: dict[int, tuple] = {}
    for block in blocks:
        for i, payoffs, steps, log in block:
            if payoffs is None:
                raise WorkerFailure(i, log)
            by_index[i] = (payoffs, steps, log)

    ordered = [by_index[i] for i in range(spec.n_games)]
    totals = [0.0] * seats
    total_steps = 0
    for payoffs, steps, _ in ordered:
        total_steps += steps
        for s, p in enumerate(payoffs):
            totals[s] += p
    return RolloutResult(
        per_game_payoffs=tuple(p for p, _, _ in ordered),
        mean_payoffs=tuple(t / spec.n_games for t in totals),
        total_steps=total_steps,
        logs=tuple(log for _, _, log in ordered) if collect_logs else None,
    )


def bench(game_id: str, n_games: int, n_workers: int, repeats: int = 3, seed: int = 0) -> BenchReport:
    """Time random self-play; repeats runs under different master seeds.

    Trajectories are discarded so the engines' own cost is what gets
    measured; per-step time is summed wall time over summed decision
    steps, 0.0 when no decision was taken.
    """
    total_s = 0.0
    steps = 0
    for r in range(repeats):
        config = EnvConfig(game_id=game_id, seed=split_seed(seed, r))
        spec = RolloutSpec(
            env_config=config,
            agents=("random",) * config.num_players,
            n_games=n_games,
            n_workers=n_workers,
        )
        start = time.perf_counter()
        result = rollout_parallel(spec)
        total_s += time.perf_counter() - start
        steps += result.total_steps
    return BenchReport(
        game_id=game_id,
        n_workers=n_workers,
        games=n_games * repeats,
        steps=steps,
        total_s=total_s,
        per_step_s=total_s / steps if steps else 0.0,
        repeats=repeats,
    )

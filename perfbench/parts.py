"""The four measured parts of the benchmark, one per workload.

A part builds its objects from the workload seed and cuts its work into
chunks. A chunk is a fixed piece of work that can be replayed exactly:
a range of seeded games (`Env.seek`), a copy of a CFR trainer, a fresh
MCCFR trainer, one rollout call. A round replays every chunk once.

Timings are normalised to the host's speed. On a shared host a CPU
runs up to 40% faster or slower for seconds at a time, with the
neighbours' load, and a whole run shifts with it. So a fixed piece of
pure-Python work owned by the benchmark (`Reference`) is timed between
every two chunk replays. A replay's cost is its wall time over the mean
of the two reference times around it, times REFERENCE_S; a chunk costs
the median over its replays, and a metric is the chunks' total work
over their summed cost. The unit stays the second: a second on a host
where the reference work takes REFERENCE_S. Every replay must give the
same outputs as the first one, and the first round's outputs feed the
part's digest.

The parts call the library through module attributes
(`evaluation.exploitability`, `parallel.rollout_parallel`, ...) so that
the traced run, which replaces those attributes, sees every call.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace

from cardtable import env as ct_env
from cardtable import evaluation, parallel
from cardtable.agents import base as agents_base
from cardtable.agents import cfr, mccfr, qlearning
from cardtable.errors import CardTableError

clock = time.perf_counter


# median time of Reference's work on the 2-CPU host the benchmark was
# written on (python 3.11); only the ratio to it is ever measured
REFERENCE_S = 0.004


class _Slot:
    __slots__ = ("first", "recent")

    def __init__(self, first: int):
        self.first = first
        self.recent: list[int] = []


class Reference:
    """Times a fixed piece of pure-Python work, the run's speed gauge.

    The work mixes what the library's hot paths do: calls, string keys,
    dict lookups, small objects, list traffic and a sort. It uses no
    library code, so a change to the library cannot move it.
    """

    def __init__(self):
        self.times: list[float] = []
        self.last = self.measure()

    def measure(self) -> float:
        start = clock()
        table: dict[str, _Slot] = {}
        pairs = []
        acc = 0
        for i in range(3000):
            key = f"k{i & 127}"
            slot = table.get(key)
            if slot is None:
                slot = table[key] = _Slot(i)
            slot.recent.append(i)
            if len(slot.recent) > 8:
                del slot.recent[:4]
            acc = _fold(acc, slot.first + len(slot.recent))
            pairs.append((acc, key))
        pairs.sort()
        self.last = clock() - start
        self.times.append(self.last)
        return self.last

    def speed(self) -> float:
        """REFERENCE_S over the run's median reference time."""
        return REFERENCE_S / statistics.median(self.times)


def _fold(acc: int, value: int) -> int:
    return (acc * 31 + value) & 0xFFFF


def derive_seed(seed: int, label: str) -> int:
    """64-bit input seed for one piece of a workload, owned by the benchmark."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:8], "big")


@dataclass
class Outcome:
    """What one execution of a chunk did, derived after its timing."""

    units: int  # work the metric counts: decisions, iterations, episodes, evaluations
    text: str  # deterministic output: equal on every replay, digested on the first
    rest: str = ""  # more output that replays must repeat, kept out of the digest
    attempted: int = 0  # operations: games, iterations or episodes
    failed: int = 0
    payoff: float = 0.0  # payoffs, rewards or exploitability, summed into the totals
    problems: list[str] = field(default_factory=list)


class Chunk:
    """One replayable piece of work feeding one metric.

    `prepare` runs untimed before each replay; `execute` is timed;
    `outcome` turns its result into an Outcome, untimed.
    """

    metric = ""
    iterations = 0  # solver iterations per execution
    ops = 0  # operations per execution, all failed when execute raises

    def prepare(self):
        return None

    def execute(self, state):
        raise NotImplementedError

    def outcome(self, result) -> Outcome:
        raise NotImplementedError


class Part:
    """Shared bookkeeping: replays, their times, checks and digest."""

    name = ""
    units: dict[str, str] = {}
    per_unit: tuple[str, ...] = ()  # metrics reported as seconds per unit, not units per second
    trace_rounds = 2  # rounds played by each half of a traced run

    def __init__(self, seed: int, focus: bool):
        self.seed = seed
        self.focus = focus
        self.chunks: list[Chunk] = []
        self.attempted = 0
        self.failed = 0
        self.work = 0  # units over every execution
        self.iterations = 0
        self.payoff_total = 0.0
        self.problems: list[str] = []
        self.rounds = 0
        self._digest = hashlib.sha256()
        self._first: dict[int, tuple[int, str]] = {}  # chunk index -> (units, text hash)
        self._costs: dict[int, list[float]] = {}  # chunk index -> normalised seconds per replay

    def build(self) -> None:
        """Construct the part's objects and chunks, warmed up (timed as set-up)."""
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks that need the whole run, made after timing ends."""

    def trace_extra(self) -> dict:
        """Counts only the traced run reports."""
        return {}

    def round(self, reference: Reference) -> None:
        for index, chunk in enumerate(self.chunks):
            state = chunk.prepare()
            before = reference.last
            start = clock()
            try:
                result = chunk.execute(state)
            except CardTableError as exc:
                elapsed = clock() - start
                out = Outcome(0, f"failed: {exc!r}\n", attempted=chunk.ops, failed=chunk.ops)
            else:
                elapsed = clock() - start
                out = chunk.outcome(result)
            after = reference.measure()
            self._account(index, chunk, out, elapsed * 2.0 * REFERENCE_S / (before + after))
        self.rounds += 1

    def _account(self, index: int, chunk: Chunk, out: Outcome, cost: float) -> None:
        self.attempted += out.attempted
        self.failed += out.failed
        self.work += out.units
        self.iterations += chunk.iterations
        self.payoff_total += out.payoff
        for problem in out.problems:
            self.check(False, problem)
        text_hash = hashlib.sha256((out.text + out.rest).encode()).hexdigest()
        first = self._first.get(index)
        if first is None:
            self._first[index] = (out.units, text_hash)
            self._digest.update(out.text.encode())
        else:
            self.check(first == (out.units, text_hash), f"replay of {chunk.metric} chunk {index} changed its output")
        self._costs.setdefault(index, []).append(cost)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(f"{self.name}: {message}")

    def digest(self) -> str:
        return self._digest.hexdigest()

    def metrics(self) -> dict[str, float]:
        out = {}
        for metric in self.units:
            indices = [i for i, c in enumerate(self.chunks) if c.metric == metric and i in self._first]
            units = sum(self._first[i][0] for i in indices)
            seconds = sum(statistics.median(self._costs[i]) for i in indices)
            if not units:
                out[metric] = 0.0
            elif metric in self.per_unit:
                out[metric] = seconds / units
            else:
                out[metric] = units / seconds
        return out

    def totals(self) -> dict:
        """Deterministic totals that a traced and an untraced run must share."""
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "work": self.work,
            "iterations": self.iterations,
            "payoff_total": repr(self.payoff_total),
            "digest": self.digest(),
        }


# ---------------------------------------------------------------------------
# selfplay: run-mode random self-play on every game id

# games per chunk, sized so that one chunk takes roughly 75 ms on a 2-CPU host
SELFPLAY_GAMES = {
    "blackjack": 400,
    "leduc": 600,
    "limit_holdem": 250,
    "uno": 40,
    "doudizhu": 18,
    "mini_doudizhu": 60,
}
ZERO_SUM = ("leduc", "limit_holdem")


class GamesChunk(Chunk):
    """`n` consecutive seeded games of one env, from game index `start`."""

    def __init__(self, env, game_id: str, start: int, n: int):
        self.env, self.game_id, self.start, self.n = env, game_id, start, n
        self.metric = f"steps_per_s.{game_id}"

    def prepare(self):
        self.env.seek(self.start)

    def execute(self, state):
        env = self.env
        played = []
        for _ in range(self.n):
            before = env.timesteps
            try:
                _, payoffs = env.run()
            except CardTableError:
                played.append(None)
                continue
            played.append((env.timesteps - before, payoffs))
        return played

    def outcome(self, played) -> Outcome:
        out = Outcome(units=0, text="", attempted=self.n)
        lines = []
        for i, game in enumerate(played, start=self.start):
            if game is None:
                out.failed += 1
                lines.append(f"{self.game_id} {i} failed")
                continue
            steps, payoffs = game
            out.units += steps
            out.payoff += sum(payoffs)
            if self.game_id in ZERO_SUM and abs(sum(payoffs)) >= 1e-9:
                out.problems.append(f"{self.game_id} game {i} payoffs {payoffs} do not sum to zero")
            lines.append(f"{self.game_id} {i} {steps} {','.join(repr(p) for p in payoffs)}")
        out.text = "\n".join(lines) + "\n"
        return out


class SelfPlay(Part):
    name = "selfplay"
    units = {f"steps_per_s.{g}": "decisions/s" for g in ct_env.GAME_IDS}
    trace_rounds = 4

    def __init__(self, seed: int, focus: bool, agent=agents_base.RandomAgent):
        super().__init__(seed, focus)
        self.agent = agent

    def build(self) -> None:
        chunks = []
        for game_id in ct_env.GAME_IDS:
            env = ct_env.make(ct_env.EnvConfig(game_id=game_id, seed=derive_seed(self.seed, game_id)))
            env.set_agents([self.agent() for _ in range(env.num_players)])
            try:
                env.run()  # warm-up: game 0
            except CardTableError:
                pass
            chunks.append(GamesChunk(env, game_id, 1, SELFPLAY_GAMES[game_id]))
        self.chunks = chunks


# ---------------------------------------------------------------------------
# leduc_solve: vanilla CFR and exact exploitability

CFR_BASE_ITERS = 20  # iterations run while building, before the timed chunk
CFR_CHUNK = 10  # iterations per timed chunk
EXPLOIT_EVALS = 2  # evaluations per timed chunk (one takes about 30 ms)
CFR_TARGET = 0.2  # exploitability (bb/hand) that agents.cfr.iters_to_target counts to
CFR_TRACE_ITERS = 150  # iterations of the traced run's convergence curve


class CFRChunk(Chunk):
    """CFR_CHUNK iterations on a copy of a trainer."""

    metric = "cfr_iters_per_s"
    iterations = ops = CFR_CHUNK

    def __init__(self, base):
        self.base = base
        self.last = None

    def prepare(self):
        return copy.deepcopy(self.base)

    def execute(self, trainer):
        trainer.run(CFR_CHUNK)
        return trainer

    def outcome(self, trainer) -> Outcome:
        self.last = trainer
        return Outcome(units=CFR_CHUNK, text=trainer.policy().dumps(), attempted=CFR_CHUNK)


class ExploitChunk(Chunk):
    """EXPLOIT_EVALS exploitability evaluations of a fixed policy."""

    metric = "exploit_s"

    def __init__(self, policy, iterations: int):
        self.policy, self.at = policy, iterations

    def execute(self, state):
        return [evaluation.exploitability("leduc", self.policy) for _ in range(EXPLOIT_EVALS)]

    def outcome(self, reports) -> Outcome:
        value = reports[0].exploitability
        out = Outcome(units=EXPLOIT_EVALS, text=f"exploitability {self.at} {value:.12f}\n", payoff=value)
        if any(r.exploitability != value for r in reports):
            out.problems.append("repeated exploitability evaluations differ")
        if not value >= 0.0:
            out.problems.append(f"exploitability {value!r} < 0 at iteration {self.at}")
        return out


class LeducSolve(Part):
    name = "leduc_solve"
    units = {"cfr_iters_per_s": "it/s", "exploit_s": "s"}
    per_unit = ("exploit_s",)
    trace_rounds = 10

    def build(self) -> None:
        base = cfr.CFRTrainer("leduc")
        base.run(CFR_BASE_ITERS)
        self.cfr_chunk = CFRChunk(base)
        self.chunks = [self.cfr_chunk, ExploitChunk(base.policy(), base.iterations)]

    def final_checks(self) -> None:
        if self.cfr_chunk.last is None:
            return
        policy = self.cfr_chunk.last.policy()
        for seat in (0, 1):
            _, generic = evaluation.best_response("leduc", policy, seat)
            oracle = evaluation.leduc_best_response_value(policy, seat)
            self.check(
                abs(generic - oracle) <= 1e-9,
                f"seat {seat}: best_response {generic!r} vs leduc_best_response_value {oracle!r}",
            )

    def trace_extra(self) -> dict:
        """First checkpoint (every CFR_CHUNK iterations) at or below CFR_TARGET; 0 if none."""
        trainer = cfr.CFRTrainer("leduc")
        while trainer.iterations < CFR_TRACE_ITERS:
            trainer.run(CFR_CHUNK)
            if evaluation.exploitability("leduc", trainer.policy()).exploitability <= CFR_TARGET:
                return {"iters_to_target": trainer.iterations}
        return {"iters_to_target": 0}


# ---------------------------------------------------------------------------
# learners: MCCFR in tree mode, Q-learning and a planes-reading learner

MCCFR_ITERS = 200  # per chunk, on a fresh trainer
QLEARN_EPISODES = 250  # per qlearn_train call
SA_EPISODES = 12  # doudizhu learner episodes per chunk


class MCCFRChunk(Chunk):
    metric = "mccfr_iters_per_s"
    iterations = ops = MCCFR_ITERS

    def __init__(self, config):
        self.config = config

    def prepare(self):
        return mccfr.MCCFRTrainer(self.config)

    def execute(self, trainer):
        trainer.run(MCCFR_ITERS)
        return trainer

    def outcome(self, trainer) -> Outcome:
        return Outcome(units=MCCFR_ITERS, text=trainer.policy().dumps(), attempted=MCCFR_ITERS)


class QLearnChunk(Chunk):
    metric = "qlearn_episodes_per_s"
    ops = QLEARN_EPISODES

    def __init__(self, env, start: int):
        self.env, self.start = env, start

    def prepare(self):
        self.env.seek(self.start)

    def execute(self, state):
        return qlearning.qlearn_train(self.env, QLEARN_EPISODES)

    def outcome(self, table) -> Outcome:
        out = Outcome(units=QLEARN_EPISODES, text=table.greedy_policy().dumps(), attempted=QLEARN_EPISODES)
        if not all(math.isfinite(v) for _, (_, values) in table.items() for v in values):
            out.problems.append("non-finite Q value")
        return out


class PlanesLearnerChunk(Chunk):
    """A doudizhu learner that reads the planes at every decision and picks
    uniformly with the env's learner stream."""

    metric = "sa_steps_per_s"

    def __init__(self, env, start: int):
        self.env, self.start = env, start

    def prepare(self):
        self.env.seek(self.start)

    def execute(self, state):
        env = self.env
        episodes = []
        for _ in range(SA_EPISODES):
            seen = hashlib.sha256()
            decisions = 0
            try:
                obs = env.reset()
                rng = env.learner_rng
                done = False
                while not done:
                    seen.update(obs.planes)
                    legal = obs.legal_action_ids
                    obs, reward, done = env.sa_step(legal[rng.randbelow(len(legal))])
                    decisions += 1
            except CardTableError:
                episodes.append(None)
                continue
            episodes.append((decisions, reward, seen.hexdigest()))
        return episodes

    def outcome(self, episodes) -> Outcome:
        out = Outcome(units=0, text="", attempted=SA_EPISODES)
        lines = []
        for episode in episodes:
            if episode is None:
                out.failed += 1
                lines.append("failed")
                continue
            decisions, reward, seen = episode
            out.units += decisions
            out.payoff += reward
            if reward not in (0.0, 1.0):
                out.problems.append(f"doudizhu learner reward {reward!r} not 0 or 1")
            lines.append(f"{decisions} {reward!r} {seen}")
        out.text = "\n".join(lines) + "\n"
        return out


class Learners(Part):
    name = "learners"
    units = {
        "mccfr_iters_per_s": "it/s",
        "qlearn_episodes_per_s": "episodes/s",
        "sa_steps_per_s": "decisions/s",
    }
    trace_rounds = 6

    def build(self) -> None:
        q_env = ct_env.make_single_agent(
            ct_env.EnvConfig(game_id="blackjack", seed=derive_seed(self.seed, "qlearn")), opponents=[]
        )
        sa_env = ct_env.make_single_agent(
            ct_env.EnvConfig(game_id="doudizhu", seed=derive_seed(self.seed, "planes")),
            opponents=[agents_base.RandomAgent(), agents_base.RandomAgent()],
        )
        self.chunks = [
            MCCFRChunk(ct_env.EnvConfig(game_id="leduc", seed=derive_seed(self.seed, "mccfr"))),
            QLearnChunk(q_env, 0),
            PlanesLearnerChunk(sa_env, 0),
        ]
        for chunk in self.chunks:  # warm-up, untimed by the rounds
            chunk.execute(chunk.prepare())


# ---------------------------------------------------------------------------
# rollout: rollout_parallel with trajectory logs

ROLLOUT_GAMES = {True: 100, False: 20}  # per call, as the workload's own part or not
DIGEST_GAMES = 20  # leading games whose logs form the digest and the 1-worker check


class RolloutChunk(Chunk):
    metric = "rollout_steps_per_s"

    def __init__(self, spec):
        self.spec = spec
        self.ops = spec.n_games
        self.first = None

    def execute(self, state):
        return parallel.rollout_parallel(self.spec, collect_logs=True)

    def outcome(self, result) -> Outcome:
        games = self.spec.n_games
        if self.first is None:
            self.first = result
        head = "".join(
            f"{payoffs!r}\n{log}"
            for payoffs, log in zip(result.per_game_payoffs[:DIGEST_GAMES], result.logs[:DIGEST_GAMES])
        )
        return Outcome(
            units=result.total_steps,
            text=head,
            rest="".join(result.logs[DIGEST_GAMES:]),
            attempted=games,
            payoff=sum(sum(p) for p in result.per_game_payoffs),
        )


class Rollout(Part):
    name = "rollout"
    units = {"rollout_steps_per_s": "decisions/s"}
    trace_rounds = 4

    def __init__(self, seed: int, focus: bool):
        super().__init__(seed, focus)
        # only the rollout workload starts worker processes
        self.workers = min(2, os.cpu_count() or 1) if focus else 1
        self.games = ROLLOUT_GAMES[focus]

    def build(self) -> None:
        config = ct_env.EnvConfig(game_id="doudizhu", seed=derive_seed(self.seed, "rollout"))
        self.spec = parallel.RolloutSpec(config, ("random",) * 3, self.games, self.workers)
        parallel.rollout_parallel(replace(self.spec, n_games=2, n_workers=1), collect_logs=True)
        self.chunk = RolloutChunk(self.spec)
        self.chunks = [self.chunk]

    def final_checks(self) -> None:
        first = self.chunk.first
        if first is None:
            return
        serial = parallel.rollout_parallel(replace(self.spec, n_games=DIGEST_GAMES, n_workers=1), collect_logs=True)
        self.check(
            serial.per_game_payoffs == first.per_game_payoffs[:DIGEST_GAMES]
            and serial.logs == first.logs[:DIGEST_GAMES],
            f"{self.workers}-worker games differ from a 1-worker run of the first {DIGEST_GAMES}",
        )

    def serial_rate(self, rounds: int, reference: Reference) -> float:
        """1-worker rate of the same spec, costed like a chunk, for parallel.efficiency."""
        serial = Rollout(self.seed, focus=False)
        serial.chunk = RolloutChunk(replace(self.spec, n_workers=1))
        serial.chunks = [serial.chunk]
        for _ in range(rounds):
            serial.round(reference)
        return serial.metrics()["rollout_steps_per_s"]

    def log_bytes_per_game(self) -> float:
        first = self.chunk.first
        if first is None:
            return 0.0
        return sum(len(log.encode()) for log in first.logs) / len(first.logs)


PARTS = {"selfplay": SelfPlay, "leduc_solve": LeducSolve, "learners": Learners, "selfplay_logs_2w": Rollout}

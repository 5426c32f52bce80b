"""Outside-in tracing: wrap each layer's public functions from here.

Nothing under `src/` knows about tracing. `install(tracer)` replaces
each traced function or method with a wrapper that opens a span, and
the untraced run never calls `install`, so it runs the library as is.

Spans are aggregated in memory by name, and by (parent, name) edge, as
call counts and self time: the span's duration minus the time of the
spans it directly contains. A layer's self share is its self time over
the wall time of the traced work.

Run as a script, this module is the traced half of a `--trace 1` run:
it builds one part in a fresh process, traces its fixed rounds and
prints the aggregates as one JSON line.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        # open spans: [name, time of the spans they directly contain]
        self._stack: list[list] = [["root", 0.0]]

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.edges.clear()

    def add(self, name: str, seconds: float) -> None:
        """Record a closed span of `seconds` under the innermost open span."""
        parent = self._stack[-1]
        self.calls[name] += 1
        self.self_s[name] += seconds
        self.edges[(parent[0], name)] += 1
        parent[1] += seconds

    def wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                edges[(parent[0], name)] += 1

        return traced


def patch_points():
    """(owner, attribute, span name) for every traced function.

    Engine spans carry the engine's module name (`games.uno.observe`);
    the per-layer metrics sum them over engines (`games.observe`).

    A name is patched where callers look it up: `matching_abstract_ids`
    is imported by name into `doudizhu`, `regret_matching` into
    `mccfr`, `serialize_trajectories` into `parallel` and `split_seed`
    into `env`, so each of those modules gets its own patch. Methods an
    engine inherits from `Game` (`step`, `reset`) are patched on every
    engine class, so each subclass resolves to a wrapper.
    """
    from cardtable import env, evaluation, parallel, trees
    from cardtable.agents import base, cfr, mccfr, policy, qlearning
    from cardtable.core import rng
    from cardtable.games import blackjack, doudizhu, doudizhu_patterns, leduc, limit_holdem, uno

    engines = [
        (blackjack, blackjack.BlackjackGame),
        (leduc, leduc.LeducGame),
        (limit_holdem, limit_holdem.LimitHoldemGame),
        (uno, uno.UnoGame),
        (doudizhu, doudizhu.DoudizhuGame),
    ]
    points = [
        (rng.Rng, "shuffle", "core.rng.shuffle"),
        (rng.Rng, "__init__", "core.rng.seed_fanout"),
        (env, "split_seed", "core.rng.seed_fanout"),
        (doudizhu, "matching_abstract_ids", "games.doudizhu_patterns.matching_abstract_ids"),
        (doudizhu_patterns, "matching_abstract_ids", "games.doudizhu_patterns.matching_abstract_ids"),
    ]
    for module, engine in engines:
        label = module.__name__.rsplit(".", 1)[1]
        for method in ("legal_moves", "step", "reset", "snapshot", "restore"):
            points.append((engine, method, f"games.{label}.{method}"))
        for function in ("observe", "encode_planes"):
            points.append((module, function, f"games.{label}.{function}"))
    for method in ("run", "step", "step_back", "new_game", "reset", "sa_step"):
        points.append((env.Env, method, f"env.{method}"))
    points += [
        (env, "serialize_trajectories", "env.serialize_trajectories"),
        (parallel, "serialize_trajectories", "env.serialize_trajectories"),
        (base.RandomAgent, "eval_step", "agents.eval_step"),
        (policy.PolicyAgent, "eval_step", "agents.eval_step"),
        (cfr, "regret_matching", "agents.regret_matching"),
        (mccfr, "regret_matching", "agents.regret_matching"),
        (policy.PolicyTable, "probs_for", "agents.policy_table.probs_for"),
        (qlearning, "qlearn_train", "agents.qlearn_train"),
        (cfr.CFRTrainer, "run", "agents.cfr.run"),
        (cfr.CFRTrainer, "policy", "agents.cfr.policy"),
        (mccfr.MCCFRTrainer, "run", "agents.mccfr.run"),
        (mccfr.MCCFRTrainer, "policy", "agents.mccfr.policy"),
        (trees.LeducTree, "child", "trees.child"),
        (trees.LeducTree, "info_key", "trees.info_key"),
        (trees.LeducTree, "chance_outcomes", "trees.chance_outcomes"),
        (trees.LeducTree, "actions", "trees.actions"),
        (evaluation, "best_response", "evaluation.best_response"),
        (evaluation, "exploitability", "evaluation.exploitability"),
        (evaluation, "leduc_best_response_value", "evaluation.leduc_best_response_value"),
        (parallel, "rollout_parallel", "parallel.rollout_parallel"),
    ]
    return points


def install(tracer: Tracer) -> None:
    """Wrap every patch point, and time the rollout pool's start-up."""
    from cardtable import parallel

    for owner, attribute, name in patch_points():
        setattr(owner, attribute, tracer.wrap(name, getattr(owner, attribute)))

    class TimedPool(ProcessPoolExecutor):
        """Span `parallel.pool_start`: construction plus the first submit,
        which starts every worker when the pool forks."""

        def __init__(self, *args, **kwargs):
            self._start_s = 0.0
            self._started = False
            start = clock()
            super().__init__(*args, **kwargs)
            self._start_s = clock() - start

        def submit(self, *args, **kwargs):
            if self._started:
                return super().submit(*args, **kwargs)
            self._started = True
            start = clock()
            future = super().submit(*args, **kwargs)
            tracer.add("parallel.pool_start", self._start_s + clock() - start)
            return future

    parallel.ProcessPoolExecutor = TimedPool


def traced_run(workload: str, seed: int) -> dict:
    """Build the workload's part, then trace its fixed rounds."""
    from parts import PARTS, Reference

    tracer = Tracer()
    install(tracer)
    part = PARTS[workload](seed, focus=True)
    part.build()
    reference = Reference()
    tracer.reset()
    start = clock()
    for _ in range(part.trace_rounds):
        part.round(reference)
    wall = clock() - start
    return {
        "wall_s": wall,
        "totals": part.totals(),
        "problems": part.problems,
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "edges": [[parent, child, n] for (parent, child), n in sorted(tracer.edges.items())],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced half of a --trace 1 benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(traced_run(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""cardtable benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload selfplay --seed 1 --seconds 25 --trace 0

Run from the repository root (the sources are imported from `src/`).
With `--trace 0` the run measures every end-to-end metric listed in
`BENCHMARK.json` for `--seconds`: all four parts take turns, and the
named workload's own part plays FOCUS_ROUNDS rounds per turn, so every
workload reports every metric. With `--trace 1` the run plays the
workload's part for a fixed number of rounds untraced, then again in a
child process with every layer wrapped (see tracing.py), and reports
the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A failed correctness
check makes the exit code 1; missing sources make it 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("selfplay", "leduc_solve", "learners", "selfplay_logs_2w")
FOCUS_ROUNDS = 2  # rounds of the workload's own part per cycle; other parts play one
SETUP_SAMPLES = 5  # set-up measurements per run, spread over it
CHILD_TIMEOUT_S = 150
IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import cardtable.env, cardtable.agents, cardtable.evaluation, cardtable.trees, cardtable.parallel; "
    "print(time.perf_counter() - t)"
)


def use_sources() -> bool:
    """Import cardtable from this checkout's `src/`; False when it is absent."""
    if not (SRC / "cardtable" / "__init__.py").is_file():
        return False
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_definition() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(HERE / "expected_digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def host_facts(workload: str, seed: int) -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if out.returncode == 0:
            commit = out.stdout.strip()
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "workload": workload,
        "seed": seed,
    }


def import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def check_digest(part, expected: dict, problems: list[str]) -> None:
    want = expected.get(part.name, {}).get(str(part.seed))
    if want is not None and want != part.digest():
        problems.append(f"{part.name}: digest {part.digest()} differs from the expected {want}")


def setup_seconds(parts) -> float:
    """One set-up sample: a fresh import, then a fresh build of every part."""
    total = import_seconds()
    for part in parts:
        start = time.perf_counter()
        part.build()
        total += time.perf_counter() - start
    return total


def run_untraced(workload: str, seed: int, seconds: float, expected: dict, make_part=None) -> dict:
    """Measure every end-to-end metric; `make_part(cls, seed, focus)` builds each part.

    The parts take turns for the whole run, so a slow spell of the host
    falls on all of them alike. In each cycle the workload's own part
    plays FOCUS_ROUNDS rounds and every other part one. Set-up is sampled
    SETUP_SAMPLES times, spread over the run, and reported as the median.
    """
    from parts import PARTS, Reference

    make_part = make_part or (lambda cls, s, focus: cls(s, focus))

    def fresh_parts():
        return [make_part(cls, seed, name == workload) for name, cls in PARTS.items()]

    start = time.perf_counter()
    parts = fresh_parts()
    setups = [setup_seconds(parts)]
    reference = Reference()
    while True:
        for part in parts:
            for _ in range(FOCUS_ROUNDS if part.focus else 1):
                part.round(reference)
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_SAMPLES and elapsed >= seconds * len(setups) / SETUP_SAMPLES:
            setups.append(setup_seconds(fresh_parts()))
        elif elapsed >= seconds:
            break
    for part in parts:
        part.final_checks()

    speed = reference.speed()
    metrics = {"setup_s": statistics.median(setups) * speed, "peak_rss_mb": peak_rss_mb()}
    units = {"setup_s": "s", "peak_rss_mb": "MiB"}
    problems: list[str] = []
    for part in parts:
        metrics.update(part.metrics())
        units.update(part.units)
        problems += part.problems
        check_digest(part, expected, problems)
    return {
        "metrics": metrics,
        "units": units,
        "samples": {m: part.rounds for part in parts for m in part.units},
        "attempted": sum(p.attempted for p in parts),
        "failed": sum(p.failed for p in parts),
        "digests": {p.name: p.digest() for p in parts},
        "problems": problems,
    }


def layer_metrics(traced: dict, overhead: float, extra: dict) -> dict[str, float]:
    """Per-layer metrics from the traced half's aggregates.

    Engine spans are named `games.<engine>.<method>`; a `games.<method>`
    metric sums them over the engines.
    """
    calls, self_s, wall = traced["calls"], traced["self_s"], traced["wall_s"]
    edges = {(parent, child): n for parent, child, n in traced["edges"]}
    iterations = traced["totals"]["iterations"]
    engines = ("blackjack", "leduc", "limit_holdem", "uno", "doudizhu")

    def count(name: str) -> int:
        if name.startswith("games.") and name.count(".") == 1:
            return sum(calls.get(f"games.{e}.{name[6:]}", 0) for e in engines)
        return calls.get(name, 0)

    def share(name: str) -> float:
        if name.startswith("games.") and name.count(".") == 1:
            return sum(self_s.get(f"games.{e}.{name[6:]}", 0.0) for e in engines) / wall
        return self_s.get(name, 0.0) / wall

    def per(n: float, base: int) -> float:
        return n / base if base else 0.0

    # decisions seen by the tracer: one engine step each, in every env mode;
    # games played inside rollout workers are not traced
    steps = count("games.step")
    matching = "games.doudizhu_patterns.matching_abstract_ids"
    return {
        "core.rng.shuffle.calls_per_game": per(count("core.rng.shuffle"), count("games.reset")),
        "core.rng.shuffle.self_share": share("core.rng.shuffle"),
        "core.rng.seed_fanout.self_share": share("core.rng.seed_fanout"),
        "games.legal_moves.calls_per_step": per(count("games.legal_moves"), steps),
        "games.legal_moves.self_share": share("games.legal_moves"),
        # per step of a doudizhu engine, the only caller
        f"{matching}.calls_per_step": per(count(matching), count("games.doudizhu.step")),
        f"{matching}.self_share": share(matching),
        "games.observe.self_share": share("games.observe"),
        "games.step.self_share": share("games.step"),
        "games.reset.self_share": share("games.reset"),
        "games.snapshot.calls_per_step": per(count("games.snapshot"), steps),
        "games.snapshot.self_share": share("games.snapshot"),
        "games.restore.self_share": share("games.restore"),
        "games.encode_planes.self_share": share("games.encode_planes"),
        "env.run.self_share": share("env.run"),
        "env.step.self_share": share("env.step"),
        "env.step_back.self_share": share("env.step_back"),
        "env.reset.self_share": share("env.reset"),
        "env.sa_step.self_share": share("env.sa_step"),
        "env.serialize_trajectories.self_share": share("env.serialize_trajectories"),
        "agents.eval_step.self_share": share("agents.eval_step"),
        "agents.regret_matching.calls_per_iter": per(count("agents.regret_matching"), iterations),
        "agents.regret_matching.self_share": share("agents.regret_matching"),
        "agents.policy_table.probs_for.self_share": share("agents.policy_table.probs_for"),
        "agents.qlearn_train.self_share": share("agents.qlearn_train"),
        "agents.cfr.iters_to_target": extra.get("iters_to_target", 0),
        # node visits of the CFR walk alone, not of the best-response sweeps
        "trees.child.calls_per_iter": per(edges.get(("agents.cfr.run", "trees.child"), 0), iterations),
        "trees.child.self_share": share("trees.child"),
        "trees.info_key.self_share": share("trees.info_key"),
        "trees.chance_outcomes.self_share": share("trees.chance_outcomes"),
        "evaluation.best_response.self_share": share("evaluation.best_response"),
        "parallel.pool_start_s": per(self_s.get("parallel.pool_start", 0.0), count("parallel.pool_start")),
        "parallel.efficiency": extra.get("efficiency", 0.0),
        "parallel.log_bytes_per_game": extra.get("log_bytes_per_game", 0.0),
        "trace.overhead": overhead,
    }


def run_traced(workload: str, seed: int, expected: dict) -> dict:
    """Fixed rounds untraced here, then traced in a child; compare and report."""
    from parts import PARTS, Reference

    part = PARTS[workload](seed, focus=True)
    part.build()
    reference = Reference()
    start = time.perf_counter()
    for _ in range(part.trace_rounds):
        part.round(reference)
    untraced_wall = time.perf_counter() - start
    part.final_checks()
    problems = list(part.problems)
    check_digest(part, expected, problems)

    extra = part.trace_extra()
    if workload == "selfplay_logs_2w":
        serial = part.serial_rate(part.trace_rounds, reference)
        extra["efficiency"] = part.metrics()["rollout_steps_per_s"] / (part.workers * serial)
        extra["log_bytes_per_game"] = part.log_bytes_per_game()

    child = subprocess.run(
        [sys.executable, str(HERE / "tracing.py"), "--workload", workload, "--seed", str(seed)],
        env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"traced run exited with {child.returncode}")
    traced = json.loads(child.stdout.splitlines()[-1])
    problems += traced["problems"]
    if traced["totals"] != part.totals():
        problems.append(f"traced totals {traced['totals']} differ from untraced {part.totals()}")
    overhead = traced["wall_s"] / untraced_wall - 1.0
    return {
        "metrics": layer_metrics(traced, overhead, extra),
        "attempted": part.attempted + traced["totals"]["attempted"],
        "failed": part.failed + traced["totals"]["failed"],
        "digests": {part.name: part.digest()},
        "problems": problems,
        "spans": traced,
        "walls": (untraced_wall, traced["wall_s"]),
    }


def print_spans(traced: dict) -> None:
    wall = traced["wall_s"]
    print(f"traced wall {wall:.4f} s; spans by self time (name, calls, self s, self share):")
    for name, seconds in sorted(traced["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:52s} {traced['calls'][name]:>10d} {seconds:10.4f} {seconds / wall:8.4f}")
    print("edges (parent -> child: calls):")
    for parent, child, n in traced["edges"]:
        print(f"  {parent} -> {child}: {n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not use_sources():
        print(f"error: cardtable sources not found under {SRC}", file=sys.stderr)
        return 2

    definition = load_definition()
    expected = load_expected()
    facts = host_facts(args.workload, args.seed)
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()))

    if args.trace:
        result = run_traced(args.workload, args.seed, expected)
        print_spans(result["spans"])
        print(f"untraced wall {result['walls'][0]:.4f} s, traced wall {result['walls'][1]:.4f} s")
        units = {m["name"]: m["unit"] for m in definition["per_layer"]}
    else:
        result = run_untraced(args.workload, args.seed, args.seconds, expected)
        units = {m["name"]: m["unit"] for m in definition["end_to_end"]}
        if result["units"] != units:
            raise RuntimeError(f"metric units {result['units']} do not match BENCHMARK.json {units}")
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json")

    for name in units:
        note = f"  (median of {result['samples'][name]} replays)" if name in result.get("samples", {}) else ""
        print(f"metric {name} {result['metrics'][name]:.6g} {units[name]}{note}")
    for name, digest in result["digests"].items():
        print(f"digest {name} {digest}")
    for problem in result["problems"]:
        print(f"check FAILED {problem}")
    correct = not result["problems"]
    print(f"checks {'passed' if correct else 'FAILED'}; operations attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

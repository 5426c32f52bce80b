"""Command-line entry point: selfplay, train, tournament, exploit, census, bench.

Every run is reproducible from its flags: the master seed comes from
--seed, then a `seed` line in --config, then the CARDTABLE_SEED
environment variable, then 0. Commands that write artifacts also write
a manifest.json carrying the resolved configuration and a sha256 of
every output file, and never a timestamp, so reruns diff clean.

Config files are flat key=value text, one per line, with # comments.
Keys mirror the long flags, and param.NAME=value mirrors the repeatable
--param NAME=value; flags win over file values. A value is typed by its
key: seed, iters, episodes, games and workers are read as numbers, and
param.NAME values as an int, then a float, else text; game, algo,
agents and out stay the text written, so `out=007` names directory 007.
The counts iters, episodes and games must be integers of at least 0,
and workers of at least 1, and the seed any integer, or the command
fails with InvalidParam naming the key (or CARDTABLE_SEED) before any
work starts. main resolves these inputs once per run, into one options
dict (also the manifest's config) and one EnvConfig. exploit takes
exactly one --agents entry; census writes no file and takes no --out.

Exit codes: 0 success, 2 command-line usage errors, 1 anything that
fails at run time. A closed stdout (a reader such as `head` that exits
early) is one of those: main ends it with exit code 1 and no traceback,
pointing stdout at os.devnull so that the exit flush writes nowhere.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from pathlib import Path

from cardtable import __version__
from cardtable.agents import (
    CFRTrainer,
    MCCFRTrainer,
    PolicyTable,
    RandomAgent,
    qlearn_train,
)
from cardtable.core.contracts import int_param
from cardtable.env import GAME_IDS, EnvConfig, game_spec, make_single_agent
from cardtable.errors import CardTableError, GameTooLarge, InvalidParam, ParseError
from cardtable.evaluation import count_info_sets, exploitability, tournament
from cardtable.parallel import BenchReport, RolloutSpec, bench, build_agent, rollout_parallel

_NUMBER_KEYS = ("seed", "iters", "episodes", "games", "workers")
_CONFIG_KEYS = ("game", "algo", "agents", "out", *_NUMBER_KEYS)


def load_config(path: str) -> dict[str, str]:
    """Flat key=value file; unknown keys and bad lines raise ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"config file {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ParseError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        if key not in _CONFIG_KEYS and not key.startswith("param."):
            raise ParseError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value
    return out


def _coerce(value: str):
    """Config values: int when possible, then float, else the string."""
    for kind in (int, float):
        try:
            return kind(value)
        except ValueError:
            pass
    return value


def _resolve(args: argparse.Namespace) -> tuple[dict, EnvConfig]:
    """(options, EnvConfig): each key given by flag (winning) or config file, the seed and every param.NAME.

    Errors come in the order config file, missing game, --param, seed, EnvConfig.
    """
    file = load_config(args.config) if args.config else {}
    options = {}
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            options[key] = flag
        elif key in file:
            options[key] = _coerce(file[key]) if key in _NUMBER_KEYS else file[key]
    game = options.get("game")
    if game is None:
        raise ParseError("no game given (flag --game or config key game)")
    params = {key[len("param.") :]: _coerce(value) for key, value in file.items() if key.startswith("param.")}
    for item in args.param or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ParseError(f"--param expects NAME=value, got {item!r}")
        params[key.strip()] = _coerce(value.strip())
    if "seed" in options:
        options["seed"] = int_param("seed", options["seed"])
    else:
        env = os.environ.get("CARDTABLE_SEED")
        options["seed"] = 0 if env is None else int_param("CARDTABLE_SEED", _coerce(env))
    options.update({f"param.{key}": value for key, value in params.items()})
    num_players = params.pop("num_players", None)
    return options, EnvConfig(game_id=game, seed=options["seed"], num_players=num_players, game_params=params)


def _count(options: dict, key: str, default: int, lo: int = 0) -> int:
    """An integer option of at least lo; InvalidParam naming key."""
    return int_param(key, options.get(key, default), lo)


def _agent_names(options: dict, seats: int) -> list[str]:
    """The comma-separated --agents entries, or random in each of seats seats."""
    spec = options.get("agents")
    if spec is None:
        return ["random"] * seats
    return [part.strip() for part in spec.split(",") if part.strip()]


def _write_outputs(out_dir: str, files: dict[str, str], command: str, config: dict) -> None:
    """Write named text files plus a manifest with their content hashes; InvalidParam naming --out if that fails."""
    data = {name: text.encode("utf-8") for name, text in files.items()}
    manifest = {
        "command": command,
        "config": config,
        "outputs": {name: hashlib.sha256(blob).hexdigest() for name, blob in data.items()},
        "version": __version__,
    }
    data["manifest.json"] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        for name, blob in data.items():
            (Path(out_dir) / name).write_bytes(blob)
    except OSError as exc:
        raise InvalidParam(f"--out {out_dir}: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_selfplay(options: dict, config: EnvConfig) -> int:
    n_games = _count(options, "games", 1000)
    spec = RolloutSpec(
        env_config=config,
        agents=("random",) * config.num_players,
        n_games=n_games,
        n_workers=_count(options, "workers", 1, lo=1),
    )
    result = rollout_parallel(spec, collect_logs=True)
    log_text = "".join(result.logs)
    out = options.get("out")
    if out is None:
        sys.stdout.write(log_text)
    else:
        _write_outputs(out, {"trajectories.log": log_text}, "selfplay", options)
        means = ",".join(f"{m:.6f}" for m in result.mean_payoffs)
        print(f"selfplay {config.game_id}: {n_games} games, {result.total_steps} steps, mean payoffs {means}")
    return 0


def _cmd_train(options: dict, config: EnvConfig) -> int:
    algo, out = options["algo"], options.get("out")
    if out is None:
        raise ParseError("train needs --out to store the policy")
    if algo in ("cfr", "mccfr"):
        iters = _count(options, "iters", 1000)
        trainer = CFRTrainer(config.game_id) if algo == "cfr" else MCCFRTrainer(config)
        trainer.run(iters)
        policy, detail = trainer.policy(), f"{iters} iterations"
    elif algo == "qlearn":
        episodes = _count(options, "episodes", 10000)
        env = make_single_agent(config, opponents=[RandomAgent() for _ in range(config.num_players - 1)])
        table = qlearn_train(env, episodes)
        policy, detail = table.greedy_policy(), f"{episodes} episodes"
    else:  # random: an empty table plays uniform everywhere
        policy, detail = PolicyTable(), "untrained"
    _write_outputs(out, {"policy.txt": policy.dumps()}, "train", options)
    print(f"trained {algo} on {config.game_id} ({detail}, seed {config.seed}): {len(policy)} info sets -> {out}/policy.txt")
    return 0


def _cmd_tournament(options: dict, config: EnvConfig) -> int:
    n_games = _count(options, "games", 10000)
    names = _agent_names(options, config.num_players)
    result = tournament(config, [build_agent(name, config.game_id) for name in names], n_games)
    table = result.csv_table()
    print(table)
    out = options.get("out")
    if out is not None:
        summary = json.dumps(dataclasses.asdict(result) | {"agents": names}, indent=2, sort_keys=True) + "\n"
        _write_outputs(out, {"results.csv": table + "\n", "summary.json": summary}, "tournament", options)
    return 0


def _cmd_exploit(options: dict, config: EnvConfig) -> int:
    names = _agent_names(options, 1)
    if len(names) != 1:
        raise InvalidParam(f"exploit takes one --agents entry, got {len(names)}")
    name = names[0]
    policy = PolicyTable() if name == "random" else build_agent(name, config.game_id).table
    report = exploitability(config.game_id, policy)
    lines = [
        "game,agent,exploitability,br_value_p0,br_value_p1,units",
        f"{config.game_id},{name},{report.exploitability:.12f},"
        f"{report.br_values[0]:.12f},{report.br_values[1]:.12f},bb/hand",
    ]
    text = "\n".join(lines)
    print(text)
    out = options.get("out")
    if out is not None:
        _write_outputs(out, {"exploit.csv": text + "\n"}, "exploit", options)
    return 0


def _cmd_census(options: dict, config: EnvConfig) -> int:
    try:
        census = count_info_sets(config.game_id)
    except GameTooLarge:
        size = game_spec(config.game_id).num_actions
        print("game,action_space_size,note")
        print(f"{config.game_id},{size},info-set enumeration exceeds the node guard")
        return 0
    per_player = ";".join(str(n) for n in census.info_sets_per_player)
    print("game,players,info_sets_per_player,avg_states_per_info_set,action_space_size")
    print(
        f"{census.game_id},{census.num_players},{per_player},"
        f"{census.avg_states_per_info_set:.3f},{census.action_space_size}"
    )
    return 0


def _cmd_bench(options: dict, config: EnvConfig) -> int:
    n_games = _count(options, "games", 1000)
    workers = _count(options, "workers", 1, lo=1)
    report = bench(config, n_games, workers)
    print(BenchReport.csv_header())
    print(report.csv_row())
    out = options.get("out")
    if out is not None:
        path = Path(out) / "bench.csv" if Path(out).is_dir() else Path(out)
        header = "" if path.exists() else BenchReport.csv_header() + "\n"
        try:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(header + report.csv_row() + "\n")
        except OSError as exc:
            raise InvalidParam(f"--out {out}: {type(exc).__name__}: {exc}") from exc
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cardtable",
        description="Deterministic card-game environments with tabular solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *, games: bool = False, workers: bool = False, out: bool = True):
        p.add_argument("--game", choices=sorted(GAME_IDS))
        p.add_argument("--seed", type=int)
        p.add_argument("--config", help="flat key=value file; flags override it")
        if out:
            p.add_argument("--out", help="output directory (bench: file to append)")
        p.add_argument("--param", action="append", metavar="NAME=VALUE", help="game parameter, repeatable")
        if games:
            p.add_argument("--games", type=int)
        if workers:
            p.add_argument("--workers", type=int)

    p = sub.add_parser("selfplay", help="random self-play, trajectory log out")
    common(p, games=True, workers=True)
    p.set_defaults(func=_cmd_selfplay)

    p = sub.add_parser("train", help="fit a tabular policy and save it")
    common(p)
    p.add_argument("--algo", choices=("cfr", "mccfr", "qlearn", "random"), required=True)
    p.add_argument("--iters", type=int)
    p.add_argument("--episodes", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("tournament", help="round-robin seat-rotated match")
    common(p, games=True)
    p.add_argument("--agents", help="comma list: random or policy file paths")
    p.set_defaults(func=_cmd_tournament)

    p = sub.add_parser("exploit", help="exact exploitability of a policy")
    common(p)
    p.add_argument("--agents", help="one entry: random or a policy file path")
    p.set_defaults(func=_cmd_exploit)

    p = sub.add_parser("census", help="exact info-set counts where enumerable")
    common(p, out=False)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("bench", help="random self-play throughput")
    common(p, games=True, workers=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            return args.func(*_resolve(args))
        except CardTableError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except KeyboardInterrupt:
            return 1
        finally:
            sys.stdout.flush()  # so a closed pipe shows here, not at exit
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

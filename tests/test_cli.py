"""End-to-end checks of the cardtable command line via main(argv)."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardtable.agents import PolicyTable, RandomAgent, mccfr_external_train
from cardtable import cli
from cardtable.cli import load_config, main
from cardtable.core.rng import split_seed
from cardtable.env import GAME_IDS, EnvConfig
from cardtable.errors import ParseError
from cardtable.evaluation import tournament
from cardtable.parallel import BenchReport, RolloutSpec, rollout_parallel

UNIFORM_LEDUC_EXPLOITABILITY = 2.3308641975308646


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    # keep the CARDTABLE_SEED fallback out of tests that don't set it
    monkeypatch.delenv("CARDTABLE_SEED", raising=False)


def direct_log(game_id, seed, n_games, num_players=None, params=None):
    """The trajectory text selfplay should produce for these settings."""
    config = EnvConfig(game_id=game_id, seed=seed, num_players=num_players, game_params=params or {})
    spec = RolloutSpec(
        env_config=config,
        agents=("random",) * config.num_players,
        n_games=n_games,
        n_workers=1,
    )
    result = rollout_parallel(spec, collect_logs=True)
    return "".join(result.logs)


def read_manifest(out_dir):
    text = (out_dir / "manifest.json").read_text(encoding="utf-8")
    data = json.loads(text)
    # stable form: sorted keys, two-space indent, trailing newline, no timestamps
    assert text == json.dumps(data, indent=2, sort_keys=True) + "\n"
    assert set(data) == {"command", "config", "outputs", "version"}
    return data


class TestConfigFile:
    def test_parses_values_comments_and_params(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# master settings\n"
            "game = leduc\n"
            "seed=5   # inline comment\n"
            "\n"
            "games =12\n"
            "param.hand_size = 3\n",
            encoding="utf-8",
        )
        assert load_config(str(path)) == {
            "game": "leduc",
            "seed": "5",
            "games": "12",
            "param.hand_size": "3",
        }

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("game=leduc\nspeed=9\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":2"):
            load_config(str(path))

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("leduc\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_config(str(path))

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(str(tmp_path / "absent.cfg"))

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"game=l\xe9duc\n")
        with pytest.raises(ParseError, match="latin1.cfg"):
            load_config(str(path))


KNOWN_KEYS = ("game", "seed", "algo", "iters", "episodes", "games", "workers", "agents", "out")
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # every separator str.splitlines knows


def no_line_break_text(exclude=""):
    chars = st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS + exclude)
    return st.text(chars, max_size=12)


config_keys = st.one_of(
    st.sampled_from(KNOWN_KEYS),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]{0,10}", fullmatch=True).map(lambda name: "param." + name),
)
config_values = no_line_break_text("#").map(str.strip)
padding = st.sampled_from(["", " ", "  ", "\t", " \t "])
comments = st.one_of(st.just(""), no_line_break_text().map(lambda text: "#" + text))
filler_lines = st.one_of(padding, comments.map(lambda c: " " + c if c else c))


@st.composite
def config_files(draw):
    """(lines, expected dict): entries with padding and comments between blank and comment lines."""
    lines, expected = [], {}
    for _ in range(draw(st.integers(0, 8))):
        lines += draw(st.lists(filler_lines, max_size=2))
        key, value = draw(config_keys), draw(config_values)
        pad = [draw(padding) for _ in range(4)]
        lines.append(f"{pad[0]}{key}{pad[1]}={pad[2]}{value}{pad[3]}{draw(comments)}")
        expected[key] = value  # a repeated key keeps its last value
    return lines, expected


bad_lines = st.one_of(
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True)
    .filter(lambda key: key not in KNOWN_KEYS)
    .map(lambda key: f"{key} = 1"),
    no_line_break_text("=#").filter(str.strip),
    config_keys,  # a known key alone, without "="
)


class TestConfigParsing:
    @settings(max_examples=200, deadline=None)
    @given(config=config_files())
    def test_keys_and_values_round_trip(self, tmp_path_factory, config):
        lines, expected = config
        path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_config(str(path)) == expected

    @settings(max_examples=200, deadline=None)
    @given(config=config_files(), bad=bad_lines, where=st.integers(0, 20))
    def test_unknown_key_or_missing_equals_names_path_and_line(self, tmp_path_factory, config, bad, where):
        lines = config[0]
        at = where % (len(lines) + 1)
        lines.insert(at, bad)
        path = tmp_path_factory.getbasetemp() / "bad.cfg"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=re.escape(f"{path}:{at + 1}:")):
            load_config(str(path))


class TestSeedChain:
    def test_flag_beats_config_and_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CARDTABLE_SEED", "3")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("game=leduc\nseed=5\ngames=2\n", encoding="utf-8")
        assert main(["selfplay", "--config", str(cfg), "--seed", "9"]) == 0
        assert capsys.readouterr().out == direct_log("leduc", 9, 2)

    def test_config_beats_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CARDTABLE_SEED", "3")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("game=leduc\nseed=5\ngames=2\n", encoding="utf-8")
        assert main(["selfplay", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == direct_log("leduc", 5, 2)

    def test_env_var_fallback(self, monkeypatch, capsys):
        monkeypatch.setenv("CARDTABLE_SEED", "3")
        assert main(["selfplay", "--game", "leduc", "--games", "2"]) == 0
        assert capsys.readouterr().out == direct_log("leduc", 3, 2)

    def test_default_seed_is_zero(self, capsys):
        assert main(["selfplay", "--game", "leduc", "--games", "2"]) == 0
        assert capsys.readouterr().out == direct_log("leduc", 0, 2)

    def test_negative_seed_plays(self, tmp_path, capsys):
        assert main(["selfplay", "--game", "leduc", "--games", "2", "--seed", "-3"]) == 0
        assert capsys.readouterr().out == direct_log("leduc", -3, 2)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("game=leduc\nseed=-3\ngames=2\n", encoding="utf-8")
        assert main(["selfplay", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == direct_log("leduc", -3, 2)

    def test_fractional_config_seed_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("game=leduc\nseed=1.5\ngames=2\n", encoding="utf-8")
        assert main(["selfplay", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert "error: seed must be an integer, got 1.5" in captured.err
        assert captured.out == ""

    def test_non_numeric_env_seed_is_rejected(self, monkeypatch, capsys):
        monkeypatch.setenv("CARDTABLE_SEED", "x")
        assert main(["selfplay", "--game", "leduc", "--games", "2"]) == 1
        captured = capsys.readouterr()
        assert "error: CARDTABLE_SEED must be an integer, got 'x'" in captured.err
        assert captured.out == ""


class TestSelfplay:
    def test_stdout_is_deterministic(self, capsys):
        argv = ["selfplay", "--game", "blackjack", "--games", "5", "--seed", "17"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("# game=blackjack")

    def test_worker_count_does_not_change_output(self, capsys):
        base = ["selfplay", "--game", "leduc", "--games", "6", "--seed", "4"]
        assert main(base + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_out_dir_gets_log_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["selfplay", "--game", "leduc", "--games", "3", "--seed", "8", "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("selfplay leduc: 3 games")
        log = (out / "trajectories.log").read_bytes()
        assert log.decode("utf-8") == direct_log("leduc", 8, 3)
        manifest = read_manifest(out)
        assert manifest["command"] == "selfplay"
        assert manifest["outputs"] == {"trajectories.log": hashlib.sha256(log).hexdigest()}
        assert manifest["config"]["game"] == "leduc"
        assert manifest["config"]["seed"] == 8
        assert manifest["config"]["games"] == 3

    def test_param_flag_reaches_the_engine(self, capsys):
        argv = [
            "selfplay", "--game", "uno", "--games", "2", "--seed", "6",
            "--param", "hand_size=3",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == direct_log("uno", 6, 2, params={"hand_size": 3})

    def test_num_players_param_sets_seats(self, capsys):
        argv = [
            "selfplay", "--game", "limit_holdem", "--games", "2", "--seed", "6",
            "--param", "num_players=3",
        ]
        assert main(argv) == 0
        assert capsys.readouterr().out == direct_log("limit_holdem", 6, 2, num_players=3)

    def test_unknown_param_fails_at_runtime(self, capsys):
        argv = ["selfplay", "--game", "leduc", "--games", "1", "--param", "bogus=1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestTextKeys:
    """game, algo, agents and out keep a config file's text, even when it looks like a number."""

    def test_numeric_out_names_a_selfplay_directory(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("game=leduc\ngames=3\nout=007\n", encoding="utf-8")
        assert main(["selfplay", "--config", "run.cfg"]) == 0
        assert capsys.readouterr().out.startswith("selfplay leduc: 3 games")
        assert (tmp_path / "007" / "trajectories.log").read_text(encoding="utf-8") == direct_log("leduc", 0, 3)
        assert read_manifest(tmp_path / "007")["config"] == {"game": "leduc", "games": 3, "out": "007", "seed": 0}

    def test_numeric_out_names_a_train_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("game=leduc\nout=5\n", encoding="utf-8")
        assert main(["train", "--algo", "random", "--config", "run.cfg"]) == 0
        assert len(PolicyTable.load(str(tmp_path / "5" / "policy.txt"))) == 0
        assert read_manifest(tmp_path / "5")["config"]["out"] == "5"


class TestTrain:
    def test_cfr_policy_file_and_manifest_hash(self, tmp_path, capsys):
        out = tmp_path / "cfr"
        argv = [
            "train", "--algo", "cfr", "--game", "leduc", "--iters", "5",
            "--seed", "2", "--out", str(out),
        ]
        assert main(argv) == 0
        assert "trained cfr on leduc" in capsys.readouterr().out
        data = (out / "policy.txt").read_bytes()
        manifest = read_manifest(out)
        assert manifest["command"] == "train"
        assert manifest["outputs"] == {"policy.txt": hashlib.sha256(data).hexdigest()}
        assert manifest["config"]["algo"] == "cfr"
        assert manifest["config"]["iters"] == 5
        policy = PolicyTable.load(str(out / "policy.txt"))
        assert len(policy) == 288

    def test_random_algo_writes_empty_table(self, tmp_path):
        out = tmp_path / "rand"
        assert main(["train", "--algo", "random", "--game", "leduc", "--out", str(out)]) == 0
        assert len(PolicyTable.load(str(out / "policy.txt"))) == 0

    def test_qlearn_trains_from_flags(self, tmp_path):
        out = tmp_path / "q"
        argv = [
            "train", "--algo", "qlearn", "--game", "blackjack",
            "--episodes", "40", "--seed", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        assert len(PolicyTable.load(str(out / "policy.txt"))) > 0

    @pytest.mark.parametrize("game_id, iters", [("leduc", 50), ("limit_holdem", 5)])
    def test_mccfr_external_train_writes_the_cli_bytes(self, tmp_path, game_id, iters):
        out = tmp_path / "m"
        argv = ["train", "--algo", "mccfr", "--game", game_id, "--iters", str(iters), "--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        assert mccfr_external_train(game_id, iters, rng_seed=7).dumps() == (out / "policy.txt").read_text(encoding="utf-8")

    def test_mccfr_refuses_uno(self, tmp_path, capsys):
        argv = ["train", "--algo", "mccfr", "--game", "uno", "--iters", "1", "--out", str(tmp_path / "m")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: MCCFR cannot traverse uno")
        assert not (tmp_path / "m").exists()

    def test_out_is_required(self, capsys):
        assert main(["train", "--algo", "cfr", "--game", "leduc", "--iters", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_out_is_checked_before_any_trainer_is_built(self, monkeypatch, capsys):
        def no_trainer(*args, **kwargs):
            pytest.fail("a trainer was built for a run that cannot store its policy")

        monkeypatch.setattr(cli, "CFRTrainer", no_trainer)
        assert main(["train", "--algo", "cfr", "--game", "leduc", "--iters", "300"]) == 1
        assert "train needs --out" in capsys.readouterr().err


class TestCounts:
    """iters, episodes, games and workers must be whole numbers in range."""

    def config(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_fractional_iters_in_config_is_rejected(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "game=leduc\niters=7.5\n")
        out = tmp_path / "cfr"
        assert main(["train", "--algo", "cfr", "--config", cfg, "--out", str(out)]) == 1
        assert "error: iters must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_non_numeric_iters_in_config_is_rejected(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "game=leduc\niters=abc\n")
        out = tmp_path / "cfr"
        assert main(["train", "--algo", "cfr", "--config", cfg, "--out", str(out)]) == 1
        assert "error: iters must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_games_in_config_is_rejected(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "game=leduc\ngames=12.9\n")
        assert main(["selfplay", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert "error: games must be an integer" in captured.err
        assert captured.out == ""

    def test_negative_iters_flag_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "cfr"
        assert main(["train", "--algo", "cfr", "--game", "leduc", "--iters", "-3", "--out", str(out)]) == 1
        assert "error: iters must be an integer in 0.., got -3" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["train", "--algo", "qlearn", "--game", "blackjack", "--episodes", "-1"], "episodes"),
            (["selfplay", "--game", "leduc", "--games", "2", "--workers", "0"], "workers"),
            (["bench", "--game", "leduc", "--games", "-5"], "games"),
            (["tournament", "--game", "leduc", "--games", "-2"], "games"),
        ],
    )
    def test_every_count_names_its_key(self, tmp_path, capsys, argv, key):
        assert main(argv + ["--out", str(tmp_path / "o")]) == 1
        assert f"error: {key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestTournament:
    def test_csv_matches_direct_run(self, tmp_path, capsys):
        out = tmp_path / "tour"
        argv = [
            "tournament", "--game", "leduc", "--games", "60", "--seed", "11",
            "--agents", "random,random", "--out", str(out),
        ]
        assert main(argv) == 0
        config = EnvConfig(game_id="leduc", seed=11)
        expected = tournament(config, [RandomAgent(), RandomAgent()], 60).csv_table()
        assert capsys.readouterr().out == expected + "\n"
        assert (out / "results.csv").read_text(encoding="utf-8") == expected + "\n"
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        assert summary["agents"] == ["random", "random"]
        assert summary["scheme"] == "rotated:2x30"
        assert summary["game_count"] == 60
        manifest = read_manifest(out)
        assert set(manifest["outputs"]) == {"results.csv", "summary.json"}

    def test_rejects_a_policy_for_another_game(self, tmp_path, capsys):
        trained = tmp_path / "bj"
        argv = ["train", "--game", "blackjack", "--algo", "qlearn", "--episodes", "500", "--seed", "7", "--out", str(trained)]
        assert main(argv) == 0
        capsys.readouterr()
        argv = ["tournament", "--game", "leduc", "--games", "4", "--agents", f"{trained / 'policy.txt'},random"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ") and "is not a leduc policy" in captured.err


def out_of_range_policy(tmp_path):
    """A well-formed leduc policy file whose one entry plays action id 7 of 0..3."""
    path = tmp_path / "bad_ids.txt"
    table = PolicyTable()
    table.set("L0|J|-|", (0, 7), (0.5, 0.5))
    table.save(path)
    return str(path)


class TestPolicyActionSpace:
    def test_tournament_rejects_out_of_range_id_before_any_game(self, tmp_path, monkeypatch, capsys):
        def no_games(*args, **kwargs):
            raise AssertionError("a game ran with an unchecked policy")

        monkeypatch.setattr(cli, "tournament", no_games)
        path = out_of_range_policy(tmp_path)
        argv = ["tournament", "--game", "leduc", "--games", "4", "--agents", f"{path},random"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'L0|J|-|' holds action id 7, outside 0..3" in captured.err

    def test_exploit_rejects_out_of_range_id(self, tmp_path, capsys):
        path = out_of_range_policy(tmp_path)
        assert main(["exploit", "--game", "leduc", "--agents", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'L0|J|-|' holds action id 7, outside 0..3" in captured.err

    def test_the_same_ids_fit_a_larger_action_space(self, tmp_path, capsys):
        # the check is per game: uno has 62 action ids, so 7 is in range there
        path = out_of_range_policy(tmp_path)
        before = (tmp_path / "bad_ids.txt").read_bytes()
        argv = ["tournament", "--game", "uno", "--games", "2", "--agents", f"{path},random"]
        assert main(argv) == 0
        assert (tmp_path / "bad_ids.txt").read_bytes() == before


class TestExploit:
    def test_uniform_leduc_row(self, tmp_path, capsys):
        out = tmp_path / "exp"
        assert main(["exploit", "--game", "leduc", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        lines = printed.splitlines()
        assert lines[0] == "game,agent,exploitability,br_value_p0,br_value_p1,units"
        fields = lines[1].split(",")
        assert fields[0] == "leduc"
        assert fields[1] == "random"
        assert fields[2] == f"{UNIFORM_LEDUC_EXPLOITABILITY:.12f}"
        assert fields[5] == "bb/hand"
        assert (out / "exploit.csv").read_text(encoding="utf-8") == printed

    def test_trained_policy_is_less_exploitable(self, tmp_path, capsys):
        out = tmp_path / "cfr"
        assert main(["train", "--algo", "cfr", "--game", "leduc", "--iters", "30", "--out", str(out)]) == 0
        capsys.readouterr()
        policy_path = str(out / "policy.txt")
        assert main(["exploit", "--game", "leduc", "--agents", policy_path]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[1] == policy_path
        assert 0.0 <= float(row[2]) < UNIFORM_LEDUC_EXPLOITABILITY / 2

    def test_rejects_a_policy_for_another_game(self, tmp_path, capsys):
        trained = tmp_path / "bj"
        argv = ["train", "--game", "blackjack", "--algo", "qlearn", "--episodes", "5000", "--seed", "7", "--out", str(trained)]
        assert main(argv) == 0
        capsys.readouterr()
        out = tmp_path / "exp"
        assert main(["exploit", "--game", "leduc", "--agents", str(trained / "policy.txt"), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        last = captured.err.splitlines()[-1]
        assert last.startswith("error:") and "leduc" in last
        assert not out.exists()

    @pytest.mark.parametrize("agents", ["random,{missing}", "{policy},{policy}", "random,random,random"])
    def test_takes_exactly_one_agent(self, tmp_path, monkeypatch, capsys, agents):
        def no_load(*args, **kwargs):
            pytest.fail("a policy was loaded for an agent list exploit cannot take")

        monkeypatch.setattr(cli, "build_agent", no_load)
        PolicyTable().save(tmp_path / "policy.txt")
        spec = agents.format(missing=tmp_path / "missing.txt", policy=tmp_path / "policy.txt")
        assert main(["exploit", "--game", "leduc", "--agents", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        count = len(spec.split(","))
        assert captured.err == f"error: exploit takes one --agents entry, got {count}\n"

    @pytest.mark.parametrize(
        "train",
        [
            ["--algo", "random"],
            ["--algo", "mccfr", "--iters", "3"],
            ["--algo", "qlearn", "--episodes", "20"],
        ],
        ids=["empty", "mccfr", "qlearn"],
    )
    def test_accepts_partial_leduc_tables(self, tmp_path, capsys, train):
        out = tmp_path / "pol"
        assert main(["train", "--game", "leduc", *train, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["exploit", "--game", "leduc", "--agents", str(out / "policy.txt")]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("leduc,")


class TestCensus:
    def test_blackjack_row(self, capsys):
        assert main(["census", "--game", "blackjack"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "game,players,info_sets_per_player,avg_states_per_info_set,action_space_size"
        assert lines[1] == f"blackjack,1,1373,{409172 / 1373:.3f},2"

    def test_leduc_row(self, capsys):
        assert main(["census", "--game", "leduc"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "leduc,2,144;144,2.688,4"

    def test_large_game_prints_note_row(self, capsys):
        assert main(["census", "--game", "limit_holdem"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "game,action_space_size,note"
        assert lines[1] == "limit_holdem,4,info-set enumeration exceeds the node guard"

    def test_uno_prints_note_row(self, capsys):
        assert main(["census", "--game", "uno"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "uno,62,info-set enumeration exceeds the node guard"

    def test_out_is_a_usage_error(self, tmp_path):
        """census writes no file, so an --out it would ignore is refused, and nothing is made."""
        code, err = run_main(["census", "--game", "leduc", "--out", str(tmp_path / "out")])
        assert code == 2 and "--out" in err
        assert not (tmp_path / "out").exists()


class TestBench:
    def test_prints_and_appends_csv(self, tmp_path, capsys):
        argv = ["bench", "--game", "leduc", "--games", "5", "--seed", "3", "--out", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr().out.splitlines()
        assert first[0] == BenchReport.csv_header()
        assert first[1].startswith("leduc,1,15,")  # 5 games x 3 repeats
        assert main(argv) == 0
        rows = (tmp_path / "bench.csv").read_text(encoding="utf-8").splitlines()
        assert rows[0] == BenchReport.csv_header()
        assert len(rows) == 3  # one header, then one row per run
        # identical work: the step counts agree even though timings move
        assert rows[1].split(",")[:4] == rows[2].split(",")[:4]

    def test_honours_game_params(self, capsys):
        def steps(*params):
            assert main(["bench", "--game", "uno", "--games", "20", "--seed", "1", *params]) == 0
            return int(capsys.readouterr().out.splitlines()[1].split(",")[3])

        # run r of three plays the configured game under seed split_seed(1, r)
        config = EnvConfig("uno", num_players=4, game_params={"hand_size": 5})
        want = sum(
            rollout_parallel(RolloutSpec(replace(config, seed=split_seed(1, r)), ("random",) * 4, 20)).total_steps
            for r in range(3)
        )
        assert steps("--param", "num_players=4", "--param", "hand_size=5") == want != steps()


class TestExitCodes:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_game_choice_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["selfplay", "--game", "bridge"])
        assert err.value.code == 2

    def test_train_without_algo_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--game", "leduc"])
        assert err.value.code == 2

    def test_missing_game_is_runtime_error(self, capsys):
        assert main(["selfplay", "--games", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_config_key_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("game=leduc\nspeed=9\n", encoding="utf-8")
        assert main(["selfplay", "--config", str(cfg)]) == 1
        assert "unknown key" in capsys.readouterr().err


SRC = pathlib.Path(cli.__file__).parents[1]


def run_into_closed_pipe(argv):
    """(exit code, stderr) of the command line run in a child process
    whose stdout is a pipe with its read end closed before anything is read.

    stdout is block-buffered, as on any pipe, so a short output fails at
    the flush and a long one while it is written."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cardtable.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300
        )
    finally:
        os.close(write_end)
    return done.returncode, done.stderr.decode()


class TestClosedPipe:
    """A reader that closes stdout early ends the run with exit code 1, not a
    traceback; an error met after printing keeps its `error:` line."""

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["selfplay", "--game", "uno", "--games", "20"], ""),  # longer than the buffer
            (["tournament", "--game", "leduc", "--games", "4"], ""),
            (["exploit", "--game", "leduc"], ""),
            (["census", "--game", "leduc"], ""),
            (["bench", "--game", "leduc", "--games", "5"], ""),
            (["tournament", "--game", "leduc", "--games", "4", "--out", "/dev/null/out"], "error: --out"),
        ],
        ids=["selfplay", "tournament", "exploit", "census", "bench", "tournament-bad-out"],
    )
    def test_exit_1_without_traceback(self, argv, error):
        code, err = run_into_closed_pipe(argv)
        assert code == 1, err
        assert err.startswith(error)
        for marker in ("Traceback", "BrokenPipeError", "Exception ignored"):
            assert marker not in err


def run_main(argv):
    """(exit code, stderr) of main(argv), output swallowed; argparse's SystemExit becomes its code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


NO_SUCH = "no game called 'nosuch'"


class TestBoundaryErrors:
    """Bad options and unreadable files exit 1 with one error line, never a traceback."""

    @pytest.mark.parametrize(
        "argv, names",
        [
            pytest.param(["selfplay", "--config", "{nosuch}", "--games", "1"], NO_SUCH, id="selfplay-nosuch"),
            pytest.param(["tournament", "--config", "{nosuch}", "--games", "2"], NO_SUCH, id="tournament-nosuch"),
            pytest.param(["bench", "--config", "{nosuch}", "--games", "1"], NO_SUCH, id="bench-nosuch"),
            pytest.param(["census", "--config", "{nosuch}"], NO_SUCH, id="census-nosuch"),
            pytest.param(["exploit", "--config", "{nosuch}"], NO_SUCH, id="exploit-nosuch"),
            pytest.param(["train", "--config", "{nosuch}", "--algo", "cfr", "--out", "{fresh}"], NO_SUCH, id="train-nosuch"),
            pytest.param(
                ["selfplay", "--game", "leduc", "--param", "num_players=abc", "--games", "1"], "num_players",
                id="selfplay-players-abc",
            ),
            pytest.param(
                ["tournament", "--game", "leduc", "--param", "num_players=abc", "--games", "2"], "num_players",
                id="tournament-players-abc",
            ),
            pytest.param(["exploit", "--game", "leduc", "--param", "num_players=abc"], "num_players", id="exploit-players-abc"),
            pytest.param(["census", "--game", "leduc", "--param", "bogus=1"], "bogus", id="census-bogus-param"),
            pytest.param(
                ["selfplay", "--game", "uno", "--param", "num_players=9", "--games", "1"], "uno num_players",
                id="selfplay-uno-9-players",
            ),
            pytest.param(["exploit", "--game", "leduc", "--agents", "{missing}"], "FileNotFoundError", id="exploit-missing-policy"),
            pytest.param(
                ["tournament", "--game", "leduc", "--agents", "{missing},random", "--games", "2"], "FileNotFoundError",
                id="tournament-missing-policy",
            ),
            pytest.param(["exploit", "--game", "leduc", "--agents", "{latin1}"], "UnicodeDecodeError", id="exploit-latin1-policy"),
            pytest.param(["selfplay", "--game", "leduc", "--games", "1", "--config", "{latin1}"], "latin1.txt", id="latin1-config"),
            pytest.param(["train", "--game", "leduc", "--algo", "random", "--out", "{a_file}"], "--out", id="train-out-is-a-file"),
            pytest.param(
                ["bench", "--game", "leduc", "--games", "1", "--out", "{missing}/bench.csv"], "--out", id="bench-out-in-no-dir",
            ),
        ],
    )
    def test_exits_1_with_one_error_line(self, tmp_path, argv, names):
        files = {
            "nosuch": tmp_path / "nosuch.cfg",
            "fresh": tmp_path / "fresh",
            "missing": tmp_path / "missing.txt",
            "latin1": tmp_path / "latin1.txt",
            "a_file": tmp_path / "a_file",
        }
        files["nosuch"].write_text("game=nosuch\n", encoding="utf-8")
        files["latin1"].write_bytes(b"cardtable-policy v1\nJ\xe9\t0\t1.0\n")
        files["a_file"].write_text("", encoding="utf-8")
        code, err = run_main([arg.format(**files) for arg in argv])
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:") and names in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_bad_param_value_is_not_charged_to_a_game(self, workers):
        argv = ["selfplay", "--game", "uno", "--games", "1", "--workers", workers, "--param", "hand_size=abc"]
        assert run_main(argv) == (1, "error: hand_size must be an integer in 1..12, got 'abc'\n")


FUZZ_COMMANDS = ("selfplay", "train", "tournament", "exploit", "census", "bench")
FUZZ_PARAMS = ("num_players", "hand_size", "fixed_raise", "landlord", "bogus")
FUZZ_VALUES = ("abc", "0", "1", "2", "3", "9", "-1", "2.5", "random", "True")
FUZZ_FLAGS = {  # the count flags each command takes, always passed so no default-sized run starts
    "selfplay": ("--games", "--workers"),
    "bench": ("--games", "--workers"),
    "tournament": ("--games",),
    "train": ("--iters", "--episodes"),
}


often = st.sampled_from((True, True, True, False))


@st.composite
def fuzz_argv(draw, files):
    """argv for one command: ids, counts, seeds, params, agent lists and config files, good and bad."""
    command = draw(st.sampled_from(FUZZ_COMMANDS))
    argv = [command]
    if draw(often):  # so that most runs get past the game id
        argv += ["--game", draw(st.sampled_from(GAME_IDS))]
    for flag in FUZZ_FLAGS.get(command, ()):
        argv += [flag, str(draw(st.integers(-1, 2) if flag == "--workers" else st.integers(-2, 3)))]
    if command == "train":
        argv += ["--algo", draw(st.sampled_from(("cfr", "mccfr", "qlearn", "random")))]
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-(2**64), 2**64)))]
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        argv += ["--param", f"{draw(st.sampled_from(FUZZ_PARAMS))}={draw(st.sampled_from(FUZZ_VALUES))}"]
    if command in ("tournament", "exploit") and draw(st.booleans()):
        agents = st.sampled_from(("random", *map(str, (files["policy"], files["missing"], files["garbage"]))))
        argv += ["--agents", ",".join(draw(st.lists(agents, min_size=1, max_size=3)))]
    if not draw(often):
        if draw(st.booleans()):
            files["config"].write_bytes(draw(st.binary(max_size=40)))
        else:
            keys = st.sampled_from((*KNOWN_KEYS, "param.num_players", "param.bogus", "nosuch"))
            values = st.sampled_from((*GAME_IDS, "nosuch", "0", "1", "7", "007", "-1", "2.5", "1e3", "abc", "random"))
            lines = draw(st.lists(st.tuples(keys, values), max_size=3))
            files["config"].write_text("".join(f"{k}={v}\n" for k, v in lines), encoding="utf-8")
        argv += ["--config", str(files["config"])]
    if draw(often):
        argv += ["--out", str(files["out"])]
    return argv


class TestFuzz:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_every_outcome_is_success_a_typed_error_or_a_usage_error(self, tmp_path_factory, data):
        """main returns 0, or 1 with a last stderr line starting error:, or argparse exits 2."""
        base = tmp_path_factory.mktemp("fuzz")
        files = {name: base / name for name in ("policy", "missing", "garbage", "config", "out")}
        PolicyTable().save(files["policy"])
        files["garbage"].write_bytes(data.draw(st.binary(max_size=40)))
        argv = data.draw(fuzz_argv(files))
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.chdir(base)  # a relative --out from the config file lands here
            code, err = run_main(argv)
        lines = err.splitlines()
        assert code in (0, 2) or (code == 1 and lines and lines[-1].startswith("error:")), (argv, code, err)

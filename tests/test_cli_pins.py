"""Byte identity of the command line's outputs, pinned as sha256 digests.

These are the outputs a refactor must leave byte for byte the same:
`cardtable selfplay --games 1000 --seed 7` for every game id, the
`policy.txt` of `cardtable train --game leduc --algo cfr --iters 1000
--seed 7`, the `exploit.csv` that `cardtable exploit --game leduc`
writes for that policy, and the `results.csv` and `summary.json` of
`cardtable tournament --game leduc --games 2000 --seed 7`. Each runs
through cli.main, as the command line does; tests/test_byte_identity.py
pins the Env's shorter logs and views.
"""

import contextlib
import hashlib
import io

import pytest

from cardtable.cli import main
from cardtable.env import GAME_IDS

SELFPLAY_1000_SHA256 = {
    "blackjack": "8cd2afbbef662119b35457a44d3e202e87c1d5b09cb5a5c965f859a2c34bf61a",
    "leduc": "67e5e12a2ea9da4f70c2b256f17d2a1035cdbd4b0641e64c4a0208ddcd484ce3",
    "limit_holdem": "370f77cc8b624c2d0cab04dc898a35ec77375b60bdc104973bb72512d9a74429",
    "uno": "23e72417ba8393f4d623657d02d711be00931e2f9e4c7987c021e831abd8ff59",
    "doudizhu": "09a1a11da5afaf17361c3fcf60c3ccd5d026bded43db8c6939538d760293bd61",
    "mini_doudizhu": "c30eb7809b67871b927b09add987733cb2ebe0c479ad66a28463949ceb3cf329",
}
CFR_LEDUC_1000_POLICY_SHA256 = "cc699e5e2069273352ecfecf44b23228fa7848a923a3501731c0c978297c3c98"
# the csv names the policy as given on the command line: policy.txt
CFR_LEDUC_1000_EXPLOIT_SHA256 = "dbbeb927ea41c27ba81bae1c13e0a2919475967bad916aa410ba721d2f27e5f6"
TOURNAMENT_LEDUC_2000_SHA256 = {
    "results.csv": "fc894d20752b5ba8dd15a26bf2f30383ed7454d7505ea5b59ca494d1768f4a82",
    "summary.json": "aba04eba98761d5d49fbc124606d28f50cfdb9bc6093dca4486fe1cf48ebfc9c",
}


@pytest.fixture(autouse=True)
def _no_ambient_seed(monkeypatch):
    monkeypatch.delenv("CARDTABLE_SEED", raising=False)


def stdout_of(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_selfplay_log(game_id):
    log = stdout_of(["selfplay", "--game", game_id, "--games", "1000", "--seed", "7"])
    assert sha256(log.encode("utf-8")) == SELFPLAY_1000_SHA256[game_id]


def test_cfr_policy_and_its_exploitability(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout_of(["train", "--game", "leduc", "--algo", "cfr", "--iters", "1000", "--seed", "7", "--out", "."])
    assert sha256((tmp_path / "policy.txt").read_bytes()) == CFR_LEDUC_1000_POLICY_SHA256
    stdout_of(["exploit", "--game", "leduc", "--agents", "policy.txt", "--out", "."])
    assert sha256((tmp_path / "exploit.csv").read_bytes()) == CFR_LEDUC_1000_EXPLOIT_SHA256


@pytest.mark.parametrize("name", sorted(TOURNAMENT_LEDUC_2000_SHA256))
def test_tournament_outputs(name, tmp_path):
    stdout_of(["tournament", "--game", "leduc", "--games", "2000", "--seed", "7", "--out", str(tmp_path)])
    assert sha256((tmp_path / name).read_bytes()) == TOURNAMENT_LEDUC_2000_SHA256[name]

"""Byte identity of the env's outputs, pinned as sha256 digests.

The logs pin what `cardtable selfplay` writes; the views pin every
field of every observation a run hands out (raw dict, info key, legal
ids and planes), for the state and the next state of each transition.
A change to an engine, to `observe` or to `Observation` that moves any
byte of either fails here. The policy pins cover the two learners that
play real deals, MCCFR (whose engine walk, on blackjack and limit
hold'em, also steps back through chance) and Q-learning, as
`cardtable train` saves them.
"""

import hashlib

import pytest

from cardtable.agents import RandomAgent
from cardtable.agents.mccfr import MCCFRTrainer
from cardtable.agents.qlearning import qlearn_train
from cardtable.env import GAME_IDS, EnvConfig, game_spec, make, make_single_agent, serialize_trajectories

SEED = 7
LOG_GAMES = 200
VIEW_GAMES = 20

LOG_SHA256 = {
    "blackjack": "a1739aecf7a6d30686c16eed8c997ac43b7d2a7b825b8fdd7d0b12aded3c11b3",
    "leduc": "aa3061d4251d38bfa8e28f61a1f900870ac0cfa9126ed22588378698213bb4c2",
    "limit_holdem": "b7e9fdef5d0442d7bceff82ddf5f3f22e1ef24af96633ab373afcc90b07b53df",
    "uno": "540a06147b176a90f105061dc0b312d677944bc64019fb78ebc5ad5dbbfc4c71",
    "doudizhu": "387c2270043d433b6d1786ccb071a386dae8f9b159307c2f626d60e06ad16cac",
    "mini_doudizhu": "4ddfba40bcfd162da8b5609ab9ab7207c946a471a72d8924c8a6b184ef6b991c",
}

VIEW_SHA256 = {
    "blackjack": "427d0338f68f2cd93d6988ab3d625f7d440f8a3f585902c399d7f2616466bb00",
    "leduc": "428f58686f122a4400b8a0bd565ab4edc68a45af9e18242b1afad586662a7b65",
    "limit_holdem": "57c9d29256cdf149bb6d884bdf6304c7a6794b247d860cd95149d58e85c7ed61",
    "uno": "62776d0a095efddebcdecbbd0274da9cb73d0d14b42a3d5145d6ebdfda308be8",
    "doudizhu": "9238a4a346d9631258035e8467306ea25cc2649806d99528f3d8ec579229470c",
    "mini_doudizhu": "13997860a8c4450ee945893ba59cb1b98709716a3a08a1c62bc2a3b624603b8a",
}


# `cardtable train --game leduc --algo mccfr --iters 2000 --seed 7` and
# `--game blackjack --algo qlearn --episodes 5000 --seed 7` policy.txt
MCCFR_LEDUC_2000_SHA256 = "811de2765782aa4ca03432318df0085bb88e598518d3bbe509eba18796818e8e"
QLEARN_BLACKJACK_5000_SHA256 = "dcc3367e58afd0b78f7ab1f976bad07ef68724d8954a2af949ae87958469e024"
HOLDEM_3P_LOG_SHA256 = "ab0ccee60983b4f451953574b25bcceea503b47aa3fc567da6c654fac68f688a"

# MCCFRTrainer(EnvConfig(game_id, seed=7, num_players=n)).run(iterations)
# policy dumps: blackjack covers the one-seat game (a natural still asks
# for a decision), and the hold'em pins cover two and three seats
MCCFR_SHA256 = {
    ("blackjack", None, 500): "a087571db57bc4629cc91f0cf3a2b2f167b72e79ee9e56df8d1c4caa0dcfe0a1",
    ("limit_holdem", 2, 3): "c08234fa33a6f0dffee2af776c30d798068791b64f66fc6b6e88bcb987bdb91c",
    ("limit_holdem", 3, 2): "a0567faf40970205e26678864a319f094d770e51812ed7daa45e3ed51733ac1d",
}


# make_single_agent(EnvConfig(game_id, seed=7), random opponents,
# learner_seat) over SA_EPISODES resets, the learner choosing uniformly
# with env.learner_rng: the game index each reset lands on, then the legal
# ids, planes, reward and done flag of every observation. Dou dizhu seats
# 1 and 2 see the opponents move before their first decision; at leduc
# seat 1 the opponent often folds first, and reset skips those games.
SA_EPISODES = 200
SA_SHA256 = {
    ("doudizhu", 0): "bdaa39000217155c1797e217ebf581e6b417aa6986b03649c622acbba3690e9d",
    ("doudizhu", 1): "703027c44cb3e62779a66e3f35b9f47bbc65fcf5ccc2e4b96f4fedd4b90c38bb",
    ("doudizhu", 2): "5956935a4573648f46408b5a9780d7942d6578c514fb43a7d6e756b4229b4d6e",
    ("blackjack", 0): "0cced78ce64e2453eaa57e27240336595a414cc22d4505c03230913c95590f21",
    ("leduc", 1): "e916dd7fce6031686e4256421a006fec0337495f7536109a4cfa934d5b86aa3a",
}


def _random_env(game_id: str, seed: int, num_players: int | None = None):
    env = make(EnvConfig(game_id, seed=seed, num_players=num_players))
    env.set_agents([RandomAgent() for _ in range(env.num_players)])
    return env


def log_digest(game_id: str, num_players: int | None = None) -> str:
    env = _random_env(game_id, SEED, num_players)
    digest = hashlib.sha256()
    for i in range(LOG_GAMES):
        trajectories, payoffs = env.run()
        digest.update(serialize_trajectories(game_id, SEED, i, trajectories, payoffs).encode())
    return digest.hexdigest()


def _update_view(digest, obs) -> None:
    digest.update(repr(obs.raw).encode())
    digest.update(obs.info_key.encode())
    digest.update(repr(obs.legal_action_ids).encode())
    digest.update(obs.planes.tobytes())


def view_digest(game_id: str) -> str:
    env = _random_env(game_id, SEED)
    digest = hashlib.sha256()
    for _ in range(VIEW_GAMES):
        trajectories, _ = env.run()
        for trajectory in trajectories:
            for t in trajectory:
                _update_view(digest, t.state)
                _update_view(digest, t.next_state)
    return digest.hexdigest()


def single_agent_digest(game_id: str, learner_seat: int) -> str:
    opponents = [RandomAgent() for _ in range(game_spec(game_id).player_range[0] - 1)]
    env = make_single_agent(EnvConfig(game_id, seed=SEED), opponents, learner_seat)
    digest = hashlib.sha256()
    for _ in range(SA_EPISODES):
        obs, reward, done = env.reset(), 0.0, False
        digest.update(f"game {env.game_index}".encode())
        rng = env.learner_rng
        while True:
            digest.update(repr((obs.legal_action_ids, reward, done)).encode())
            digest.update(obs.planes.tobytes())
            if done:
                break
            legal = obs.legal_action_ids
            obs, reward, done = env.sa_step(legal[rng.randbelow(len(legal))])
    return digest.hexdigest()


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_selfplay_logs_unchanged(game_id):
    assert log_digest(game_id) == LOG_SHA256[game_id]


@pytest.mark.parametrize("game_id", GAME_IDS)
def test_observation_views_unchanged(game_id):
    assert view_digest(game_id) == VIEW_SHA256[game_id]


def test_three_player_holdem_log_unchanged():
    assert log_digest("limit_holdem", num_players=3) == HOLDEM_3P_LOG_SHA256


@pytest.mark.parametrize("game_id,learner_seat", list(SA_SHA256))
def test_single_agent_stream_unchanged(game_id, learner_seat):
    assert single_agent_digest(game_id, learner_seat) == SA_SHA256[game_id, learner_seat]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_mccfr_leduc_policy_unchanged():
    trainer = MCCFRTrainer(EnvConfig("leduc", seed=SEED))
    trainer.run(2000)
    assert _sha256(trainer.policy().dumps()) == MCCFR_LEDUC_2000_SHA256


@pytest.mark.parametrize("game_id,num_players,iterations", list(MCCFR_SHA256))
def test_mccfr_policy_unchanged(game_id, num_players, iterations):
    trainer = MCCFRTrainer(EnvConfig(game_id, seed=SEED, num_players=num_players))
    trainer.run(iterations)
    assert _sha256(trainer.policy().dumps()) == MCCFR_SHA256[game_id, num_players, iterations]


def test_qlearn_blackjack_policy_unchanged():
    env = make_single_agent(EnvConfig("blackjack", seed=SEED), opponents=[])
    table = qlearn_train(env, 5000)
    assert _sha256(table.greedy_policy().dumps()) == QLEARN_BLACKJACK_5000_SHA256

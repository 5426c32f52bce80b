"""Release gate: ten acceptance criteria, one test per criterion.

Run with -v to get one pass/fail line per criterion. Tests print their
measured numbers so failures show margins, not just verdicts. The
parallel speedup criterion needs a multi-core host; on a single-core
machine it fails by design and the message says so.
"""

import os
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from cardtable.agents import (
    CFRTrainer,
    PolicyAgent,
    PolicyTable,
    RandomAgent,
    mccfr_external_train,
    qlearn_train,
)
from cardtable.cli import main
from cardtable.core.rng import Rng
from cardtable.env import GAME_IDS, EnvConfig, make, make_single_agent
from cardtable.evaluation import (
    best_response,
    count_info_sets,
    exploitability,
    leduc_best_response_value,
    tournament,
)
from cardtable.games.doudizhu_patterns import ABSTRACT_ACTIONS, abstract_id, complete, matching_abstract_ids
from cardtable.parallel import BenchReport, RolloutSpec, bench, rollout_parallel
from cardtable.trees import LeducTree

from test_doudizhu import oracle_lead_triples, oracle_triples, random_deal_hand, random_sparse_hand


@pytest.fixture(scope="module")
def cfr_checkpoints():
    """One Leduc CFR run, average strategy frozen at 10^2, 10^3, 10^4 iterations."""
    trainer = CFRTrainer("leduc")
    done = 0
    out = {}
    for n in (100, 1_000, 10_000):
        trainer.run(n - done)
        done = n
        out[n] = trainer.policy()
    return out


def test_criterion_01_selfplay_determinism(capsys):
    started = time.perf_counter()
    for gid in GAME_IDS:
        argv = ["selfplay", "--game", gid, "--games", "1000", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first, f"{gid}: reruns differ"
        assert first.startswith(f"# game={gid} seed=")
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"determinism suite took {elapsed:.1f}s"
    print(f"criterion 01 PASS: 1000-game selfplay byte-identical on {len(GAME_IDS)} games in {elapsed:.1f}s")


def test_criterion_02_step_back_restores_state():
    started = time.perf_counter()
    for gid in GAME_IDS:
        env = make(EnvConfig(game_id=gid, seed=3))
        rng = Rng(90 + len(gid))
        probes = 0
        obs, _ = env.new_game()
        while probes < 10_000:
            if env.is_over():
                obs, _ = env.new_game()
                continue
            snap = env.game.snapshot()
            action = rng.choice(obs.legal_action_ids)
            env.step(action)
            assert env.step_back()
            assert env.game.snapshot() == snap, f"{gid}: probe {probes} not restored"
            obs, _ = env.step(action)
            probes += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"round-trip suite took {elapsed:.1f}s"
    print(f"criterion 02 PASS: 10,000 step/step_back probes restored per game in {elapsed:.1f}s")


def test_criterion_03_zero_sum_and_chip_conservation():
    for gid in ("leduc", "limit_holdem"):
        env = make(EnvConfig(game_id=gid, seed=13))
        env.set_agents([RandomAgent(), RandomAgent()])
        for _ in range(10_000):
            _, payoffs = env.run()
            assert sum(payoffs) == 0.0, f"{gid}: payoffs {payoffs}"
            if gid == "limit_holdem":
                # settlement pays out exactly what was posted
                assert sum(map(Fraction, env.game._results)) == 0
            elif payoffs[0] != 0.0:
                loser = 0 if payoffs[0] < 0.0 else 1
                assert abs(payoffs[0]) == float(env.game.chips[loser])
    print("criterion 03 PASS: 10,000 games per game sum to zero with chips conserved")


def test_criterion_04_doudizhu_abstraction():
    assert len(ABSTRACT_ACTIONS) == 309

    env = make(EnvConfig(game_id="doudizhu", seed=11))
    rng = Rng(4)
    states = 0
    obs, _ = env.new_game()
    while states < 100_000:
        if env.is_over():
            obs, _ = env.new_game()
            continue
        hand = env.game.counts[env.game.turn]
        for action in obs.legal_action_ids:
            pattern = complete(action, hand)[0]
            assert abstract_id(pattern) == action
        states += 1
        obs, _ = env.step(rng.choice(obs.legal_action_ids))

    rng = Rng(71)
    for trial in range(1_000):
        cnt = random_deal_hand(rng) if trial % 2 == 0 else random_sparse_hand(rng)
        produced = {ABSTRACT_ACTIONS[i] for i in matching_abstract_ids(cnt, None)}
        assert produced == oracle_lead_triples(cnt), f"lead sets differ on hand {cnt}"
        if trial % 2 == 0:
            other = random_deal_hand(rng)
            leads = sorted(oracle_lead_triples(other))
            to_beat_triple = leads[rng.randbelow(len(leads))]
            from cardtable.games.doudizhu_patterns import CardPattern

            cat, primal, length = to_beat_triple
            to_beat = CardPattern(cat, primal, length, ())
            produced = {ABSTRACT_ACTIONS[i] for i in matching_abstract_ids(cnt, to_beat)}
            assert produced == oracle_triples(cnt, to_beat_triple), f"follow sets differ on {cnt} vs {to_beat_triple}"
    print("criterion 04 PASS: 309 actions, decode/encode bijective on 100,000 states, 1,000-hand oracle agreement")


def test_criterion_05_census_bands_and_planes():
    started = time.perf_counter()
    blackjack = count_info_sets("blackjack")
    assert len(blackjack.info_sets_per_player) == 1
    assert 10**2.5 <= blackjack.info_sets_per_player[0] <= 10**3.5

    leduc = count_info_sets("leduc")
    for count in leduc.info_sets_per_player:
        assert 10**1.5 <= count <= 10**3.5

    env = make(EnvConfig(game_id="doudizhu", seed=1))
    obs, _ = env.new_game()
    assert obs.planes.shape == (6, 5, 15)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"census took {elapsed:.1f}s"
    print(
        f"criterion 05 PASS: blackjack {blackjack.info_sets_per_player[0]} keys, "
        f"leduc {leduc.info_sets_per_player[0]} keys per seat, planes (6, 5, 15), {elapsed:.1f}s"
    )


def test_criterion_06_cfr_convergence(cfr_checkpoints):
    started = time.perf_counter()
    uniform = exploitability("leduc", PolicyTable()).exploitability
    curve = {n: exploitability("leduc", policy).exploitability for n, policy in cfr_checkpoints.items()}
    assert curve[10_000] < uniform / 10, f"cfr final {curve[10_000]:.6f} vs uniform {uniform:.6f}"
    assert curve[100] > curve[1_000] > curve[10_000], f"not decreasing: {curve}"

    mccfr_policy = mccfr_external_train("leduc", 100_000, rng_seed=0)
    mccfr_final = exploitability("leduc", mccfr_policy).exploitability
    gap = abs(curve[10_000] - mccfr_final)
    assert gap < 0.05, f"cfr {curve[10_000]:.6f} vs mccfr {mccfr_final:.6f}, gap {gap:.6f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 900.0, f"convergence suite took {elapsed:.1f}s"
    print(
        f"criterion 06 PASS: exploitability {curve[100]:.4f} > {curve[1_000]:.4f} > {curve[10_000]:.4f} "
        f"< uniform/10 = {uniform / 10:.4f}, |cfr - mccfr| = {gap:.4f}, {elapsed:.1f}s"
    )


def test_criterion_07_tournament_direction(cfr_checkpoints):
    cfr_agent = PolicyAgent(cfr_checkpoints[10_000])
    vs_random = tournament(EnvConfig(game_id="leduc", seed=40), [cfr_agent, RandomAgent()], 10_000)
    assert vs_random.agent_means[0] > 0.0, f"cfr vs random mean {vs_random.agent_means[0]:.4f}"

    env = make_single_agent(EnvConfig(game_id="leduc", seed=5), opponents=[RandomAgent()])
    qtable = qlearn_train(env, 30_000)
    q_agent = PolicyAgent(qtable.greedy_policy())
    vs_q = tournament(EnvConfig(game_id="leduc", seed=41), [cfr_agent, q_agent], 10_000)
    assert vs_q.agent_means[0] > 0.0, f"cfr vs qlearn mean {vs_q.agent_means[0]:.4f}"
    print(
        f"criterion 07 PASS: cfr beats random ({vs_random.agent_means[0]:+.4f} bb) "
        f"and qlearn ({vs_q.agent_means[0]:+.4f} bb) over 10,000 games each"
    )


def test_criterion_08_best_response_cross_check(cfr_checkpoints):
    uniform = PolicyTable()
    worst = 0.0
    for seat in (0, 1):
        _, generic = best_response(LeducTree(), uniform, seat)
        direct = leduc_best_response_value(uniform, seat)
        worst = max(worst, abs(generic - direct))
    assert worst < 1e-9, f"oracles disagree by {worst:.3e}"

    report = exploitability("leduc", cfr_checkpoints[10_000])
    assert report.exploitability >= 0.0
    print(
        f"criterion 08 PASS: dual best-response gap {worst:.2e}, "
        f"cfr exploitability {report.exploitability:.6f} >= 0"
    )


def test_criterion_09_blackjack_qlearning_beats_random():
    started = time.perf_counter()

    def mean_reward(agent, seed):
        env = make(EnvConfig(game_id="blackjack", seed=seed))
        env.set_agents([agent])
        total = 0.0
        for _ in range(100_000):
            _, payoffs = env.run()
            total += payoffs[0]
        return total / 100_000

    baseline = mean_reward(RandomAgent(), seed=900)
    env = make_single_agent(EnvConfig(game_id="blackjack", seed=23), opponents=[])
    qtable = qlearn_train(env, 200_000)
    trained = mean_reward(PolicyAgent(qtable.greedy_policy()), seed=900)
    elapsed = time.perf_counter() - started
    assert trained >= baseline + 0.2, f"trained {trained:.4f} vs random {baseline:.4f}"
    assert elapsed < 600.0, f"single-agent suite took {elapsed:.1f}s"
    print(
        f"criterion 09 PASS: qlearning {trained:+.4f} vs random {baseline:+.4f} "
        f"(margin {trained - baseline:.4f} >= 0.2) over 100,000 hands, {elapsed:.1f}s"
    )


def test_criterion_10_throughput_and_parallel_speedup():
    for gid in GAME_IDS:
        report = bench(EnvConfig(gid), 10_000, 1)
        assert report.games == 30_000
        assert report.csv_row().startswith(f"{gid},1,30000,")
        print(f"{BenchReport.csv_header()}\n{report.csv_row()}")

    config = EnvConfig(game_id="doudizhu", seed=21)
    spec = RolloutSpec(env_config=config, agents=("random",) * 3, n_games=240, n_workers=1)
    serial = rollout_parallel(spec)
    quad = rollout_parallel(replace(spec, n_workers=4))
    assert quad.per_game_payoffs == serial.per_game_payoffs
    assert quad.mean_payoffs == serial.mean_payoffs

    # best of three alternated runs each: a pool forked after the host sat
    # idle can start on one CPU, which says nothing about scaling
    timing = replace(spec, n_games=1_200)
    serial_s = quad_s = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        rollout_parallel(timing)
        serial_s = min(serial_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        rollout_parallel(replace(timing, n_workers=4))
        quad_s = min(quad_s, time.perf_counter() - t0)
    speedup = serial_s / quad_s
    ok = speedup > 1.0
    print(f"criterion 10 {'PASS' if ok else 'FAIL'}: 4-worker doudizhu speedup {speedup:.2f} on {os.cpu_count()} cpus")
    assert ok, (
        f"4-worker wall-clock speedup {speedup:.2f} <= 1 on doudizhu "
        f"(serial {serial_s:.2f}s, 4 workers {quad_s:.2f}s, os.cpu_count()={os.cpu_count()}); "
        f"this criterion needs a multi-core host"
    )

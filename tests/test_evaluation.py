"""Tournaments, best response, exploitability, census.

The two best-response implementations share no code (one walks the
tree module, one expands deals from the betting rules directly), so
their agreement to 1e-9 is treated as a correctness gate for both.
"""

import dataclasses
import json
import math

import pytest

from cardtable.agents import PolicyAgent, PolicyTable, RandomAgent, cfr_train, mccfr_external_train
from cardtable.core.rng import Rng
from cardtable.env import EnvConfig, make
from cardtable.errors import AgentsNotSet, GameTooLarge, InvalidParam, NotZeroSum, UnknownGame
from cardtable.evaluation import (
    best_response,
    count_info_sets,
    exploitability,
    leduc_best_response_value,
    tournament,
    tree_policy_value,
    winrate_vs_random,
)
from cardtable.trees import LeducTree, tree_for

from test_cfr_sweep import SpecTree, end
from test_trees import CoinTree

UNIFORM_LEDUC_EXPLOITABILITY = 2.3308641975308646  # frozen from both oracles


def leduc_info_sets():
    """Every (info_key, actions) pair of the leduc tree, per seat."""
    tree = LeducTree()
    seen: dict[str, tuple] = {}
    stack = [tree.root()]
    while stack:
        node = stack.pop()
        if tree.is_terminal(node):
            continue
        if tree.is_chance(node):
            stack.extend(child for child, _ in tree.chance_outcomes(node))
            continue
        actions = tree.actions(node)
        seen.setdefault(tree.info_key(node), tuple(actions))
        stack.extend(tree.child(node, a) for a in actions)
    return seen


def random_leduc_policy(seed):
    rng = Rng(seed)
    table = PolicyTable()
    for key, actions in leduc_info_sets().items():
        weights = [rng.random() + 1e-3 for _ in actions]
        table.set(key, actions, weights)
    return table


class TestBestResponseOracleAgreement:
    def test_uniform_policy(self):
        uniform = PolicyTable()
        for seat in (0, 1):
            _, generic = best_response(LeducTree(), uniform, seat)
            direct = leduc_best_response_value(uniform, seat)
            assert abs(generic - direct) < 1e-9

    def test_trained_policies(self):
        for policy in (cfr_train("leduc", 40), mccfr_external_train("leduc", 80, rng_seed=2)):
            for seat in (0, 1):
                _, generic = best_response(LeducTree(), policy, seat)
                direct = leduc_best_response_value(policy, seat)
                assert abs(generic - direct) < 1e-9

    def test_random_policies(self):
        for seed in range(10):
            policy = random_leduc_policy(seed)
            for seat in (0, 1):
                _, generic = best_response(LeducTree(), policy, seat)
                direct = leduc_best_response_value(policy, seat)
                assert abs(generic - direct) < 1e-9

    def test_best_response_dominates_fixed_responses(self):
        policy = random_leduc_policy(99)
        _, br0 = best_response(LeducTree(), policy, 0)
        for seed in range(100):
            alt = random_leduc_policy(1000 + seed)
            v = tree_policy_value(LeducTree(), [alt, policy])
            assert v[0] <= br0 + 1e-9

    def test_br_policy_achieves_its_value(self):
        policy = random_leduc_policy(5)
        br_policy, br_value = best_response(LeducTree(), policy, 1)
        v = tree_policy_value(LeducTree(), [policy, br_policy])
        assert v[1] == pytest.approx(br_value, abs=1e-12)


class TestExploitability:
    def test_uniform_golden_value(self):
        report = exploitability("leduc", PolicyTable())
        assert report.exploitability == pytest.approx(UNIFORM_LEDUC_EXPLOITABILITY, abs=1e-12)
        assert report.exploitability == pytest.approx(sum(report.br_values) / 2, abs=1e-15)

    def test_training_reduces_exploitability(self):
        trained = exploitability("leduc", cfr_train("leduc", 100)).exploitability
        assert 0.0 <= trained < UNIFORM_LEDUC_EXPLOITABILITY / 2

    def test_non_zero_sum_games_rejected(self):
        with pytest.raises(NotZeroSum):
            exploitability(CoinTree(loss=(-1, 0)), PolicyTable())

    def test_ids_without_a_tree_exceed_guard(self):
        for gid in ("uno", "doudizhu", "mini_doudizhu", "limit_holdem"):
            with pytest.raises(GameTooLarge, match="would exceed the node guard"):
                exploitability(gid, PolicyTable())
        with pytest.raises(GameTooLarge, match="'blackjack'; it has one seat, and exact trees have two"):
            exploitability("blackjack", PolicyTable())


class TestTreePolicyValue:
    def test_uniform_self_play_value(self):
        v = tree_policy_value(LeducTree(), PolicyTable())
        assert v[0] + v[1] == pytest.approx(0.0, abs=1e-15)
        assert v[0] == pytest.approx(-0.4801097393689987, abs=1e-12)

    def test_per_seat_tables(self):
        policy = cfr_train("leduc", 20)
        shared = tree_policy_value(LeducTree(), policy)
        listed = tree_policy_value(LeducTree(), [policy, policy])
        assert shared == listed

    def test_a_zero_value_is_positive_zero_for_both_seats(self):
        coin = SpecTree(("chance", ((0.5, end(1)), (0.5, end(-1)))))
        v = tree_policy_value(coin, PolicyTable())
        assert v == (0.0, 0.0)
        assert [math.copysign(1.0, x) for x in v] == [1.0, 1.0]


class TestTournament:
    def test_seat_swap_symmetry_is_exact(self):
        config = EnvConfig("leduc", seed=2024)
        a = PolicyAgent(cfr_train("leduc", 30))
        b = RandomAgent()
        first = tournament(config, [a, b], 120)
        second = tournament(config, [b, a], 120)
        assert first.agent_means == tuple(reversed(second.agent_means))
        assert first.agent_variances == tuple(reversed(second.agent_variances))

    def test_zero_sum_agent_means(self):
        config = EnvConfig("leduc", seed=8)
        result = tournament(config, [RandomAgent(), RandomAgent()], 100)
        assert sum(result.agent_means) == 0.0
        assert result.game_count == 100
        assert result.scheme == "rotated:2x50"

    def test_rounds_down_to_block_multiple(self):
        config = EnvConfig("doudizhu", seed=8)
        agents = [RandomAgent(), RandomAgent(), RandomAgent()]
        result = tournament(config, agents, 20)
        assert result.game_count == 18
        assert result.scheme == "rotated:3x6"
        assert [b.assignment for b in result.blocks] == [(0, 1, 2), (2, 0, 1), (1, 2, 0)]

    def test_fixed_seat_block(self):
        config = EnvConfig("leduc", seed=3)
        result = tournament(config, [RandomAgent(), RandomAgent()], 75, rotate=False)
        assert result.scheme == "fixed:1x75"
        assert len(result.blocks) == 1
        assert result.blocks[0].assignment == (0, 1)

    def test_identical_agents_tie_exactly_when_rotated(self):
        config = EnvConfig("leduc", seed=5)
        result = tournament(config, [RandomAgent(), RandomAgent()], 60)
        assert result.agent_means[0] == result.agent_means[1]

    def test_blocks_replay_the_same_deals(self):
        # with deterministic agents in both seats, rotating two copies
        # of the same policy makes the blocks mirror each other exactly
        config = EnvConfig("leduc", seed=11)
        agent = PolicyAgent(cfr_train("leduc", 10))
        result = tournament(config, [agent, agent], 80)
        assert result.blocks[0].seat_means == result.blocks[1].seat_means

    def test_validation(self):
        config = EnvConfig("leduc", seed=0)
        with pytest.raises(AgentsNotSet):
            tournament(config, [RandomAgent()], 10)
        with pytest.raises(InvalidParam):
            tournament(config, [RandomAgent(), RandomAgent()], 1)

    def test_csv_table_layout(self):
        config = EnvConfig("leduc", seed=1)
        result = tournament(config, [RandomAgent(), RandomAgent()], 20)
        lines = result.csv_table().splitlines()
        assert lines[0] == "block,seat,agent,games,mean_payoff,payoff_variance"
        assert len(lines) == 1 + 2 * 2 + 2
        assert lines[1].startswith("0,0,0,10,")
        assert lines[-1].startswith("all,*,1,20,")

    def test_summary_dict_round_trips_fields(self):
        config = EnvConfig("leduc", seed=1)
        result = tournament(config, [RandomAgent(), RandomAgent()], 20)
        summary = json.loads(json.dumps(dataclasses.asdict(result)))
        assert summary["game_id"] == "leduc"
        assert summary["scheme"] == result.scheme
        assert summary["agent_means"] == list(result.agent_means)
        assert len(summary["blocks"]) == 2


class TestWinrateVsRandom:
    def test_equals_fixed_tournament_seat_zero(self):
        config = EnvConfig("blackjack", seed=123)
        direct = winrate_vs_random(RandomAgent(), config, 500)
        result = tournament(config, [RandomAgent()], 500, rotate=False)
        assert direct == result.blocks[0].seat_means[0]

    def test_blackjack_random_baseline_band(self):
        config = EnvConfig("blackjack", seed=7)
        rate = winrate_vs_random(RandomAgent(), config, 4000)
        assert -0.5 < rate < -0.25  # random play busts often

    def test_trained_leduc_policy_beats_random(self):
        config = EnvConfig("leduc", seed=17)
        agent = PolicyAgent(cfr_train("leduc", 60))
        assert winrate_vs_random(agent, config, 2000) > 0.3


class TestCensus:
    def test_blackjack_counts(self):
        census = count_info_sets("blackjack")
        assert census.info_sets_per_player == (1373,)
        assert census.avg_states_per_info_set == pytest.approx(409172 / 1373)
        assert census.action_space_size == 2
        assert census.num_players == 1

    def test_leduc_counts(self):
        census = count_info_sets("leduc")
        assert census.info_sets_per_player == (144, 144)
        # 774 decision nodes pooled into 288 keys (opponent ranks overlap)
        assert census.avg_states_per_info_set == 774 / 288
        assert census.action_space_size == 4

    def test_large_games_refuse(self):
        for gid in ("limit_holdem", "uno", "doudizhu", "mini_doudizhu"):
            with pytest.raises(GameTooLarge):
                count_info_sets(gid)
        with pytest.raises(InvalidParam):
            count_info_sets("bridge")

    def test_unknown_ids_are_unknown_games_everywhere(self):
        with pytest.raises(UnknownGame):
            count_info_sets("bridge")
        with pytest.raises(UnknownGame):
            exploitability("bridge", PolicyTable())
        with pytest.raises(UnknownGame):
            tree_for("bridge")

"""Agents, tabular policies, and the three trainers."""

import builtins
import hashlib
import math
import os
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardtable.agents import (
    CFRTrainer,
    MCCFRTrainer,
    PolicyAgent,
    PolicyTable,
    QTable,
    RandomAgent,
    cfr_train,
    mccfr_external_train,
    qlearn_train,
    qlearning,
    regret_matching,
)
from cardtable.core.rng import Rng
from cardtable.env import EnvConfig, make, make_single_agent
from cardtable.agents.policy import average_policy
from cardtable.errors import CardTableError, GameTooLarge, InvalidParam, InvalidPolicy, ParseError
from cardtable.games.leduc import LeducGame
from cardtable.trees import LeducTree


def hex_table(table):
    return {key: [x.hex() for x in row] for key, row in table.items()}


def mccfr_column(trainer, i):
    """Column i of an MCCFR trainer's tables: 0 actions, 1 regrets, 2 strategy sums."""
    return {key: row[i] for key, row in trainer.tables.items()}


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


_builtin_sum = builtins.sum


def compensated_sum(values, start=0):
    """Python 3.12's sum() of floats, Neumaier's compensated summation; other sums as before."""
    values = list(values)
    if not values or not all(isinstance(x, float) for x in values):
        return _builtin_sum(values, start)
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation


def obs_stub(key="k", legal=(0, 1, 2)):
    return SimpleNamespace(info_key=key, legal_action_ids=tuple(legal))


def reload(table):
    """The table written to a policy file and loaded back."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "policy.tsv")
        table.save(path)
        return PolicyTable.load(path)


# any text as a key; distinct ids; non-negative weights of positive mass
policy_entries = st.dictionaries(
    st.text(max_size=10),
    st.lists(st.integers(0, 400), min_size=1, max_size=6, unique=True).flatmap(
        lambda ids: st.tuples(
            st.just(ids),
            st.lists(st.floats(0.0, 1e6), min_size=len(ids), max_size=len(ids)).filter(lambda w: sum(w) > 0.0),
        )
    ),
    max_size=8,
)


class TestRegretMatching:
    def test_positive_part_normalized(self):
        assert regret_matching([3.0, 1.0]) == [0.75, 0.25]
        assert regret_matching([2.0, -5.0, 2.0]) == [0.5, 0.0, 0.5]

    def test_uniform_when_nothing_positive(self):
        assert regret_matching([0.0, 0.0]) == [0.5, 0.5]
        assert regret_matching([-1.0, -2.0, -3.0]) == [1 / 3, 1 / 3, 1 / 3]


class TestPolicyTable:
    def test_set_normalizes(self):
        table = PolicyTable()
        table.set("a", (0, 2), (2.0, 2.0))
        ids, probs = table.probs_for("a", ())
        assert ids == (0, 2)
        assert probs == (0.5, 0.5)

    def test_set_validates(self):
        table = PolicyTable()
        with pytest.raises(ValueError):
            table.set("a", (0, 1), (0.5,))
        with pytest.raises(ValueError):
            table.set("a", (0, 1), (0.0, 0.0))

    def test_set_rejects_negative_probability(self):
        with pytest.raises(InvalidPolicy):
            PolicyTable().set("k", (0, 1), (2.0, -1.0))

    def test_set_rejects_non_finite_probability(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidPolicy):
                PolicyTable().set("k", (0, 1), (bad, 1.0))

    def test_set_rejects_duplicate_action_ids(self):
        with pytest.raises(InvalidPolicy):
            PolicyTable().set("k", (0, 0), (0.5, 0.5))

    def test_invalid_policy_is_a_value_error(self):
        assert issubclass(InvalidPolicy, ValueError)
        assert issubclass(InvalidPolicy, CardTableError)

    def test_load_rejects_repeated_key(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("cardtable-policy v1\nk\t0,1\t0.5,0.5\nk\t0,1\t1.0,0.0\n")
        with pytest.raises(ParseError, match="line 3"):
            PolicyTable.load(path)

    def test_average_policy_normalizes_and_falls_back_to_uniform(self):
        table = average_policy([("a", (0, 1), [1.0, 3.0]), ("b", (2, 5), [0.0, 0.0])])
        assert table.probs_for("a", ()) == ((0, 1), (0.25, 0.75))
        assert table.probs_for("b", ()) == ((2, 5), (0.5, 0.5))

    def test_average_policy_divides_each_weight_once(self):
        # a second division by the rounded sum of the first quotients
        # would store 0.16666666666666669 and 0.6666666666666667
        table = average_policy([("k", (0, 1, 2), [1.0, 4.0, 1.0])])
        assert table.probs_for("k", ()) == ((0, 1, 2), (1.0 / 6, 4.0 / 6, 1.0 / 6))

    def test_unseen_key_uniform(self):
        table = PolicyTable()
        ids, probs = table.probs_for("missing", (4, 7))
        assert ids == (4, 7)
        assert probs == (0.5, 0.5)

    def test_save_load_round_trip(self, tmp_path):
        table = PolicyTable()
        table.set("B|12h|n2|u5", (0, 1), (0.25, 0.75))
        table.set("A", (3,), (1.0,))
        path = tmp_path / "p.tsv"
        table.save(path)
        loaded = PolicyTable.load(path)
        assert dict(loaded.items()) == dict(table.items())
        assert loaded.dumps() == table.dumps()

    def test_load_then_save_writes_the_same_bytes(self):
        """load keeps the file's 12-decimal probabilities instead of dividing them by their sum again."""
        weights = PolicyTable()
        weights.set("w", (0, 1, 2), (31262, 31262, 1))
        for table in (weights, cfr_train("leduc", 100)):
            assert reload(table).dumps() == table.dumps()

    @settings(max_examples=300, deadline=None)
    @given(entries=policy_entries)
    def test_fuzzed_dumps_load_round_trip(self, entries):
        """Entries with printable keys survive a file round trip to the file's 12 decimals."""
        table = PolicyTable()
        for key, (ids, weights) in entries.items():
            if key.isprintable():
                table.set(key, ids, weights)
            else:
                with pytest.raises(InvalidPolicy):
                    table.set(key, ids, weights)
        loaded = reload(table)
        assert len(loaded) == len(table)
        for key, (ids, probs) in table.items():
            got_ids, got_probs = loaded.probs_for(key, ())
            assert got_ids == ids
            assert all(abs(a - b) < 1e-11 for a, b in zip(got_probs, probs))

    def test_set_rejects_keys_a_file_cannot_hold(self):
        for bad in ("a\tb", "a\nb", "a\rb", "a\x1eb", "\ud800"):
            with pytest.raises(InvalidPolicy):
                PolicyTable().set(bad, (0,), (1.0,))

    def test_dumps_sorted_and_stable(self):
        table = PolicyTable()
        table.set("zzz", (1,), (1.0,))
        table.set("aaa", (0, 1), (1.0, 3.0))
        text = table.dumps()
        lines = text.splitlines()
        assert lines[0] == "cardtable-policy v1"
        assert lines[1].startswith("aaa\t0,1\t")
        assert text == table.dumps()

    def test_load_rejects_bad_files(self, tmp_path):
        bad_header = tmp_path / "h.tsv"
        bad_header.write_text("something else\n")
        with pytest.raises(ParseError):
            PolicyTable.load(bad_header)
        bad_fields = tmp_path / "f.tsv"
        bad_fields.write_text("cardtable-policy v1\nkey\t0,1\n")
        with pytest.raises(ParseError):
            PolicyTable.load(bad_fields)
        bad_probs = tmp_path / "p.tsv"
        bad_probs.write_text("cardtable-policy v1\nkey\t0\tnot-a-float\n")
        with pytest.raises(ParseError):
            PolicyTable.load(bad_probs)

    def test_unreadable_files_are_parse_errors_naming_path_and_cause(self, tmp_path):
        with pytest.raises(ParseError, match="absent.txt: FileNotFoundError"):
            PolicyTable.load(tmp_path / "absent.txt")
        with pytest.raises(ParseError, match=f"{tmp_path.name}: IsADirectoryError"):
            PolicyTable.load(tmp_path)
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"cardtable-policy v1\nJ\xe9\t0\t1.0\n")
        with pytest.raises(ParseError, match="latin1.txt: UnicodeDecodeError"):
            PolicyTable.load(latin1)


class TestAgents:
    def test_random_agent_uses_the_stream(self):
        agent = RandomAgent()
        rng = Rng(4)
        twin = Rng(4)
        obs = obs_stub(legal=(5, 9, 11))
        picks = [agent.eval_step(obs, rng) for _ in range(20)]
        assert picks == [(5, 9, 11)[twin.randbelow(3)] for _ in range(20)]

    def test_policy_agent_plays_stored_distribution(self):
        table = PolicyTable()
        table.set("k", (3, 8), (0.0, 1.0))
        agent = PolicyAgent(table)
        rng = Rng(0)
        assert all(agent.eval_step(obs_stub("k", (3, 8)), rng) == 8 for _ in range(25))

    def test_policy_agent_uniform_fallback(self):
        agent = PolicyAgent(PolicyTable())
        rng = Rng(7)
        counts = {0: 0, 1: 0, 2: 0}
        for _ in range(3000):
            counts[agent.eval_step(obs_stub("new", (0, 1, 2)), rng)] += 1
        for n in counts.values():
            assert abs(n / 3000 - 1 / 3) < 0.04


class TestCFR:
    def test_zero_iterations_is_uniform(self):
        policy = cfr_train(LeducTree(), 0)
        assert len(policy) == 0  # empty table plays uniform via the fallback

    def test_covers_every_info_set(self):
        trainer = CFRTrainer("leduc")
        trainer.run(3)
        policy = trainer.policy()
        assert len(policy) == 288
        for key, (ids, probs) in policy.items():
            assert len(ids) == len(probs)
            assert all(p >= 0 for p in probs)
            assert abs(sum(probs) - 1.0) < 1e-12

    def test_deterministic(self):
        assert cfr_train("leduc", 5).dumps() == cfr_train("leduc", 5).dumps()

    def test_run_is_incremental(self):
        trainer = CFRTrainer("leduc")
        trainer.run(2)
        trainer.run(3)
        assert trainer.iterations == 5
        assert trainer.policy().dumps() == cfr_train("leduc", 5).dumps()

    def test_node_guard(self):
        with pytest.raises(GameTooLarge):
            CFRTrainer("limit_holdem")

    @pytest.mark.parametrize("count", [2.5, True, -2, "3"])
    def test_count_must_be_an_int_of_at_least_0(self, count):
        with pytest.raises(InvalidParam, match=r"^iterations must be an integer in 0\.\., got "):
            cfr_train("leduc", count)


class TestMCCFR:
    def test_deterministic(self):
        first = mccfr_external_train("leduc", 60, rng_seed=3)
        second = mccfr_external_train("leduc", 60, rng_seed=3)
        assert first.dumps() == second.dumps()

    def test_seed_changes_the_run(self):
        a = mccfr_external_train("leduc", 60, rng_seed=3)
        b = mccfr_external_train("leduc", 60, rng_seed=4)
        assert a.dumps() != b.dumps()

    def test_policies_are_distributions(self):
        trainer = MCCFRTrainer(EnvConfig("leduc", seed=5))
        trainer.run(80)
        policy = trainer.policy()
        assert len(policy) > 60
        for _, (ids, probs) in policy.items():
            assert abs(sum(probs) - 1.0) < 1e-12
            assert all(p >= 0 for p in probs)

    @pytest.mark.parametrize("game_id", ["uno", "doudizhu", "mini_doudizhu"])
    def test_refuses_games_it_cannot_traverse(self, game_id):
        with pytest.raises(GameTooLarge, match=game_id):
            MCCFRTrainer(EnvConfig(game_id))

    @pytest.mark.parametrize("game_id, iterations, digest", [("limit_holdem", 30, "65f0127f0997"), ("blackjack", 300, "44d4a83192aa")])
    def test_engine_walk_policy_bytes_are_pinned(self, game_id, iterations, digest):
        """The engine walk restores one snapshot per node after each child; these bytes predate that walk."""
        trainer = MCCFRTrainer(EnvConfig(game_id, seed=7))
        trainer.run(iterations)
        assert sha256(trainer.policy().dumps())[:12] == digest

    def test_trainer_restores_env_between_iterations(self):
        trainer = MCCFRTrainer(EnvConfig("leduc", seed=5))
        trainer.run(1)
        index_after_one = trainer.env.game_index
        trainer.run(1)
        assert trainer.env.game_index == 2 * index_after_one + 1  # one game per seat

    @pytest.mark.parametrize("seed", [7, 0, 123])
    def test_leduc_tree_walk_is_the_engine_walk(self, seed, monkeypatch):
        """run() on leduc walks the compiled tree; stepping the engine along
        the same deals gives the same tables, byte for byte, in the same order."""
        engine = MCCFRTrainer(EnvConfig("leduc", seed=seed))
        for _ in range(2000):
            engine._iterate_engine()
        tree = MCCFRTrainer(EnvConfig("leduc", seed=seed))
        monkeypatch.setattr(LeducGame, "step", None)  # the tree walk never steps the engine
        tree.run(2000)
        assert list(tree.tables) == list(engine.tables)
        for i in (1, 2):  # regrets, strategy sums
            assert hex_table(mccfr_column(tree, i)) == hex_table(mccfr_column(engine, i))
        assert mccfr_column(tree, 0) == mccfr_column(engine, 0)
        assert tree.env.game_index == engine.env.game_index == 3999
        assert sha256(tree.policy().dumps()) == sha256(engine.policy().dumps())

    @pytest.mark.parametrize("walk", ["_iterate_tree", "_iterate_engine"])
    def test_regrets_do_not_depend_on_the_builtin_sum(self, walk, monkeypatch):
        """Python 3.12's sum() of floats is compensated; the walks' sums must not use it."""

        def run():
            trainer = MCCFRTrainer(EnvConfig("leduc", seed=7))
            for _ in range(300):
                getattr(trainer, walk)()
            return hex_table(mccfr_column(trainer, 1)), hex_table(mccfr_column(trainer, 2))

        plain = run()
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert run() == plain

    @pytest.mark.parametrize("count", [2.5, True, -2, "3"])
    def test_count_must_be_an_int_of_at_least_0(self, count):
        with pytest.raises(InvalidParam, match=r"^iterations must be an integer in 0\.\., got "):
            mccfr_external_train("leduc", count)


class TestQLearning:
    def test_epsilon_schedule(self):
        assert qlearning.epsilon_at(0, 100) == 1.0
        assert qlearning.epsilon_at(25, 100) == pytest.approx(0.525)
        assert qlearning.epsilon_at(50, 100) == pytest.approx(0.05)
        assert qlearning.epsilon_at(99, 100) == pytest.approx(0.05)

    def test_qtable_lazy_rows_and_ties(self):
        table = QTable()
        ids, values = table.values_for("k", (1, 0))
        assert ids == (1, 0) and values == [0.0, 0.0]
        assert table.best_value("k", (1, 0)) == 0.0
        values[1] = 2.0
        greedy = table.greedy_policy()
        assert greedy.probs_for("k", ()) == ((1, 0), (0.0, 1.0))
        values[0] = 2.0  # tie now breaks to the first stored id
        assert table.greedy_policy().probs_for("k", ()) == ((1, 0), (1.0, 0.0))

    def test_zero_learning_rate_learns_nothing(self, monkeypatch):
        monkeypatch.setattr(qlearning, "LEARNING_RATE", 0.0)
        env = make_single_agent(EnvConfig("blackjack", seed=3), [])
        table = qlearn_train(env, 150)
        assert len(table) > 0
        assert all(v == 0.0 for _, (_, values) in table.items() for v in values)

    def test_pure_exploration_matches_random_agent_stream(self, monkeypatch):
        monkeypatch.setattr(qlearning, "EPSILON_END", 1.0)
        config = EnvConfig("blackjack", seed=9)
        learner = make_single_agent(config, [])
        qlearn_train(learner, 300)

        env = make(config)
        env.set_agents([RandomAgent()])
        for _ in range(300):
            env.run()
        assert learner.game_index == env.game_index
        assert learner.timesteps == env.timesteps
        assert learner.game.snapshot() == env.game.snapshot()

    def test_learning_moves_values(self):
        env = make_single_agent(EnvConfig("blackjack", seed=4), [])
        table = qlearn_train(env, 2000)
        assert len(table) > 40
        assert any(v != 0.0 for _, (_, values) in table.items() for v in values)

    @pytest.mark.parametrize("count", [2.5, True, -2, "3"])
    def test_count_must_be_an_int_of_at_least_0(self, count):
        with pytest.raises(InvalidParam, match=r"^episodes must be an integer in 0\.\., got "):
            qlearn_train(make_single_agent(EnvConfig("blackjack", seed=3), []), count)

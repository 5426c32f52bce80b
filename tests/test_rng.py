"""Generator determinism, frozen stream vectors, and seed splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardtable.core.rng as rng_module
from cardtable.core import Rng, split_seed
from cardtable.core.rng import FANOUT_BLOCK, fanout_block

from conftest import load_ints


class TestStreams:
    def test_seed0_matches_frozen_vector(self):
        r = Rng(0)
        assert [r.next_u64() for _ in range(16)] == load_ints("rng_u64_seed0.txt")

    def test_seed7_matches_frozen_vector(self):
        r = Rng(7)
        assert [r.next_u64() for _ in range(16)] == load_ints("rng_u64_seed7.txt")

    def test_same_seed_same_stream(self):
        a, b = Rng(123456789), Rng(123456789)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_different_seeds_diverge(self):
        a, b = Rng(1), Rng(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_state_roundtrip(self):
        r = Rng(9)
        r.next_u64()
        state = r.getstate()
        ahead = [r.next_u64() for _ in range(5)]
        r.setstate(state)
        assert [r.next_u64() for _ in range(5)] == ahead

    def test_seed_masked_to_64_bits(self):
        assert Rng(1 << 64).next_u64() == Rng(0).next_u64()


class TestBoundedDraws:
    def test_randbelow_frozen_vector(self):
        r = Rng(42)
        assert [r.randbelow(52) for _ in range(32)] == load_ints("randbelow52_seed42.txt")

    def test_randbelow_in_range(self):
        r = Rng(5)
        for n in (1, 2, 3, 7, 52, 54, 309, 1 << 20):
            for _ in range(200):
                assert 0 <= r.randbelow(n) < n

    def test_randbelow_rejects_nonpositive(self):
        r = Rng(0)
        with pytest.raises(ValueError):
            r.randbelow(0)

    def test_randbelow_roughly_uniform(self):
        # 3-sigma band for 6000 draws over 6 buckets
        r = Rng(77)
        counts = [0] * 6
        for _ in range(6000):
            counts[r.randbelow(6)] += 1
        for c in counts:
            assert abs(c - 1000) < 3 * (1000 * 5 / 6) ** 0.5

    def test_random_unit_interval(self):
        r = Rng(8)
        xs = [r.random() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert abs(sum(xs) / len(xs) - 0.5) < 0.05


class TestSplit:
    def test_split_frozen_vectors(self):
        assert [split_seed(0, i) for i in range(8)] == load_ints("split_seed0.txt")
        assert [split_seed(7, i) for i in range(8)] == load_ints("split_seed7.txt")

    def test_split_deterministic_and_distinct(self):
        seen = {split_seed(99, i) for i in range(1000)}
        assert len(seen) == 1000
        assert split_seed(99, 3) == split_seed(99, 3)

    def test_split_rejects_negative_index(self):
        with pytest.raises(ValueError):
            split_seed(0, -1)

    def test_sub_streams_do_not_collide(self):
        a = Rng(split_seed(4, 0))
        b = Rng(split_seed(4, 1))
        assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


# a game index on either side of a block edge, or anywhere in the first blocks
block_edge_index = st.builds(lambda edge, d: edge * FANOUT_BLOCK + d, st.integers(1, 2**40), st.integers(-2, 1))
fanout_index = st.one_of(st.integers(0, 3 * FANOUT_BLOCK), block_edge_index)
masters = st.one_of(st.integers(-(2**70), 2**70), st.integers(2**64 - 3, 2**64 + 3), st.integers(-3, 3))


class TestFanoutBlock:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(master=masters, index=fanout_index, streams=st.integers(1, 11))
    def test_entries_are_the_split_seed_states(self, master, index, streams):
        start = index - index % FANOUT_BLOCK
        block = fanout_block(master, start, streams)
        assert block.shape == (FANOUT_BLOCK, streams, 4) and block.dtype == np.uint64
        game_seed = split_seed(master, index)
        for k, words in enumerate(block[index - start].tolist()):
            want = Rng(split_seed(game_seed, k))
            assert tuple(words) == want.getstate()
            assert Rng.from_words(words).getstate() == want.getstate()

    def test_every_row_of_a_ten_seat_block(self):
        for master in (0, 7, -1, 2**64 + 5):
            block = fanout_block(master, FANOUT_BLOCK, 11).tolist()
            for g, row in enumerate(block):
                game_seed = split_seed(master, FANOUT_BLOCK + g)
                assert [tuple(words) for words in row] == [Rng(split_seed(game_seed, k)).getstate() for k in range(11)]

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            fanout_block(0, -FANOUT_BLOCK, 1)

    def test_all_zero_words_start_from_s0_one(self, monkeypatch):
        zero_row = np.zeros((2, 4), dtype=np.uint64).tolist()
        assert Rng.from_words(zero_row[0]).getstate() == (1, 0, 0, 0)
        assert Rng.from_words([0, 0, 0, 5]).getstate() == (0, 0, 0, 5)
        # a seed whose four words came out zero takes the same rule
        monkeypatch.setattr(rng_module, "split_seed", lambda seed, index: 0)
        assert Rng(5).getstate() == (1, 0, 0, 0)

"""Generator determinism, frozen stream vectors, and seed splitting."""

import pytest

from cardtable.core import Rng, split_seed

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

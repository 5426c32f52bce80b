"""Seeded pseudo-random generator used everywhere randomness is needed.

The generator is xoshiro256** (Blackman/Vigna), seeded through splitmix64.
Both algorithms are published, operate on 64-bit words, and involve no
platform-dependent behaviour, so a seed produces the same stream on every
machine and Python build. Nothing in the package touches `random` or
numpy's generators for game logic.

Sub-seeds are derived with `split_seed(master, index)`, one splitmix64
scramble of `master + (index + 1) * GOLDEN`. Game i of a run always uses
`split_seed(master_seed, i)`; within a game, the deal uses
`split_seed(game_seed, 0)` and the agent at seat s uses
`split_seed(game_seed, 1 + s)`. Every game is therefore self-contained
and results never depend on how games are batched over workers. A seed
becomes the generator's four state words as `split_seed(seed, w)` for
w = 0..3.

`fanout_block` computes that whole fan-out, master seed to state words,
for 64 consecutive games in one set of numpy uint64 operations, which
wrap mod 2**64 exactly as the masks here do; `Rng.from_words` starts a
generator from one row. The streams are the ones `Rng(split_seed(...))`
gives, bit for bit, and both paths apply the all-zero-state rule in one
place, `_start`.

Cards are dealt lazily. A Fisher-Yates shuffle from the end fixes
position i for good at its step i, so `draw(stock)`, which runs one such
step on the stock's last position and pops it, yields the same cards in
the same order, from the same `randbelow` calls, as `shuffle(stock)`
followed by `stock.pop()` each time. Blackjack, leduc, limit hold'em
and uno draw this way and pay only for the cards a hand uses; uno also
reshuffles its discards lazily, drawing from them as they lie. Only dou
dizhu, which deals the whole deck, shuffles.
"""

from __future__ import annotations

import numpy as np

FANOUT_BLOCK = 64  # games whose seed fan-out fanout_block computes at once

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(z: int) -> int:
    # splitmix64 output scramble
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def split_seed(master: int, index: int) -> int:
    """Derive the index-th sub-seed of a master seed (order-free, collision-scrambled)."""
    if index < 0:
        raise ValueError("split index must be >= 0")
    return _mix64((master + (index + 1) * _GOLDEN) & _MASK64)


def _start(words):
    """The generator's first state: xoshiro maps all zeros to itself, so
    that one set of words starts from s0 = 1 instead."""
    return words if any(words) else (1, 0, 0, 0)


_U64 = np.uint64


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # _mix64 on uint64 arrays: every operand is np.uint64, so products
    # wrap mod 2**64 like the masks above and nothing is cast to float
    z = (z ^ (z >> _U64(30))) * _U64(_MIX1)
    z = (z ^ (z >> _U64(27))) * _U64(_MIX2)
    return z ^ (z >> _U64(31))


def _split_each(seeds: np.ndarray, n: int) -> np.ndarray:
    """split_seed(s, k) for k in 0..n-1, on a new last axis, for every seed s."""
    return _mix64_array(seeds[..., None] + np.arange(1, n + 1, dtype=_U64) * _U64(_GOLDEN))


def fanout_block(master: int, start: int, streams: int) -> np.ndarray:
    """Generator words of games start .. start + FANOUT_BLOCK - 1 of a master seed.

    A uint64 array indexed [game - start, stream, word]: entry [g, k]
    holds the four words of Rng(split_seed(split_seed(master, start + g), k)),
    so Rng.from_words(block[g, k].tolist()) is that generator.
    """
    if start < 0:
        raise ValueError("block start must be >= 0")
    # split_seed(master, start + g) is split_seed(master + start * GOLDEN, g)
    shifted = np.array((master + start * _GOLDEN) & _MASK64, dtype=_U64)
    return _split_each(_split_each(_split_each(shifted, FANOUT_BLOCK), streams), 4)


class Rng:
    """xoshiro256** stream with rejection-sampled (modulo-free) bounded draws."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        self._s0, self._s1, self._s2, self._s3 = _start([split_seed(seed, w) for w in range(4)])

    @classmethod
    def from_words(cls, words) -> Rng:
        """Rng(seed) from its state words split_seed(seed, 0..3), as one
        row of a fanout_block holds them, without deriving them again."""
        rng = cls.__new__(cls)
        rng._s0, rng._s1, rng._s2, rng._s3 = _start(words)
        return rng

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        x = (s1 * 5) & _MASK64
        result = (((x << 7) | (x >> 57)) & _MASK64) * 9 & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n). Top bits of the stream, rejected until in range."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        if n == 1:
            return 0
        k = (n - 1).bit_length()
        shift = 64 - k
        while True:
            r = self.next_u64() >> shift
            if r < n:
                return r

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 1.1102230246251565e-16  # 2**-53

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randbelow(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates from the end of the sequence."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def draw(self, items: list):
        """Pop one card: the next step of `shuffle` on the last position.

        n draws from a list return the same items, in the same order and
        from the same stream, as `shuffle` followed by n pops from the end.
        """
        j = self.randbelow(len(items))
        items[-1], items[j] = items[j], items[-1]
        return items.pop()

    def getstate(self) -> tuple[int, int, int, int]:
        return (self._s0, self._s1, self._s2, self._s3)

    def setstate(self, state: tuple[int, int, int, int]) -> None:
        self._s0, self._s1, self._s2, self._s3 = state

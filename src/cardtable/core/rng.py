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
and results never depend on how games are batched over workers.

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

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    # splitmix64 output scramble
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def split_seed(master: int, index: int) -> int:
    """Derive the index-th sub-seed of a master seed (order-free, collision-scrambled)."""
    if index < 0:
        raise ValueError("split index must be >= 0")
    return _mix64((master + (index + 1) * _GOLDEN) & _MASK64)


class Rng:
    """xoshiro256** stream with rejection-sampled (modulo-free) bounded draws."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        seed &= _MASK64
        s = []
        for _ in range(4):
            seed = (seed + _GOLDEN) & _MASK64
            s.append(_mix64(seed))
        if not any(s):
            s[0] = 1
        self._s0, self._s1, self._s2, self._s3 = s

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

"""Portable deterministic pseudo-randomness for reproducible experiments.

The generator is splitmix64: the 64-bit state advances by 0x9E3779B97F4A7C15
per draw and each output is finalized with two xorshift-multiply rounds using
the constants 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB. A given seed yields
the same sequence on every platform and Python version.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """A splitmix64 stream seeded with an arbitrary integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Draw from [0, bound).

        Plain modulo reduction, so the sequence is trivial to reproduce from
        the documented recurrence; the modulo bias is irrelevant at the bounds
        used in this package.
        """
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by below()."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        perm = list(range(n))
        self.shuffle(perm)
        return perm

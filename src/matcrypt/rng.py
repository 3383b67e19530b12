"""Deterministic randomness.

Every randomized operation in the package takes an explicit 64-bit seed and
draws from a single generator type (Python's Mersenne Twister via
``random.Random``), so identical seeds give identical outputs within one
installation.  Child generators are derived with ``fork`` so that independent
subtasks cannot perturb each other's streams.  A generator is seeded on its
first draw, so a fork whose ``seed`` alone is read costs no seeding.
"""

from __future__ import annotations

import random
from functools import cached_property

MASK64 = (1 << 64) - 1


class Rng:
    def __init__(self, seed: int):
        self.seed = seed & MASK64

    @cached_property
    def _r(self) -> random.Random:
        return random.Random(self.seed)

    def fork(self, tag: int = 0) -> "Rng":
        """Derive an independent child generator."""
        return Rng(self._r.getrandbits(64) ^ (tag & MASK64))

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self._r.randrange(n)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return self._r.randint(lo, hi)

    def choice(self, seq):
        return seq[self._r.randrange(len(seq))]

    def shuffle(self, seq: list) -> list:
        self._r.shuffle(seq)
        return seq

    def chance(self, p: float) -> bool:
        return self._r.random() < p

"""Reference relator sampling for the differential tests.

``EagerRng`` is the generator as it was before seeding moved to the first
draw: it seeds its Mersenne Twister in ``__init__``.  ``ref_sample_relator``
is the relator sampler as it was before the product moved onto one letter
stack of letter tuples: each piece goes through the reducing ``FreeWord``
constructor, ``fw_inv`` and three ``fw_mul``s.  Both are kept unchanged
apart from their names, and apart from the sampler drawing from a generator
it is given instead of one it seeds.
"""

import random

from matcrypt.homcrypt import Presentation
from matcrypt.rng import MASK64
from matcrypt.words import FreeWord, fw_inv, fw_mul


class EagerRng:
    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._r = random.Random(self.seed)

    def fork(self, tag: int = 0) -> "EagerRng":
        """Derive an independent child generator."""
        return EagerRng(self._r.getrandbits(64) ^ (tag & MASK64))

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


def ref_sample_relator(pres: Presentation, target_length: int, rng) -> FreeWord:
    """A freely reduced product of conjugated relators w^-1 r^+-1 w."""
    out = FreeWord(pres.k, ())
    if not pres.relations or target_length <= 0:
        return out
    bound = 4 * target_length
    pieces = rng.randint(1, 3)
    for _ in range(pieces):
        r = rng.choice(pres.relations)
        if rng.chance(0.5):
            r = fw_inv(r)
        clen = rng.randint(0, max(0, target_length // 2))
        conj = []
        for _ in range(clen):
            g = rng.randint(1, pres.k)
            conj.append(g if rng.chance(0.5) else -g)
        w = FreeWord(pres.k, tuple(conj))
        cand = fw_mul(out, fw_mul(fw_mul(fw_inv(w), r), w))
        if len(cand) > bound:
            break
        out = cand
    return out

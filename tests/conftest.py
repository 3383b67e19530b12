"""Helpers shared by the test modules: seeded random matrices."""

from matcrypt.matrix import is_invertible, matrix
from matcrypt.ring import RingElement


def rand_element(ring, rng):
    return RingElement(ring, tuple(tuple(rng.below(g.q) for _ in range(g.r))
                                   for g in ring.summands))


def rand_matrix(ring, n, rng):
    return matrix(ring, [[rand_element(ring, rng) for _ in range(n)]
                         for _ in range(n)])


def rand_invertible(ring, n, rng):
    while True:
        m = rand_matrix(ring, n, rng)
        if is_invertible(m):
            return m

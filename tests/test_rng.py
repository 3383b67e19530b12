"""The seeded generator: forks and draws equal those of an eagerly seeded
``random.Random``, and a generator is seeded only when it is first drawn from."""

import random

import pytest

from matcrypt.rng import MASK64, Rng

SEEDS = (0, 1, 7, 2**63 + 5, -3, 2**70 + 11)
TAGS = (0, 1, 2, 0xA5A5, -1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tag", TAGS)
def test_fork_seed_matches_eager_derivation(seed, tag):
    want = random.Random(seed & MASK64).getrandbits(64) ^ (tag & MASK64)
    assert Rng(seed).fork(tag).seed == want


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_match_eager_random(seed):
    rng, ref = Rng(seed), random.Random(seed & MASK64)
    seq = list(range(10))
    for n in (1, 2, 3, 10, 1000, 2**40):
        assert rng.below(n) == ref.randrange(n)
        assert rng.randint(-n, n) == ref.randint(-n, n)
        assert rng.choice(seq) == seq[ref.randrange(len(seq))]
        assert rng.shuffle(list(seq)) == _shuffled(ref, seq)
        assert rng.chance(0.5) == (ref.random() < 0.5)
        assert rng.chance(0.1) == (ref.random() < 0.1)


def _shuffled(ref, seq):
    out = list(seq)
    ref.shuffle(out)
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_fork_seed_alone_holds_no_generator(seed):
    parent = Rng(seed)
    assert "_r" not in vars(parent)
    child = parent.fork(1)
    assert "_r" in vars(parent)
    assert child.seed == Rng(seed).fork(1).seed
    assert "_r" not in vars(child)
    child.below(2)
    assert "_r" in vars(child)
